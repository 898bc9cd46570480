#include "migrate/protocol.hpp"

namespace clouds::migrate {

Bytes ForwardRecord::encode() const {
  Encoder e;
  e.u32(kForwardMagic);
  e.u8(kForwardVersion);
  e.u64(generation);
  e.sysname(new_header);
  e.str(class_name);
  e.u32(static_cast<std::uint32_t>(moves.size()));
  for (const SegmentMove& m : moves) {
    e.sysname(m.from);
    e.sysname(m.to);
    e.u64(m.length);
  }
  return std::move(e).take();
}

Result<Bytes> ForwardRecord::encodePage() const {
  // Mirror the decode-side bounds at encode time: a record rejected here is
  // one decode() would refuse anyway, and padding below must never shrink
  // the buffer.
  if (class_name.size() > kMaxClassName) {
    return makeError(Errc::bad_argument, "forward record class name too long to encode");
  }
  if (moves.size() > kMaxMoves) {
    return makeError(Errc::bad_argument, "forward record has too many segment moves");
  }
  Bytes bytes = encode();
  if (bytes.size() > ra::kPageSize) {
    return makeError(Errc::bad_argument, "forward record does not fit in a header page");
  }
  bytes.resize(ra::kPageSize, std::byte{0});
  return bytes;
}

Result<ForwardRecord> ForwardRecord::decode(ByteSpan bytes) {
  Decoder d(bytes);
  CLOUDS_TRY_ASSIGN(magic, d.u32());
  if (magic != kForwardMagic) {
    return makeError(Errc::bad_argument, "not a forward record (bad magic)");
  }
  CLOUDS_TRY_ASSIGN(version, d.u8());
  if (version != kForwardVersion) {
    return makeError(Errc::bad_argument,
                     "unknown forward record version " + std::to_string(version));
  }
  ForwardRecord rec;
  CLOUDS_TRY_ASSIGN(generation, d.u64());
  rec.generation = generation;
  CLOUDS_TRY_ASSIGN(new_header, d.sysname());
  rec.new_header = new_header;
  if (!ra::isSegmentName(rec.new_header)) {
    return makeError(Errc::bad_argument, "forward target is not a segment sysname");
  }
  CLOUDS_TRY_ASSIGN(class_name, d.str());
  if (class_name.size() > kMaxClassName) {
    return makeError(Errc::bad_argument, "forward record class name too long");
  }
  rec.class_name = std::move(class_name);
  CLOUDS_TRY_ASSIGN(count, d.u32());
  if (count > kMaxMoves) {
    return makeError(Errc::bad_argument,
                     "forward record claims " + std::to_string(count) + " segment moves");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    SegmentMove m;
    CLOUDS_TRY_ASSIGN(from, d.sysname());
    m.from = from;
    CLOUDS_TRY_ASSIGN(to, d.sysname());
    m.to = to;
    CLOUDS_TRY_ASSIGN(length, d.u64());
    m.length = length;
    if (!ra::isSegmentName(m.from) || !ra::isSegmentName(m.to)) {
      return makeError(Errc::bad_argument, "segment move names a non-segment sysname");
    }
    if (m.length > kMaxSegmentLength) {
      return makeError(Errc::bad_argument, "segment move length implausible");
    }
    rec.moves.push_back(m);
  }
  return rec;
}

Result<HeaderPage> decodeHeaderPage(ByteSpan page) {
  auto magic = Decoder(page).u32();
  if (magic.ok() && magic.value() == kForwardMagic) {
    CLOUDS_TRY_ASSIGN(rec, ForwardRecord::decode(page));
    return HeaderPage(std::move(rec));
  }
  CLOUDS_TRY_ASSIGN(desc, obj::ObjectDescriptor::decode(page));
  return HeaderPage(std::move(desc));
}

}  // namespace clouds::migrate
