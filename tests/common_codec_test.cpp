#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace clouds {
namespace {

TEST(Codec, RoundTripScalars) {
  Encoder e;
  e.u8(0xab);
  e.u16(0xbeef);
  e.u32(0xdeadbeef);
  e.u64(0x0123456789abcdefULL);
  e.i64(-42);
  e.f64(3.14159);
  e.boolean(true);
  e.boolean(false);

  Decoder d(e.buffer());
  EXPECT_EQ(d.u8().value(), 0xab);
  EXPECT_EQ(d.u16().value(), 0xbeef);
  EXPECT_EQ(d.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(d.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(d.i64().value(), -42);
  EXPECT_DOUBLE_EQ(d.f64().value(), 3.14159);
  EXPECT_TRUE(d.boolean().value());
  EXPECT_FALSE(d.boolean().value());
  EXPECT_TRUE(d.atEnd());
}

TEST(Codec, RoundTripStringsAndBytes) {
  Encoder e;
  e.str("hello clouds");
  e.str("");
  Bytes blob = toBytes("binary\0data");
  e.bytes(blob);
  e.sysname(Sysname(7, 9));

  Decoder d(e.buffer());
  EXPECT_EQ(d.str().value(), "hello clouds");
  EXPECT_EQ(d.str().value(), "");
  EXPECT_EQ(d.bytes().value(), blob);
  EXPECT_EQ(d.sysname().value(), Sysname(7, 9));
}

TEST(Codec, UnderflowIsError) {
  Encoder e;
  e.u16(77);
  Decoder d(e.buffer());
  EXPECT_TRUE(d.u16().ok());
  auto r = d.u32();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::bad_argument);
}

TEST(Codec, TruncatedStringIsError) {
  Encoder e;
  e.u32(100);  // claims 100 bytes follow; none do
  Decoder d(e.buffer());
  EXPECT_FALSE(d.str().ok());
}

TEST(Codec, BytesViewAliasesTheInput) {
  Encoder e;
  const Bytes blob = toBytes("fragment payload");
  e.u8(1);
  e.bytes(blob);
  e.bytes(ByteSpan());  // a zero-length field
  e.u8(2);

  const Bytes& wire = e.buffer();
  Decoder d(wire);
  EXPECT_EQ(d.u8().value(), 1);
  auto view = d.bytesView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Bytes(view.value().begin(), view.value().end()), blob);
  // No copy: the span points into the encoder's buffer, after the u8 and
  // the 4-byte length prefix.
  EXPECT_EQ(view.value().data(), wire.data() + 1 + 4);
  auto empty = d.bytesView();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
  EXPECT_EQ(d.u8().value(), 2);
  EXPECT_TRUE(d.atEnd());
}

TEST(Codec, TruncatedBytesFieldIsError) {
  Encoder e;
  e.u32(9);  // claims 9 bytes follow; 3 do
  e.u8(1);
  e.u8(2);
  e.u8(3);
  Decoder view_decoder(e.buffer());
  auto view = view_decoder.bytesView();
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.code(), Errc::bad_argument);
  Decoder copy_decoder(e.buffer());
  auto copy = copy_decoder.bytes();
  ASSERT_FALSE(copy.ok());
  EXPECT_EQ(copy.code(), Errc::bad_argument);
  // A field too short to hold even its length prefix fails the same way.
  const Bytes stub(2, std::byte{0});
  Decoder short_decoder(stub);
  EXPECT_EQ(short_decoder.bytesView().code(), Errc::bad_argument);
}

TEST(Codec, ReserveKeepsContentsAndAllocatesOnce) {
  Encoder e;
  e.u16(0xbeef);
  e.reserve(1 + 8 + 4 + 5);
  const std::byte* before = e.buffer().data();
  EXPECT_GE(e.buffer().capacity(), e.size() + 1 + 8 + 4 + 5);
  e.u8(7);
  e.u64(42);
  e.bytes(toBytes("hello"));
  EXPECT_EQ(e.buffer().data(), before);  // filled within the reservation
  EXPECT_EQ(e.size(), 2u + 1 + 8 + 4 + 5);
  Decoder d(e.buffer());
  EXPECT_EQ(d.u16().value(), 0xbeef);
  EXPECT_EQ(d.u8().value(), 7);
  EXPECT_EQ(d.u64().value(), 42u);
  EXPECT_EQ(d.bytes().value(), toBytes("hello"));
  EXPECT_TRUE(d.atEnd());
}

TEST(Codec, BadBooleanRejected) {
  Encoder e;
  e.u8(7);
  Decoder d(e.buffer());
  EXPECT_FALSE(d.boolean().ok());
}

TEST(Codec, ExtremeValues) {
  Encoder e;
  e.i64(std::numeric_limits<std::int64_t>::min());
  e.i64(std::numeric_limits<std::int64_t>::max());
  e.f64(std::numeric_limits<double>::infinity());
  e.f64(-0.0);
  Decoder d(e.buffer());
  EXPECT_EQ(d.i64().value(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(d.i64().value(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(d.f64().value(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.f64().value(), -0.0);
}

TEST(Result, TryMacroPropagates) {
  auto inner = []() -> Result<int> { return makeError(Errc::timeout, "t"); };
  auto outer = [&]() -> Result<std::string> {
    CLOUDS_TRY_ASSIGN(v, inner());
    return std::to_string(v);
  };
  auto r = outer();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::timeout);
}

TEST(Result, VoidResult) {
  Result<void> ok = okResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = makeError(Errc::io, "disk");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::io);
}

}  // namespace
}  // namespace clouds
