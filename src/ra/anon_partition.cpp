#include "ra/anon_partition.hpp"

namespace clouds::ra {

Sysname AnonPartition::create(std::uint64_t length) {
  const Sysname name = makeAnonSysname(node_id_, next_seq_++);
  sizes_[name] = length;
  return name;
}

Result<PageHandle> AnonPartition::resolvePage(sim::Process& self, const PageKey& key,
                                              Access access) {
  (void)access;  // volatile memory is always read-write
  auto size_it = sizes_.find(key.segment);
  if (size_it == sizes_.end()) {
    return makeError(Errc::not_found, "no anonymous segment " + key.segment.toString());
  }
  if (static_cast<std::uint64_t>(key.page) * kPageSize >= size_it->second) {
    return makeError(Errc::protection, "anonymous page out of range: " + key.toString());
  }
  auto it = frames_.find(key);
  if (it == frames_.end()) {
    cpu_.compute(self, cost_.fault_trap + cost_.fault_zero_fill);
    it = frames_.emplace(key, Bytes(kPageSize, std::byte{0})).first;
  }
  return PageHandle{it->second.data(), true};
}

Result<SegmentInfo> AnonPartition::stat(sim::Process&, const Sysname& segment) {
  auto it = sizes_.find(segment);
  if (it == sizes_.end()) {
    return makeError(Errc::not_found, "no anonymous segment " + segment.toString());
  }
  return SegmentInfo{segment, it->second, true};
}

void AnonPartition::dropSegment(const Sysname& segment) {
  for (auto it = frames_.begin(); it != frames_.end();) {
    it = it->first.segment == segment ? frames_.erase(it) : std::next(it);
  }
}

}  // namespace clouds::ra
