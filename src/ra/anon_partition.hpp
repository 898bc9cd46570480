// Anonymous (node-local, volatile) segments.
//
// Clouds objects contain volatile memory — the volatile heap, per-invocation
// and per-thread regions, and thread stacks (paper §2.1, §5.1 "Types of
// Persistent Memory"). These never touch a data server: they are zero-fill
// page frames on the node that uses them, discarded when released. They get
// their own sysname tag so the MMU routes them here instead of to DSM.
#pragma once

#include <map>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "ra/partition.hpp"
#include "ra/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"

namespace clouds::ra {

inline constexpr std::uint64_t kAnonTag = 0xA707ULL << 48;

inline Sysname makeAnonSysname(std::uint32_t node, std::uint64_t seq) {
  return Sysname(kAnonTag | node, seq);
}
inline bool isAnonName(const Sysname& s) {
  return (s.hi() & (0xffffULL << 48)) == kAnonTag;
}

class AnonPartition : public Partition {
 public:
  AnonPartition(std::uint32_t node_id, sim::CpuResource& cpu, const sim::CostModel& cost)
      : node_id_(node_id), cpu_(cpu), cost_(cost) {}

  // Create / destroy a volatile segment (no I/O, metadata only).
  Sysname create(std::uint64_t length);
  void destroy(const Sysname& name) { dropSegment(name); sizes_.erase(name); }

  bool serves(const Sysname& segment) const override { return isAnonName(segment); }

  Result<PageHandle> resolvePage(sim::Process& self, const PageKey& key,
                                 Access access) override;
  Result<SegmentInfo> stat(sim::Process& self, const Sysname& segment) override;
  Result<void> flushSegment(sim::Process&, const Sysname&) override { return okResult(); }
  void dropSegment(const Sysname& segment) override;

 private:
  std::uint32_t node_id_;
  sim::CpuResource& cpu_;
  const sim::CostModel& cost_;
  std::uint64_t next_seq_ = 1;
  std::map<Sysname, std::uint64_t> sizes_;
  std::map<PageKey, Bytes> frames_;
};

}  // namespace clouds::ra
