// LoadTable — one node's (necessarily imperfect) view of cluster load.
//
// Populated exclusively from received LoadReport messages plus the node's
// own local samples; there is no global state. Entries age: past
// `stale_after` a report is distrusted (policies prefer fresher nodes),
// past `evict_after` the silent peer is presumed dead and evicted — which
// is exactly what happens to a crashed or partitioned compute server once
// its broadcasts stop arriving.
//
// Between reports the table tracks *inflight placements*: threads this node
// routed to a peer since its last report. Policies charge them as extra
// load, so a burst of placements spreads instead of herding onto whichever
// server the last gossip round said was idle. A fresh report supersedes
// (and clears) the correction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "sched/report.hpp"
#include "sim/time.hpp"

namespace clouds::sched {

class LoadTable {
 public:
  struct Aging {
    sim::Duration stale_after = sim::msec(250);
    sim::Duration evict_after = sim::msec(1000);
  };

  struct Entry {
    LoadReport report;
    sim::TimePoint received = sim::kZero;
    std::uint32_t inflight = 0;  // local placements since `received`
    bool self = false;           // local sample, never evicted by silence

    std::uint64_t effectiveLoad() const { return report.threads + inflight; }
  };

  // Silent evictions are counted into `stale_evictions` (the owning node's
  // "<node>/sched/stale_evictions" registry counter).
  LoadTable(Aging aging, std::uint64_t& stale_evictions)
      : aging_(aging), stale_evictions_(stale_evictions) {}

  // Fold in a report (received off the wire, or a local self-sample).
  void record(const LoadReport& report, sim::TimePoint now, bool self);

  // Charge one routed-but-not-yet-reported thread against `node`.
  void notePlacement(net::NodeId node);

  // Drop a peer we have positive evidence is dead (failed contact).
  void remove(net::NodeId node);

  // Evict non-self entries silent for longer than evict_after.
  std::size_t evictSilent(sim::TimePoint now);

  bool stale(const Entry& e, sim::TimePoint now) const {
    return now - e.received > aging_.stale_after;
  }

  const Entry* find(net::NodeId node) const;

  // The least-loaded *fresh* peer at or below `low_watermark` effective
  // load, lowest id on ties (entries_ is ordered, so deterministic).
  // Migration's pull side: nullopt means nobody credibly has slack. The
  // optional `eligible` predicate lets the caller veto peers it knows more
  // about than gossip does (e.g. a peer it shipped an object to moments
  // ago, whose report does not show that load yet).
  std::optional<net::NodeId> coldestPeerBelow(
      std::uint64_t low_watermark, sim::TimePoint now,
      const std::function<bool(net::NodeId)>& eligible = {}) const;
  const std::map<net::NodeId, Entry>& entries() const noexcept { return entries_; }
  const Aging& aging() const noexcept { return aging_; }

  // Node crash: the table is volatile kernel state.
  void clear() { entries_.clear(); }

 private:
  Aging aging_;
  std::map<net::NodeId, Entry> entries_;
  std::uint64_t& stale_evictions_;
};

}  // namespace clouds::sched
