// Scheduler — turns a node's LoadTable into placement decisions, and
// Agent — the per-node bundle (monitor + table + gossip + scheduler) the
// cluster façade instantiates on every machine and workstation.
//
// A Scheduler only knows what its node has *heard* (plus a live sample of
// the node's own load, which is local knowledge): there is no global view.
// A believed-dead peer (evicted, or removed after a failed contact) is
// never chosen; an empty table is an error the caller must degrade from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include "ra/node.hpp"
#include "sched/gossip.hpp"
#include "sched/load_table.hpp"
#include "sched/monitor.hpp"
#include "sched/policy.hpp"

namespace clouds::sched {

class Scheduler {
 public:
  struct Config {
    PolicyKind policy = PolicyKind::least_loaded;
    // How long a local self-sample stays authoritative before place()
    // re-samples (matches the gossip interval by default).
    sim::Duration self_refresh_after = sim::msec(50);
  };

  Scheduler(ra::Node& node, LoadTable& table, LoadMonitor* monitor, Config config);

  // Choose a compute server for a new thread from the table's current view.
  // `locality_hint` names a segment of the target object (policy::locality
  // prefers servers whose digest contains it); `exclude` lists nodes the
  // caller has just found dead. Fails with Errc::unreachable when the view
  // is empty — the caller degrades (and counts a fallback).
  Result<net::NodeId> place(const std::optional<Sysname>& locality_hint,
                            const std::set<net::NodeId>& exclude);

  // Positive evidence a peer is dead (crashed between selection and start):
  // drop it from the view and count the fallback.
  void noteDead(net::NodeId node);
  void countFallback();

  LoadTable& table() noexcept { return table_; }
  PolicyKind policy() const noexcept { return config_.policy; }

 private:
  ra::Node& node_;
  LoadTable& table_;
  LoadMonitor* monitor_;
  Config config_;
  std::uint64_t* m_placements_;
  std::uint64_t* m_fallbacks_;
};

class Agent {
 public:
  struct Options {
    PolicyKind policy = PolicyKind::least_loaded;
    bool gossip = true;
    sim::Duration gossip_interval = sim::msec(50);
    sim::Duration gossip_phase = sim::kZero;
    sim::Duration stale_after = sim::msec(250);
    sim::Duration evict_after = sim::msec(1000);
    std::size_t locality_segments = 24;  // digest cap per report
  };

  // With providers (compute server): samples local load and gossips it.
  // Without (data server / workstation): listens and can place, never sends.
  Agent(ra::Node& node, Options options, LoadMonitor::Providers providers);

  bool computeAgent() const noexcept { return monitor_ != nullptr; }
  LoadMonitor* monitor() noexcept { return monitor_.get(); }
  LoadTable& table() noexcept { return table_; }
  Scheduler& scheduler() noexcept { return scheduler_; }

 private:
  static LoadTable::Aging aging(const Options& o) { return {o.stale_after, o.evict_after}; }
  static GossipAgent::Options gossipOptions(const Options& o) {
    return {o.gossip, o.gossip_interval, o.gossip_phase};
  }
  static Scheduler::Config schedulerConfig(const Options& o) {
    return {o.policy, o.gossip_interval};
  }

  std::unique_ptr<LoadMonitor> monitor_;
  LoadTable table_;
  GossipAgent gossip_;
  Scheduler scheduler_;
};

}  // namespace clouds::sched
