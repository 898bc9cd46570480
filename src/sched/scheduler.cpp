#include "sched/scheduler.hpp"

namespace clouds::sched {

Scheduler::Scheduler(ra::Node& node, LoadTable& table, LoadMonitor* monitor, Config config)
    : node_(node), table_(table), monitor_(monitor), config_(config) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_placements_ = &metrics.counter(node_.name() + "/sched/placements");
  m_fallbacks_ = &metrics.counter(node_.name() + "/sched/fallbacks");
}

Result<net::NodeId> Scheduler::place(const std::optional<Sysname>& locality_hint,
                                     const std::set<net::NodeId>& exclude) {
  sim::Simulation& sim = node_.simulation();
  const sim::TimePoint now = sim.now();
  table_.evictSilent(now);

  // A compute server always knows its own load first-hand; refresh the self
  // entry when the last sample is older than a gossip period. (Consecutive
  // placements inside one period keep their inflight corrections.)
  if (monitor_ != nullptr && node_.alive()) {
    const LoadTable::Entry* self = table_.find(node_.id());
    if (self == nullptr || now - self->received > config_.self_refresh_after) {
      table_.record(monitor_->sample(0), now, /*self=*/true);
    }
  }

  std::vector<Candidate> candidates;
  candidates.reserve(table_.entries().size());
  for (const auto& [id, entry] : table_.entries()) {
    if (exclude.count(id) != 0) continue;
    Candidate c;
    c.node = id;
    c.load = entry.effectiveLoad();
    c.ewma_usec = entry.report.ewma_latency_usec;
    c.stale = table_.stale(entry, now);
    c.caches_target = locality_hint.has_value() && entry.report.caches(*locality_hint);
    candidates.push_back(c);
  }
  if (candidates.empty()) {
    return makeError(Errc::unreachable, "load table knows no live compute server");
  }
  const std::size_t pick = choosePlacement(config_.policy, candidates, sim.rng());
  const net::NodeId chosen = candidates[pick].node;
  table_.notePlacement(chosen);
  ++*m_placements_;
  sim.trace(node_.name(), "sched",
            std::string("place policy ") + policyName(config_.policy) + " -> node " +
                std::to_string(chosen) + " (load " + std::to_string(candidates[pick].load) +
                (candidates[pick].stale ? ", stale view)" : ")"));
  return chosen;
}

void Scheduler::noteDead(net::NodeId node) {
  table_.remove(node);
  countFallback();
  node_.simulation().trace(node_.name(), "sched",
                           "placement target node " + std::to_string(node) +
                               " is dead; retrying elsewhere");
}

void Scheduler::countFallback() {
  ++*m_fallbacks_;
}

Agent::Agent(ra::Node& node, Options options, LoadMonitor::Providers providers)
    : monitor_(providers.live_threads
                   ? std::make_unique<LoadMonitor>(node.id(), std::move(providers),
                                                   options.locality_segments)
                   : nullptr),
      table_(aging(options),
             node.simulation().metrics().counter(node.name() + "/sched/stale_evictions")),
      gossip_(node, table_, monitor_.get(), gossipOptions(options)),
      scheduler_(node, table_, monitor_.get(), schedulerConfig(options)) {}

}  // namespace clouds::sched
