// Migrator — the per-compute-server daemon that re-homes hot objects onto
// cold servers ("live object migration under load pressure").
//
// Trigger: the node's gossip LoadTable. When local effective load sits at or
// above `high_watermark` while some fresh peer reports at or below
// `low_watermark`, the daemon picks the hottest local object and ships its
// persistent segments (data + heap, via the ordinary DSM write-back path) to
// the data server co-located with the cold peer, then flips ownership with a
// single 2PC-logged page write (see docs/MIGRATION.md for the full crash
// matrix).
//
// Layering: the Migrator is a client of the object runtime (obj::Runtime)
// and calls its drain gate, quiesce wait, activation flush and hot-object
// picks directly; both compile into clouds_core. Only the cluster topology
// (which data server sits beside a compute peer) and the façade's locality
// hints come in as two callbacks.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "clouds/runtime.hpp"
#include "dsm/client.hpp"
#include "migrate/protocol.hpp"
#include "migrate/state.hpp"
#include "ra/daemon.hpp"
#include "ra/node.hpp"
#include "sched/load_table.hpp"

namespace clouds::migrate {

class Migrator {
 public:
  struct Options {
    // The daemon is opt-in; migrateObject() always works when called
    // directly (tests, an explicit rebalance tool).
    bool enabled = false;
    sim::Duration interval = sim::msec(100);
    sim::Duration phase = sim::kZero;  // first-tick offset (de-synchronizes daemons)
    sim::Duration cooldown = sim::msec(300);  // after an attempt, successful or not
    std::uint64_t high_watermark = 6;  // local effectiveLoad >= high ...
    std::uint64_t low_watermark = 2;   // ... while a fresh peer is <= low
    std::uint64_t min_heat = 2;        // invocations before an object counts as hot
    sim::Duration drain_timeout = sim::msec(500);
    // Don't ship a second object to the same peer until its own gossip has
    // had time to reflect the first handoff — a cold peer's report lags the
    // load we just gave it, and trusting it verbatim dogpiles every hot
    // object onto the lowest-id idle node.
    sim::Duration target_backoff = sim::msec(200);
    // Low-watermark rebalance nudge (opt-in): a *quiet* node (effective
    // load <= low_watermark) whose own data server homes a pile of hot
    // objects re-spreads them to fresh peers reporting strictly smaller
    // piles (homed_hot + 1 < ours). Each ship strictly decreases the sum of
    // squared pile sizes, so the spreading terminates instead of trading
    // objects between equally idle nodes forever; a pile of one never
    // sheds. This is the fix for the "stranded placements" limitation:
    // objects dogpiled onto a one-time-cold node no longer stay there after
    // the pressure that sent them subsides (docs/MIGRATION.md).
    bool rebalance = false;
  };

  // Data server co-located with a compute peer (kNoNode: the peer is
  // diskless and cannot adopt segments).
  using DataHomeOf = std::function<net::NodeId(net::NodeId)>;
  // Ownership handed off durably: old header -> new header.
  using Committed = std::function<void(const Sysname&, const Sysname&)>;

  Migrator(ra::Node& node, dsm::DsmClientPartition& dsm, sched::LoadTable& table,
           obj::Runtime& rt, Options options, DataHomeOf data_home_of, Committed committed);

  // The synchronous protocol: drain -> lock -> ship -> 2PC flip -> forward
  // -> GC. Returns the new header sysname (homed on `target`). On any
  // failure before the commit decision, local ownership is fully restored.
  Result<Sysname> migrateObject(sim::Process& self, const Sysname& header,
                                net::NodeId target);

  State state() const noexcept { return fsm_.state(); }
  std::uint64_t generation() const noexcept { return fsm_.generation(); }
  const Options& options() const noexcept { return options_; }

  // Deterministic protocol transcript, one line per event (state changes,
  // begins, aborts, commits) — the determinism suite replays it byte for
  // byte, and chaos tests use the state hook to inject crashes at exact
  // protocol states.
  const std::vector<std::string>& events() const noexcept { return events_; }
  void onStateChange(std::function<void(State)> fn) { state_hook_ = std::move(fn); }

 private:
  bool tick(sim::Process& self);  // true if a migration was attempted
  bool rebalanceTick(sim::Process& self, const sched::LoadTable::Entry& me,
                     sim::TimePoint now);
  void event(std::string what);

  ra::Node& node_;
  dsm::DsmClientPartition& dsm_;
  sched::LoadTable& table_;
  obj::Runtime& rt_;
  Options options_;
  DataHomeOf data_home_of_;
  Committed committed_;
  MigrationFsm fsm_;
  std::vector<std::string> events_;
  std::function<void(State)> state_hook_;
  std::map<net::NodeId, sim::TimePoint> last_shipped_;  // target -> commit time
  std::uint64_t seq_ = 0;    // migration txid sequence (high bit set: disjoint
                             // from TxnRuntime's txids on the same node)
  // Registry handles ("<node>/migrate/..."), resolved at construction.
  std::uint64_t* m_started_;
  std::uint64_t* m_committed_;
  std::uint64_t* m_aborted_;
  std::uint64_t* m_in_doubt_;
  std::uint64_t* m_forwards_;
  std::optional<ra::Daemon> daemon_;  // the opt-in migration daemon
};

}  // namespace clouds::migrate
