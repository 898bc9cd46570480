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
// Layering: migrate/ sits *below* clouds/ — everything it needs from the
// object runtime (drain gate, quiesce wait, activation flush, hot-object
// pick) is injected as Hooks closures, mirroring sched::LoadMonitor's
// Providers. The cluster façade wires them up.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "clouds/object.hpp"
#include "dsm/client.hpp"
#include "dsm/sync_client.hpp"
#include "migrate/protocol.hpp"
#include "migrate/state.hpp"
#include "ra/node.hpp"
#include "sched/load_table.hpp"
#include "sysobj/name_server.hpp"

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

  // Closures into the clouds/ object runtime and cluster topology.
  struct Hooks {
    // Drain gate: returns false if the object is already draining.
    std::function<bool(const Sysname&)> begin_drain;
    std::function<void(const Sysname&)> end_drain;
    // Wait until no local thread executes inside the draining object.
    std::function<Result<void>(sim::Process&, const Sysname&, sim::Duration)> wait_quiesced;
    // Flush the activation's dirty pages and tear it down, making the home
    // store authoritative (ok when the object is not active).
    std::function<Result<void>(sim::Process&, const Sysname&)> flush_deactivate;
    // Hottest local candidate (header sysname) with at least min_heat
    // invocations; nullopt when nothing qualifies.
    std::function<std::optional<Sysname>(std::uint64_t)> pick_hot;
    // Coldest member of the pile homed on this node's own data server (the
    // rebalance nudge ships the cheapest-to-lose object and keeps the
    // hottest one's cache locality); nullopt when nothing qualifies.
    std::function<std::optional<Sysname>(std::uint64_t)> pick_spread;
    // Live count of active objects with >= min_heat invocations homed on
    // the given data server. For our own home this must be exact (the
    // gossiped self-report lags by a gossip interval, and shipping on a
    // stale pile would overshoot the spread). For a peer's home it is the
    // local view: adopted incarnations we keep invoking stay in OUR
    // activation table with their new home, which is exactly what the
    // peer's own report can never show (heat is invocation-local, so a
    // node that stores a pile nobody invokes through it reports zero).
    std::function<std::size_t(std::uint64_t, net::NodeId)> homed_hot_count;
    // Data server co-located with a compute peer (kNoNode: peer is diskless
    // and cannot adopt segments).
    std::function<net::NodeId(net::NodeId)> data_home_of;
    // Ownership handed off durably: old header -> new header.
    std::function<void(const Sysname&, const Sysname&)> committed;
    // Drop a heat entry whose sysname turned out to be a tombstone (the
    // object migrated away and the stale name must stop winning pick_hot).
    std::function<void(const Sysname&)> forget_heat;
  };

  Migrator(ra::Node& node, dsm::DsmClientPartition& dsm, sched::LoadTable* table,
           net::NodeId name_server, Options options, Hooks hooks);

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
  void start();
  void loop(sim::Process& self);
  void armTick(sim::Duration delay);
  bool tick(sim::Process& self);  // true if a migration was attempted
  bool rebalanceTick(sim::Process& self, const sched::LoadTable::Entry& me,
                     sim::TimePoint now);
  void event(std::string what);
  Result<void> copySegment(sim::Process& self, const Sysname& from, const Sysname& to,
                           std::uint64_t length);
  Result<void> sendPrepare(sim::Process& self, net::NodeId server, std::uint64_t txid,
                           const ra::PageKey& key, const Bytes& page);
  Result<void> sendDecision(sim::Process& self, net::NodeId server, std::uint64_t txid,
                            bool commit);

  ra::Node& node_;
  dsm::DsmClientPartition& dsm_;
  sched::LoadTable* table_;  // null: no gossip view, daemon never triggers
  dsm::SyncClient sync_;
  sysobj::NameClient names_;
  Options options_;
  Hooks hooks_;
  MigrationFsm fsm_;
  std::vector<std::string> events_;
  std::function<void(State)> state_hook_;
  sim::Process* loop_ = nullptr;
  std::map<net::NodeId, sim::TimePoint> last_shipped_;  // target -> commit time
  std::uint64_t epoch_ = 0;  // bumped on crash: stale ticks must not wake a new loop
  std::uint64_t seq_ = 0;    // migration txid sequence (high bit set: disjoint
                             // from TxnRuntime's txids on the same node)
  // Registry handles ("<node>/migrate/..."), resolved at construction.
  std::uint64_t* m_started_;
  std::uint64_t* m_committed_;
  std::uint64_t* m_aborted_;
  std::uint64_t* m_in_doubt_;
  std::uint64_t* m_forwards_;
};

}  // namespace clouds::migrate
