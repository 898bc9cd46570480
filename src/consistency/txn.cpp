#include "consistency/txn.hpp"

#include <memory>

#include "dsm/protocol.hpp"
#include "sim/sync.hpp"

namespace clouds::consistency {

TxScope TxnRuntime::open(obj::OpLabel label) {
  TxScope scope;
  scope.txid = (static_cast<std::uint64_t>(node_.id()) << 32) | next_tx_++;
  scope.label = label;
  scope.depth = 1;
  return scope;
}

void TxnRuntime::onAccess(sim::Process& self, TxScope& scope, const Sysname& segment,
                          ra::Access access) {
  if (scope.label == obj::OpLabel::s) return;
  const bool need_write = access == ra::Access::write;
  if (scope.write_set.count(segment) != 0) return;
  if (!need_write && scope.read_set.count(segment) != 0) return;

  ++scope.lock_waits;
  ++*m_lock_waits_;
  auto r = sync_.lock(self, segment,
                      need_write ? dsm::LockMode::exclusive : dsm::LockMode::shared,
                      scope.txid);
  if (!r.ok()) {
    throw TxAborted{r.error().code,
                    "segment lock on " + segment.toString() + ": " + r.error().toString()};
  }
  scope.lock_servers.insert(ra::sysnameHome(segment));
  if (need_write) {
    scope.write_set.insert(segment);
    // While this scope is open the segment's dirty frames must not be
    // surrendered to coherence callbacks or evicted: either would publish
    // uncommitted bytes to the store, and a later abort could not unwrite
    // them (observable as a phantom half-transaction after a crash).
    dsm_.pinSegment(segment);
  } else {
    scope.read_set.insert(segment);
  }
}

std::map<net::NodeId, std::vector<store::PageUpdate>> TxnRuntime::collectUpdates(
    const TxScope& scope) {
  std::map<net::NodeId, std::vector<store::PageUpdate>> by_server;
  for (const Sysname& seg : scope.write_set) {
    for (auto& update : dsm_.collectDirtyPages(seg)) {
      by_server[ra::sysnameHome(seg)].push_back(std::move(update));
    }
  }
  return by_server;
}

Result<void> TxnRuntime::close(sim::Process& self, TxScope& scope, bool aborted) {
  if (aborted) {
    rollback(self, scope, {});
    return makeError(Errc::aborted, "transaction " + std::to_string(scope.txid) + " aborted");
  }
  const sim::TimePoint commit_start = node_.simulation().now();
  const auto r = scope.label == obj::OpLabel::gcp ? commitGlobal(self, scope)
                                                  : commitLocal(self, scope);
  if (r.ok()) {
    ++*m_commits_;
    m_commit_latency_->observe(node_.simulation().now() - commit_start);
  }
  return r;
}

Result<void> TxnRuntime::commitGlobal(sim::Process& self, TxScope& scope) {
  const auto by_server = collectUpdates(scope);
  // Phase 1: prepare everywhere.
  std::set<net::NodeId> prepared;
  for (const auto& [server, updates] : by_server) {
    auto r = sendPrepare(self, server, scope.txid, updates);
    if (!r.ok()) {
      ++*m_participant_failures_;
      node_.simulation().trace(node_.name(), "txn",
                               "prepare failed at node " + std::to_string(server) + ": " +
                                   r.error().toString());
      // Include the failed server in the abort round: the participant may
      // have logged the prepare even though its reply was lost, and an
      // unresolved entry would pin its locks and log space.
      prepared.insert(server);
      rollback(self, scope, prepared);
      return makeError(Errc::aborted, "2PC prepare failed: " + r.error().toString());
    }
    prepared.insert(server);
  }
  // Phase 2: commit everywhere. A server that misses the decision holds the
  // transaction in-doubt in its durable log; the decision is retried by
  // RaTP and is idempotent on the store. The outcome is already decided, so
  // the decisions are independent and fan out in parallel — each participant
  // forces its commit record without waiting behind its siblings'.
  if (by_server.size() <= 1) {
    for (const auto& [server, updates] : by_server) {
      (void)updates;
      auto r = sendDecision(self, server, scope.txid, /*commit=*/true);
      if (!r.ok()) {
        ++*m_participant_failures_;
        node_.simulation().trace(node_.name(), "txn",
                                 "commit decision to node " + std::to_string(server) +
                                     " undelivered (in doubt): " + r.error().toString());
      }
    }
  } else {
    struct Phase2 {
      sim::SimSemaphore done;
      std::uint64_t failures = 0;
      std::vector<std::string> traces;
    };
    auto st = std::make_shared<Phase2>();
    const std::uint64_t txid = scope.txid;
    for (const auto& [server, updates] : by_server) {
      (void)updates;
      const net::NodeId target = server;
      node_.spawnIsiBa("txn" + std::to_string(txid & 0xffffffff) + ":commit->" +
                           std::to_string(target),
                       [this, st, target, txid](sim::Process& p) {
                         auto r = sendDecision(p, target, txid, /*commit=*/true);
                         if (!r.ok()) {
                           ++st->failures;
                           st->traces.push_back("commit decision to node " +
                                                std::to_string(target) +
                                                " undelivered (in doubt): " +
                                                r.error().toString());
                         }
                         st->done.release();
                       });
    }
    for (std::size_t i = 0; i < by_server.size(); ++i) st->done.acquire(self);
    *m_participant_failures_ += st->failures;
    for (const std::string& t : st->traces) node_.simulation().trace(node_.name(), "txn", t);
  }
  for (const Sysname& seg : scope.write_set) dsm_.markSegmentClean(seg);
  releaseLocks(self, scope);
  return okResult();
}

Result<void> TxnRuntime::commitLocal(sim::Process& self, TxScope& scope) {
  // LCP: per-server atomicity only — each data server prepares and commits
  // independently; there is no global coordination round.
  const auto by_server = collectUpdates(scope);
  bool any_failed = false;
  for (const auto& [server, updates] : by_server) {
    auto p = sendPrepare(self, server, scope.txid, updates);
    if (p.ok()) p = sendDecision(self, server, scope.txid, /*commit=*/true);
    if (!p.ok()) {
      any_failed = true;
      for (const Sysname& seg : scope.write_set) {
        if (ra::sysnameHome(seg) == server) dsm_.dropSegment(seg);
      }
    }
  }
  for (const Sysname& seg : scope.write_set) dsm_.markSegmentClean(seg);
  releaseLocks(self, scope);
  if (any_failed) {
    return makeError(Errc::aborted, "lcp commit incomplete (per-server atomicity only)");
  }
  return okResult();
}

void TxnRuntime::rollback(sim::Process& self, TxScope& scope,
                          const std::set<net::NodeId>& prepared_servers) {
  ++*m_aborts_;
  // Discard dirty frames so nobody (including this node) sees the aborted
  // writes; the store still holds the pre-transaction images.
  for (const Sysname& seg : scope.write_set) dsm_.dropSegment(seg);
  for (net::NodeId server : prepared_servers) {
    (void)sendDecision(self, server, scope.txid, /*commit=*/false);
  }
  releaseLocks(self, scope);
}

void TxnRuntime::releaseLocks(sim::Process& self, TxScope& scope) {
  for (const Sysname& seg : scope.write_set) dsm_.unpinSegment(seg);
  for (net::NodeId server : scope.lock_servers) {
    (void)sync_.unlockAll(self, server, scope.txid);
  }
  scope.lock_servers.clear();
  scope.read_set.clear();
  scope.write_set.clear();
}

Result<void> TxnRuntime::sendPrepare(sim::Process& self, net::NodeId server, std::uint64_t txid,
                                     const std::vector<store::PageUpdate>& updates) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(dsm::Op::tx_prepare));
  e.u64(txid);
  e.u32(static_cast<std::uint32_t>(updates.size()));
  for (const auto& u : updates) {
    dsm::encodePageKey(e, u.key);
    e.bytes(u.data);
  }
  CLOUDS_TRY_ASSIGN(reply,
                    node_.ratp().transact(self, server, net::kPortCommit, std::move(e).take()));
  Decoder d(reply);
  return dsm::decodeStatus(d, "tx_prepare");
}

Result<void> TxnRuntime::sendDecision(sim::Process& self, net::NodeId server, std::uint64_t txid,
                                      bool commit) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(commit ? dsm::Op::tx_commit : dsm::Op::tx_abort));
  e.u64(txid);
  // A commit decision must survive a participant's crash+reboot window:
  // retransmit for ~1 s so the retried (idempotent) decision lands on the
  // rebooted server's durable prepared log. Aborts are best-effort — an
  // undelivered abort is mopped up by lease expiry and the in-doubt scan.
  net::RatpOptions opts;
  opts.max_retries =
      commit ? node_.cost().txn_decision_retries : node_.cost().txn_cleanup_retries;
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server, net::kPortCommit,
                                                 std::move(e).take(), opts));
  Decoder d(reply);
  return dsm::decodeStatus(d, commit ? "tx_commit" : "tx_abort");
}

}  // namespace clouds::consistency
