// Consistency-preserving threads (paper §5.2.1).
//
// "The threads that execute are of two kinds, namely s-threads (or standard
//  threads) and cp-threads (or consistency-preserving threads). ... When a
//  cp-thread executes, all segments it reads are read-locked, and the
//  segments it updates are write-locked. Locking is handled by the system,
//  automatically at runtime. The updated segments are written using a
//  2-phase commit mechanism when the cp-thread completes."
//
// Reconstructed semantics (DESIGN.md §6):
//  * GCP — strict two-phase locking held to commit + distributed two-phase
//    commit across every data server touched: globally atomic.
//  * LCP — same automatic locking, but at scope exit each data server's
//    updates are prepared+committed independently (atomic per server only)
//    — the lightweight local variant.
//  * S   — no locks, no recovery; interleaves freely (and dangerously).
//
// A scope aborts by exception (TxAborted) so that RAII unwinds the user's
// entry code; the invocation layer catches it, rolls back (dirty frames
// dropped, prepared servers aborted, locks released) and reports
// Errc::aborted / Errc::deadlock.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "clouds/class_registry.hpp"
#include "dsm/client.hpp"
#include "dsm/sync_client.hpp"
#include "ra/node.hpp"

namespace clouds::consistency {

struct TxAborted {
  Errc code = Errc::aborted;
  std::string reason;
};

struct TxScope {
  std::uint64_t txid = 0;
  obj::OpLabel label = obj::OpLabel::s;
  int depth = 0;  // nested labelled operations fold into the outermost scope
  std::set<Sysname> read_set;   // segments read-locked
  std::set<Sysname> write_set;  // segments write-locked (dirty pages collected)
  std::set<net::NodeId> lock_servers;
  std::uint64_t lock_waits = 0;
};

class TxnRuntime {
 public:
  TxnRuntime(ra::Node& node, dsm::DsmClientPartition& dsmp, dsm::SyncClient& sync)
      : node_(node), dsm_(dsmp), sync_(sync) {
    sim::MetricsRegistry& metrics = node_.simulation().metrics();
    m_commits_ = &metrics.counter(node_.name() + "/txn/commits");
    m_aborts_ = &metrics.counter(node_.name() + "/txn/aborts");
    m_lock_waits_ = &metrics.counter(node_.name() + "/txn/lock_waits");
    m_participant_failures_ = &metrics.counter(node_.name() + "/txn/participant_failures");
    m_commit_latency_ = &metrics.histogram(node_.name() + "/txn/commit_latency_usec");
  }

  TxScope open(obj::OpLabel label);

  // Pre-access hook for every data-segment touch inside a cp scope:
  // acquires the segment lock on first read/write. Throws TxAborted when
  // the lock wait times out (deadlock policy).
  void onAccess(sim::Process& self, TxScope& scope, const Sysname& segment, ra::Access access);

  // Scope exit. `aborted` forces rollback (entry threw or failed).
  // Returns Errc::aborted when commit could not complete.
  Result<void> close(sim::Process& self, TxScope& scope, bool aborted);

 private:
  std::map<net::NodeId, std::vector<store::PageUpdate>> collectUpdates(const TxScope& scope);
  Result<void> commitGlobal(sim::Process& self, TxScope& scope);
  Result<void> commitLocal(sim::Process& self, TxScope& scope);
  void rollback(sim::Process& self, TxScope& scope,
                const std::set<net::NodeId>& prepared_servers);
  void releaseLocks(sim::Process& self, TxScope& scope);

  Result<void> sendPrepare(sim::Process& self, net::NodeId server, std::uint64_t txid,
                           const std::vector<store::PageUpdate>& updates);
  Result<void> sendDecision(sim::Process& self, net::NodeId server, std::uint64_t txid,
                            bool commit);

  ra::Node& node_;
  dsm::DsmClientPartition& dsm_;
  dsm::SyncClient& sync_;
  std::uint32_t next_tx_ = 1;
  // Registry handles ("<node>/txn/..."), resolved at construction.
  std::uint64_t* m_commits_;
  std::uint64_t* m_aborts_;
  std::uint64_t* m_lock_waits_;
  std::uint64_t* m_participant_failures_;
  sim::Histogram* m_commit_latency_;
};

}  // namespace clouds::consistency
