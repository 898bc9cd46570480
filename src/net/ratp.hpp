// RaTP — the Ra Transport Protocol (paper §4.2, "Networking and RaTP").
//
// "RaTP ... is similar to the communication protocol VMTP, used in the
// V-system, and provides efficient, reliable connectionless message
// transactions. A message transaction is a send/reply pair used for
// client-server type communications."
//
// Semantics implemented here:
//  * Connectionless request/reply transactions addressed to (node, port).
//  * Messages larger than one Ethernet frame are fragmented; the receiver
//    reassembles with per-fragment duplicate suppression.
//  * The reply acknowledges the request; the client retransmits the whole
//    request on timeout. The server's reply cache (VMTP-style, TTL-evicted)
//    answers duplicate requests with the cached reply instead of re-running
//    the handler, so handlers execute at most once per transaction.
//
// Service handlers run on a per-endpoint pool of worker processes (the
// system's server IsiBas), so a handler may block — touch the disk, take
// locks, or issue nested transactions — without stalling frame reception.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "net/ethernet.hpp"

namespace clouds::net {

using PortId = std::uint16_t;

// Well-known Clouds service ports.
inline constexpr PortId kPortEcho = 1;
inline constexpr PortId kPortDsm = 2;       // DSM page/coherence service
inline constexpr PortId kPortLock = 3;      // distributed synchronization
inline constexpr PortId kPortCommit = 4;    // two-phase-commit participant
inline constexpr PortId kPortNaming = 5;    // name server
inline constexpr PortId kPortThread = 6;    // thread manager (remote invocation)
inline constexpr PortId kPortUserIo = 7;    // user I/O manager (workstation side)
inline constexpr PortId kPortStorage = 8;   // segment storage service
inline constexpr PortId kPortNfs = 9;       // NfsSim comparator
inline constexpr PortId kPortFtp = 10;      // FtpSim comparator

struct RatpOptions {
  sim::Duration timeout = sim::kZero;  // 0 = use cost model default
  int max_retries = -1;                // <0 = use cost model default
};

class RatpEndpoint {
 public:
  // A handler receives the reassembled request and returns the reply bytes.
  using Handler = std::function<Bytes(sim::Process& self, NodeId client, const Bytes& request)>;

  RatpEndpoint(Nic& nic, std::string name);

  // Execute a message transaction: send `request` to (dst, port) and wait
  // for the reply. Blocking; must be called from process context. Fails
  // with Errc::timeout once the retry budget is exhausted (dead or
  // partitioned destination, or unbound remote port): the endpoint declares
  // the peer dead, counting "<name>/ratp/peer_deaths" and tracing it, and
  // the caller starts its own recovery. Fails with Errc::aborted if the
  // transaction is torn down mid-wait (abortPending or endpoint crash), so
  // callers never hang on a transaction that cannot finish.
  Result<Bytes> transact(sim::Process& self, NodeId dst, PortId port, Bytes request,
                         RatpOptions options = {});

  void bindService(PortId port, Handler handler);

  // Abort every in-flight client transaction: waiters wake and transact
  // returns Errc::aborted. Safe outside process context.
  void abortPending(const std::string& reason);

  // Discard all in-flight state (reply cache, queues, worker bookkeeping)
  // and abort pending client transactions. Called when this endpoint's node
  // crashes or restarts: the processes serving it are killed by the node
  // layer, so the pool must be rebuilt.
  void onCrash();

  NodeId address() const noexcept { return nic_.address(); }
  Nic& nic() noexcept { return nic_; }

 private:
  enum class PacketType : std::uint8_t { request = 1, reply = 2 };

  struct PendingTx {  // client side
    sim::Process* waiter = nullptr;
    std::vector<std::optional<Bytes>> frags;
    std::size_t received = 0;
    bool complete = false;
    bool aborted = false;  // torn down mid-wait; waiter returns Errc::aborted
    Bytes reply;
  };
  struct ServerTx {  // server side
    std::vector<std::optional<Bytes>> frags;
    std::size_t received = 0;
    bool dispatched = false;
    bool replied = false;
    Bytes reply;  // cached for duplicate requests until TTL eviction
  };
  struct WorkItem {
    std::uint64_t txid = 0;
    NodeId client = kNoNode;
    PortId port = 0;
    Bytes request;
  };

  void onFrame(sim::Process& self, const Frame& frame);
  void onRequestFrag(sim::Process& self, NodeId src, std::uint64_t txid, PortId port,
                     std::uint16_t index, std::uint16_t count, Bytes data);
  void onReplyFrag(sim::Process& self, std::uint64_t txid, std::uint16_t index,
                   std::uint16_t count, Bytes data);
  void sendMessage(sim::Process& self, NodeId dst, PacketType type, std::uint64_t txid,
                   PortId port, const Bytes& message);
  void dispatch(WorkItem item);
  void workerLoop(sim::Process& self);

  const sim::CostModel& cost() const { return nic_.network().cost(); }
  sim::Simulation& simulation() { return nic_.network().simulation(); }

  Nic& nic_;
  std::string name_;
  std::uint32_t next_seq_ = 1;
  std::map<std::uint64_t, PendingTx> pending_;
  std::map<std::pair<NodeId, std::uint64_t>, ServerTx> server_txs_;
  // Reply-cache eviction is lazy (purged as new transactions arrive) so the
  // simulation's event queue drains as soon as real work stops.
  std::deque<std::pair<sim::TimePoint, std::pair<NodeId, std::uint64_t>>> expiry_fifo_;
  std::map<PortId, Handler> services_;
  std::deque<WorkItem> work_queue_;
  std::vector<sim::Process*> idle_workers_;
  std::vector<sim::Process*> worker_procs_;  // all workers ever spawned (for crash kill)
  int worker_count_ = 0;
  // Protocol counters ("<name>/ratp/..."), resolved at construction.
  std::uint64_t* m_started_;
  std::uint64_t* m_completed_;
  std::uint64_t* m_timeouts_;
  std::uint64_t* m_aborted_;
  std::uint64_t* m_retransmits_;
  std::uint64_t* m_cache_hits_;
  std::uint64_t* m_frags_;
  std::uint64_t* m_peer_deaths_;
  sim::Histogram* m_latency_;
};

}  // namespace clouds::net
