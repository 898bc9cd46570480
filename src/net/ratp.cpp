#include "net/ratp.hpp"

#include <algorithm>
#include <cassert>

namespace clouds::net {

namespace {
// Fragment header on the wire: type(1) txid(8) port(2) index(2) count(2) len(4).
constexpr std::size_t kFragHeader = 1 + 8 + 2 + 2 + 2 + 4;
// How long a server keeps a completed transaction's reply for duplicate
// requests. Far above the client's full retry horizon, so a transaction id
// can never be re-executed.
constexpr sim::Duration kReplyCacheTtl = sim::sec(5);
}  // namespace

RatpEndpoint::RatpEndpoint(Nic& nic, std::string name) : nic_(nic), name_(std::move(name)) {
  sim::MetricsRegistry& metrics = simulation().metrics();
  m_started_ = &metrics.counter(name_ + "/ratp/transactions");
  m_completed_ = &metrics.counter(name_ + "/ratp/completed");
  m_timeouts_ = &metrics.counter(name_ + "/ratp/timeouts");
  m_aborted_ = &metrics.counter(name_ + "/ratp/aborted");
  m_retransmits_ = &metrics.counter(name_ + "/ratp/retransmits");
  m_cache_hits_ = &metrics.counter(name_ + "/ratp/reply_cache_hits");
  m_frags_ = &metrics.counter(name_ + "/ratp/fragments_sent");
  m_peer_deaths_ = &metrics.counter(name_ + "/ratp/peer_deaths");
  m_latency_ = &metrics.histogram(name_ + "/ratp/txn_latency_usec");
  nic_.setHandler(kProtoRatp,
                  [this](sim::Process& self, const Frame& frame) { onFrame(self, frame); });
}

void RatpEndpoint::bindService(PortId port, Handler handler) {
  services_[port] = std::move(handler);
}

void RatpEndpoint::abortPending(const std::string& reason) {
  for (auto& [txid, tx] : pending_) {
    if (tx.complete || tx.aborted) continue;
    tx.aborted = true;
    simulation().trace(name_, "ratp", "abort tx " + std::to_string(txid & 0xffffffff) +
                                          ": " + reason);
    if (tx.waiter != nullptr) tx.waiter->wake();
  }
}

void RatpEndpoint::onCrash() {
  // Do NOT clear pending_: waiters hold references into it. Killed waiters
  // unwind (their Eraser removes the entry); any survivor sees the aborted
  // flag and returns Errc::aborted instead of dereferencing freed state.
  abortPending("endpoint crash");
  server_txs_.clear();
  expiry_fifo_.clear();
  work_queue_.clear();
  idle_workers_.clear();
  for (sim::Process* w : worker_procs_) w->kill();
  worker_procs_.clear();
  worker_count_ = 0;
}

Result<Bytes> RatpEndpoint::transact(sim::Process& self, NodeId dst, PortId port, Bytes request,
                                     RatpOptions options) {
  const sim::Duration timeout =
      options.timeout > sim::kZero ? options.timeout : cost().ratp_retransmit_timeout;
  const int retries = options.max_retries >= 0 ? options.max_retries : cost().ratp_max_retries;

  const std::uint64_t txid = (static_cast<std::uint64_t>(nic_.address()) << 32) | next_seq_++;
  PendingTx& tx = pending_[txid];
  tx.waiter = &self;
  ++*m_started_;
  const sim::TimePoint started_at = simulation().now();

  // Erase the client-side state even if the calling process is killed while
  // blocked (node crash unwinds through here).
  struct Eraser {
    std::map<std::uint64_t, PendingTx>& map;
    std::uint64_t key;
    ~Eraser() { map.erase(key); }
  } eraser{pending_, txid};

  for (int attempt = 0; attempt <= retries && !tx.aborted; ++attempt) {
    if (attempt > 0) {
      ++*m_retransmits_;
      simulation().trace(name_, "ratp", "retransmit tx " + std::to_string(txid & 0xffffffff) +
                                            " attempt " + std::to_string(attempt));
    }
    sendMessage(self, dst, PacketType::request, txid, port, request);
    const sim::TimePoint deadline = simulation().now() + timeout;
    while (!tx.complete && !tx.aborted && simulation().now() < deadline) {
      (void)self.blockFor(deadline - simulation().now());
    }
    if (tx.complete) {
      ++*m_completed_;
      m_latency_->observe(simulation().now() - started_at);
      return std::move(tx.reply);
    }
  }
  if (tx.aborted) {
    ++*m_aborted_;
    return makeError(Errc::aborted, name_ + ": transaction to node " + std::to_string(dst) +
                                        " port " + std::to_string(port) + " aborted");
  }
  // Full retry budget spent with no reply: declare the peer dead so upper
  // layers (2PC, DSM, PET) can start recovery instead of waiting forever.
  ++*m_peer_deaths_;
  simulation().trace(name_, "ratp", "peer " + std::to_string(dst) + " declared dead (tx " +
                                        std::to_string(txid & 0xffffffff) + ")");
  ++*m_timeouts_;
  return makeError(Errc::timeout, name_ + ": transaction to node " + std::to_string(dst) +
                                      " port " + std::to_string(port) + " timed out");
}

void RatpEndpoint::sendMessage(sim::Process& self, NodeId dst, PacketType type,
                               std::uint64_t txid, PortId port, const Bytes& message) {
  const std::size_t capacity = cost().eth_mtu - kFragHeader;
  const auto count =
      static_cast<std::uint16_t>(std::max<std::size_t>(1, (message.size() + capacity - 1) / capacity));
  for (std::uint16_t index = 0; index < count; ++index) {
    const std::size_t off = static_cast<std::size_t>(index) * capacity;
    const std::size_t len = std::min(capacity, message.size() - off);
    Encoder e;
    e.u8(static_cast<std::uint8_t>(type));
    e.u64(txid);
    e.u16(port);
    e.u16(index);
    e.u16(count);
    e.bytes(ByteSpan(message.data() + off, len));
    // Transport-layer processing cost per packet, then the driver path.
    nic_.cpu().compute(self, cost().ratp_cpu_packet);
    Frame frame;
    frame.dst = dst;
    frame.protocol = kProtoRatp;
    frame.payload = std::move(e).take();
    nic_.send(self, std::move(frame));
    ++*m_frags_;
  }
}

void RatpEndpoint::onFrame(sim::Process& self, const Frame& frame) {
  nic_.cpu().compute(self, cost().ratp_cpu_packet);
  Decoder d(frame.payload);
  auto type = d.u8();
  auto txid = d.u64();
  auto port = d.u16();
  auto index = d.u16();
  auto count = d.u16();
  auto data = d.bytes();
  if (!type.ok() || !txid.ok() || !port.ok() || !index.ok() || !count.ok() || !data.ok() ||
      count.value() == 0 || index.value() >= count.value()) {
    simulation().trace(name_, "ratp", "malformed frame dropped");
    return;
  }
  switch (static_cast<PacketType>(type.value())) {
    case PacketType::request:
      onRequestFrag(self, frame.src, txid.value(), port.value(), index.value(), count.value(),
                    std::move(data).value());
      break;
    case PacketType::reply:
      onReplyFrag(self, txid.value(), index.value(), count.value(), std::move(data).value());
      break;
  }
}

void RatpEndpoint::onRequestFrag(sim::Process& self, NodeId src, std::uint64_t txid, PortId port,
                                 std::uint16_t index, std::uint16_t count, Bytes data) {
  // Lazily evict records older than the reply-cache TTL; by then their
  // clients have long stopped retransmitting. Done before the lookup below
  // so a stale record for this very key cannot shadow the new transaction.
  while (!expiry_fifo_.empty() && expiry_fifo_.front().first <= simulation().now()) {
    server_txs_.erase(expiry_fifo_.front().second);
    expiry_fifo_.pop_front();
  }
  const auto key = std::make_pair(src, txid);
  ServerTx& st = server_txs_[key];
  if (st.frags.empty()) {
    st.frags.resize(count);
    expiry_fifo_.emplace_back(simulation().now() + kReplyCacheTtl, key);
  }
  if (st.replied) {
    // Duplicate of a completed transaction: answer from the reply cache,
    // once per full retransmitted request (on its final fragment).
    if (index + 1 == count) {
      ++*m_cache_hits_;
      sendMessage(self, src, PacketType::reply, txid, port, st.reply);
    }
    return;
  }
  if (index < st.frags.size() && !st.frags[index].has_value()) {
    st.frags[index] = std::move(data);
    ++st.received;
  }
  if (st.received == st.frags.size() && !st.dispatched) {
    st.dispatched = true;
    nic_.cpu().compute(self, cost().ratp_reassembly);
    WorkItem item;
    item.txid = txid;
    item.client = src;
    item.port = port;
    for (auto& f : st.frags) {
      item.request.insert(item.request.end(), f->begin(), f->end());
      f->clear();
    }
    dispatch(std::move(item));
  }
}

void RatpEndpoint::dispatch(WorkItem item) {
  work_queue_.push_back(std::move(item));
  if (!idle_workers_.empty()) {
    sim::Process* w = idle_workers_.back();
    idle_workers_.pop_back();
    w->wake();
  } else {
    const int id = worker_count_++;
    worker_procs_.push_back(&simulation().spawn(
        name_ + ".ratpw" + std::to_string(id), [this](sim::Process& self) { workerLoop(self); }));
  }
}

void RatpEndpoint::workerLoop(sim::Process& self) {
  for (;;) {
    while (work_queue_.empty()) {
      idle_workers_.push_back(&self);
      self.block();
      // A dispatcher pops us before waking; after a spurious wake we are
      // still listed and must deduplicate.
      std::erase(idle_workers_, &self);
    }
    WorkItem item = std::move(work_queue_.front());
    work_queue_.pop_front();
    auto it = services_.find(item.port);
    if (it == services_.end()) {
      simulation().trace(name_, "ratp",
                         "request for unbound port " + std::to_string(item.port) + " ignored");
      continue;  // no reply: the client will time out
    }
    Bytes reply = it->second(self, item.client, item.request);
    auto st = server_txs_.find(std::make_pair(item.client, item.txid));
    if (st != server_txs_.end()) {
      st->second.reply = reply;
      st->second.replied = true;
    }
    sendMessage(self, item.client, PacketType::reply, item.txid, item.port, reply);
  }
}

void RatpEndpoint::onReplyFrag(sim::Process& self, std::uint64_t txid, std::uint16_t index,
                               std::uint16_t count, Bytes data) {
  auto it = pending_.find(txid);
  if (it == pending_.end()) return;  // stale duplicate of a finished transaction
  PendingTx& tx = it->second;
  if (tx.complete) return;
  if (tx.frags.empty()) tx.frags.resize(count);
  if (index >= tx.frags.size() || tx.frags[index].has_value()) return;
  tx.frags[index] = std::move(data);
  if (++tx.received < tx.frags.size()) return;
  nic_.cpu().compute(self, cost().ratp_reassembly);
  // The compute blocks: if the waiter's final deadline fired meanwhile, its
  // transact() has returned and erased the entry, so look it up again.
  it = pending_.find(txid);
  if (it == pending_.end()) return;
  PendingTx& done = it->second;
  for (auto& f : done.frags) {
    done.reply.insert(done.reply.end(), f->begin(), f->end());
    f->clear();
  }
  done.complete = true;
  done.waiter->wake();
}

}  // namespace clouds::net
