#include "net/ethernet.hpp"

#include <stdexcept>

namespace clouds::net {

// ---- Nic ----

Nic::Nic(Ethernet& ether, NodeId addr, sim::CpuResource& cpu, std::string name)
    : ether_(ether), addr_(addr), cpu_(cpu), name_(std::move(name)) {
  sim::MetricsRegistry& metrics = ether_.simulation().metrics();
  m_sent_ = &metrics.counter(name_ + "/eth/frames_sent");
  m_received_ = &metrics.counter(name_ + "/eth/frames_received");
  m_lost_ = &metrics.counter(name_ + "/eth/frames_lost");
  m_crashes_ = &metrics.counter(name_ + "/eth/crashes");
  m_restarts_ = &metrics.counter(name_ + "/eth/restarts");
  spawnRxProcess();
}

void Nic::spawnRxProcess() {
  // The receive process models the interrupt + protocol-dispatch path: it
  // serializes per-frame receive work on this node.
  rx_process_ = &ether_.simulation().spawn(name_ + ".nicrx", [this](sim::Process& self) {
    for (;;) {
      while (rx_queue_.empty()) self.block();
      Frame frame = std::move(rx_queue_.front());
      rx_queue_.pop_front();
      if (!up_) {  // interface went down with frames queued
        ++*m_lost_;
        continue;
      }
      cpu_.compute(self, ether_.cost().eth_cpu_recv);
      ++*m_received_;
      auto it = handlers_.find(frame.protocol);
      if (it != handlers_.end()) {
        it->second(self, frame);
      } else {
        ether_.simulation().trace(name_, "eth", "dropped frame with unbound protocol " +
                                                    std::to_string(frame.protocol));
      }
    }
  });
}

void Nic::crash() {
  up_ = false;
  // Queued-but-undelivered frames die with the node.
  *m_lost_ += rx_queue_.size();
  rx_queue_.clear();
  drop_next_rx_ = 0;  // scripted fault state is volatile, not configuration
  ++*m_crashes_;
  if (rx_process_ != nullptr) rx_process_->kill();
  rx_process_ = nullptr;
}

void Nic::restart() {
  if (rx_process_ != nullptr) return;  // not crashed
  up_ = true;
  drop_next_rx_ = 0;
  ++*m_restarts_;
  spawnRxProcess();
}

void Nic::send(sim::Process& self, Frame frame) {
  if (frame.payload.size() > ether_.cost().eth_mtu) {
    throw std::logic_error("Nic::send: frame exceeds MTU (" +
                           std::to_string(frame.payload.size()) + " bytes)");
  }
  if (!up_) {  // transmissions from a dead node vanish
    ++*m_lost_;
    return;
  }
  frame.src = addr_;
  cpu_.compute(self, ether_.cost().eth_cpu_send);
  ++*m_sent_;
  ether_.transmit(frame);
}

void Nic::setHandler(ProtocolId protocol, Handler handler) {
  handlers_[protocol] = std::move(handler);
}

void Nic::enqueueReceived(Frame frame) {
  if (!up_) {  // arrived while the interface was down
    ++*m_lost_;
    return;
  }
  if (drop_next_rx_ > 0) {  // scripted receive-side loss
    --drop_next_rx_;
    ++*m_lost_;
    return;
  }
  rx_queue_.push_back(std::move(frame));
  rx_process_->wake();
}

// ---- Ethernet ----

Ethernet::Ethernet(sim::Simulation& sim, const sim::CostModel& cost) : sim_(sim), cost_(cost) {
  sim::MetricsRegistry& metrics = sim_.metrics();
  m_on_wire_ = &metrics.counter("net/eth/frames_on_wire");
  m_dropped_ = &metrics.counter("net/eth/frames_dropped");
  m_dup_ = &metrics.counter("net/eth/frames_dup");
  m_blocked_ = &metrics.counter("net/eth/frames_blocked");
  m_bytes_ = &metrics.counter("net/eth/bytes_on_wire");
  m_busy_usec_ = &metrics.counter("net/eth/busy_usec");
}

Nic& Ethernet::attach(NodeId addr, sim::CpuResource& cpu, std::string name) {
  if (find(addr) != nullptr) {
    throw std::logic_error("Ethernet::attach: duplicate node id " + std::to_string(addr));
  }
  nics_.push_back(std::unique_ptr<Nic>(new Nic(*this, addr, cpu, std::move(name))));
  return *nics_.back();
}

Nic* Ethernet::find(NodeId addr) noexcept {
  for (auto& n : nics_) {
    if (n->address() == addr) return n.get();
  }
  return nullptr;
}

void Ethernet::transmit(const Frame& frame) {
  // Fault injection happens at the medium: a dropped frame still occupies
  // wire time (collisions/noise do on a real Ethernet).
  bool drop = false;
  if (scripted_drops_ > 0) {
    --scripted_drops_;
    drop = true;
  } else if (drop_rate_ > 0.0 && sim_.uniform01() < drop_rate_) {
    drop = true;
  }
  const bool duplicate = !drop && dup_rate_ > 0.0 && sim_.uniform01() < dup_rate_;

  const sim::Duration tx = cost_.ethTxTime(frame.payload.size());
  const sim::TimePoint start = std::max(sim_.now(), medium_free_at_);
  medium_free_at_ = start + tx;
  ++*m_on_wire_;
  *m_bytes_ += frame.payload.size() + cost_.eth_header;
  *m_busy_usec_ += static_cast<std::uint64_t>(tx.count() / 1000);

  if (drop) {
    ++*m_dropped_;
    return;
  }
  if (frame.dst != kBroadcast && partitioned(frame.src, frame.dst)) {
    // A partitioned frame occupies wire time on the sender's segment but
    // never crosses the cut; it counts as dropped *and* blocked.
    ++*m_dropped_;
    ++*m_blocked_;
    return;
  }
  if (duplicate) ++*m_dup_;
  const sim::TimePoint arrival = medium_free_at_ + cost_.eth_propagation;
  const int copies = duplicate ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    sim_.schedule(arrival - sim_.now(), [this, frame] { deliver(frame); });
  }
}

namespace {
std::uint64_t pairKey(NodeId a, NodeId b) noexcept {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}
}  // namespace

void Ethernet::partition(NodeId a, NodeId b) {
  if (a == b) return;
  blocked_pairs_.insert(pairKey(a, b));
}

void Ethernet::heal(NodeId a, NodeId b) { blocked_pairs_.erase(pairKey(a, b)); }

void Ethernet::partitionGroups(const std::vector<NodeId>& group_a,
                               const std::vector<NodeId>& group_b) {
  for (NodeId a : group_a) {
    for (NodeId b : group_b) partition(a, b);
  }
}

void Ethernet::healGroups(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b) {
  for (NodeId a : group_a) {
    for (NodeId b : group_b) heal(a, b);
  }
}

void Ethernet::healAll() { blocked_pairs_.clear(); }

bool Ethernet::partitioned(NodeId a, NodeId b) const noexcept {
  if (a == b) return false;
  return blocked_pairs_.count(pairKey(a, b)) != 0;
}

void Ethernet::deliver(const Frame& frame) {
  if (frame.dst == kBroadcast) {
    // One frame on the shared wire, heard by every other interface. A
    // partition suppresses reception per receiver: the frame crossed the
    // sender's segment (already accounted on-wire) but not the cut, so each
    // suppressed copy counts as blocked *and* dropped, like the unicast case.
    for (auto& nic : nics_) {
      if (nic->address() == frame.src) continue;
      if (partitioned(frame.src, nic->address())) {
        ++*m_dropped_;
        ++*m_blocked_;
        continue;
      }
      nic->enqueueReceived(frame);
    }
    return;
  }
  Nic* dst = find(frame.dst);
  if (dst == nullptr) {
    ++*m_dropped_;
    return;
  }
  dst->enqueueReceived(frame);
}

}  // namespace clouds::net
