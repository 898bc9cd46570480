#include "sched/gossip.hpp"

namespace clouds::sched {

GossipAgent::GossipAgent(ra::Node& node, LoadTable& table, LoadMonitor* monitor,
                         Options options)
    : node_(node), table_(table), monitor_(monitor), options_(options) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_sent_ = &metrics.counter(node_.name() + "/sched/reports_sent");
  m_received_ = &metrics.counter(node_.name() + "/sched/reports_received");
  node_.nic().setHandler(net::kProtoSched,
                         [this](sim::Process&, const net::Frame& f) { onFrame(f); });
  node_.onCrashHook([this] {
    // The node layer kills the loop IsiBa; drop our reference and invalidate
    // any tick already in flight. Load knowledge is volatile kernel state.
    loop_ = nullptr;
    ++epoch_;
    table_.clear();
    if (monitor_ != nullptr) monitor_->reset();
  });
  node_.onRestartHook([this] { start(); });
  start();
}

void GossipAgent::start() {
  if (!options_.enabled || monitor_ == nullptr) return;  // listeners never tick
  loop_ = &node_.spawnIsiBa("sched.gossip", [this](sim::Process& self) { loop(self); });
}

void GossipAgent::loop(sim::Process& self) {
  armTick(options_.phase > sim::kZero ? options_.phase : options_.interval);
  for (;;) {
    self.block();  // woken by the daemon tick
    broadcast(self);
    table_.evictSilent(node_.simulation().now());
    armTick(options_.interval);
  }
}

void GossipAgent::armTick(sim::Duration delay) {
  const std::uint64_t epoch = epoch_;
  sim::Process* loop = loop_;
  node_.simulation().scheduleDaemon(delay, [this, epoch, loop] {
    // A tick armed before a crash must not wake the post-restart loop.
    if (epoch == epoch_ && loop != nullptr && loop == loop_) loop->wake();
  });
}

void GossipAgent::broadcast(sim::Process& self) {
  const LoadReport report = monitor_->sample(++seq_);
  // Our own broadcast is also our freshest local knowledge.
  table_.record(report, node_.simulation().now(), /*self=*/true);
  net::Frame frame;
  frame.dst = net::kBroadcast;
  frame.protocol = net::kProtoSched;
  frame.payload = report.encode();
  node_.nic().send(self, std::move(frame));
  ++*m_sent_;
  node_.simulation().trace(node_.name(), "sched",
                           "gossip seq " + std::to_string(report.seq) + " threads " +
                               std::to_string(report.threads));
}

void GossipAgent::onFrame(const net::Frame& frame) {
  auto report = LoadReport::decode(frame.payload);
  if (!report.ok()) {
    node_.simulation().trace(node_.name(), "sched",
                             "malformed load report from node " + std::to_string(frame.src));
    return;
  }
  if (report.value().node == node_.id()) return;  // defensive: never happens on-wire
  table_.record(report.value(), node_.simulation().now(), /*self=*/false);
  ++*m_received_;
}

}  // namespace clouds::sched
