#include "ra/daemon.hpp"

namespace clouds::ra {

Daemon::Daemon(Node& node, std::string name, sim::Duration first_delay, Tick tick)
    : node_(node), name_(std::move(name)), first_delay_(first_delay), tick_(std::move(tick)) {
  node_.onCrashHook([this] {
    // The node layer kills the loop IsiBa; drop our reference and
    // invalidate any tick already in flight.
    loop_ = nullptr;
    ++epoch_;
  });
  node_.onRestartHook([this] { start(); });
  start();
}

void Daemon::start() {
  loop_ = &node_.spawnIsiBa(name_, [this](sim::Process& self) {
    arm(first_delay_);
    for (;;) {
      self.block();  // woken by the daemon tick
      arm(tick_(self));
    }
  });
}

void Daemon::arm(sim::Duration delay) {
  node_.simulation().scheduleDaemon(delay, [this, epoch = epoch_] {
    // One loop per epoch: a tick armed before a crash must not wake the
    // post-restart loop.
    if (epoch == epoch_) loop_->wake();
  });
}

}  // namespace clouds::ra
