// A periodic kernel daemon: one IsiBa that sleeps `first_delay`, runs
// `tick`, and then sleeps for whatever `tick` returned, for as long as its
// node is up.
//
// The sleeps are daemon events (sim::Simulation::scheduleDaemon), so a
// periodic daemon never keeps a "drain the cluster" run() alive. The loop
// dies with its node (it is an IsiBa) and is respawned, at its own first
// delay, by a restart hook. A tick armed before a crash carries the crash
// epoch it was armed in and is dropped if the node has crashed since, so it
// never wakes the restarted loop out of phase.
//
// Users: the scheduler's load gossip (sched::GossipAgent) and the
// migration daemon (migrate::Migrator).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ra/node.hpp"

namespace clouds::ra {

class Daemon {
 public:
  // Runs in the daemon's IsiBa; returns the delay until the next tick.
  using Tick = std::function<sim::Duration(sim::Process& self)>;

  // Registers the crash and restart hooks and spawns the first loop.
  Daemon(Node& node, std::string name, sim::Duration first_delay, Tick tick);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  void start();
  void arm(sim::Duration delay);

  Node& node_;
  std::string name_;
  sim::Duration first_delay_;
  Tick tick_;
  sim::Process* loop_ = nullptr;
  std::uint64_t epoch_ = 0;  // bumped on crash: stale ticks must not wake a new loop
};

}  // namespace clouds::ra
