// GossipAgent — the load dissemination protocol.
//
// Every compute server runs a gossip loop (an IsiBa): on each tick it
// samples its LoadMonitor and broadcasts one LoadReport frame on the shared
// Ethernet (protocol net::kProtoSched). Every participating node — compute
// server, data server or workstation — binds a receive handler that folds
// arriving reports into its local LoadTable. Load knowledge therefore only
// moves as messages: a partitioned or crashed server simply stops being
// heard, its entries age out, and schedulers degrade to their stale view.
//
// The tick itself is a *daemon* event (sim::Simulation::scheduleDaemon), so
// periodic gossip does not keep "drain the cluster" run() loops alive. The
// loop process dies with the node (it is an IsiBa); a restart hook respawns
// it, and the crash hook clears the volatile LoadTable.
#pragma once

#include <cstdint>

#include "ra/node.hpp"
#include "sched/load_table.hpp"
#include "sched/monitor.hpp"

namespace clouds::sched {

class GossipAgent {
 public:
  struct Options {
    bool enabled = true;
    sim::Duration interval = sim::msec(50);
    sim::Duration phase = sim::kZero;  // first-tick offset (de-synchronizes senders)
  };

  // `monitor` == nullptr makes this a pure listener (receives reports but
  // never broadcasts): workstations and data servers observe, compute
  // servers participate.
  GossipAgent(ra::Node& node, LoadTable& table, LoadMonitor* monitor, Options options);

 private:
  void start();
  void loop(sim::Process& self);
  void armTick(sim::Duration delay);
  void broadcast(sim::Process& self);
  void onFrame(const net::Frame& frame);

  ra::Node& node_;
  LoadTable& table_;
  LoadMonitor* monitor_;
  Options options_;
  sim::Process* loop_ = nullptr;
  std::uint64_t epoch_ = 0;  // bumped on crash: stale ticks must not wake a new loop
  std::uint64_t seq_ = 0;    // monotone across restarts
  std::uint64_t* m_sent_;
  std::uint64_t* m_received_;
};

}  // namespace clouds::sched
