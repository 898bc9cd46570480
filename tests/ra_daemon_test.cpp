// ra::Daemon — the periodic kernel daemon behind the load gossip and the
// migration daemon: daemon-event ticks, killed with its node, respawned on
// restart at its own first delay, and deaf to ticks armed before a crash.
#include <gtest/gtest.h>

#include <vector>

#include "net/ethernet.hpp"
#include "ra/daemon.hpp"
#include "ra/node.hpp"

namespace clouds::ra {
namespace {

struct OneNode {
  sim::Simulation sim{7};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  Node node{sim, cost, ether, 1, "cpu0", static_cast<int>(NodeRole::compute)};
  std::vector<sim::TimePoint> ticks;

  // First tick 10 ms after (re)spawn, then every 100 ms.
  Daemon daemon{node, "probe", sim::msec(10), [this](sim::Process&) {
                  ticks.push_back(sim.now());
                  return sim::msec(100);
                }};

  // Unwind the loop while the daemon and node it runs in still exist.
  ~OneNode() { sim.shutdownProcesses(); }
};

TEST(Daemon, TicksAtFirstDelayThenAtReturnedDelays) {
  OneNode m;
  m.sim.runFor(sim::msec(250));
  EXPECT_EQ(m.ticks, (std::vector<sim::TimePoint>{sim::msec(10), sim::msec(110),
                                                  sim::msec(210)}));
}

TEST(Daemon, DoesNotKeepAnUnboundedRunAlive) {
  OneNode m;
  m.sim.run();  // only the daemon's tick is queued once its loop has armed it
  EXPECT_TRUE(m.ticks.empty());
  EXPECT_EQ(m.sim.now(), sim::kZero);
}

TEST(Daemon, CrashStopsTheTicks) {
  OneNode m;
  m.sim.schedule(sim::msec(50), [&] { m.node.crash(); });
  m.sim.runFor(sim::msec(500));
  EXPECT_EQ(m.ticks, std::vector<sim::TimePoint>{sim::msec(10)});
}

// Crash at 50 ms and restart at 60 ms, inside the 100 ms interval: the tick
// armed for 110 ms by the dead loop must not wake the restarted loop, which
// runs at its own phase (60 + 10 ms, then every 100 ms).
TEST(Daemon, RestartWithinOneIntervalResumesAtItsOwnPhase) {
  OneNode m;
  m.sim.schedule(sim::msec(50), [&] { m.node.crash(); });
  m.sim.schedule(sim::msec(60), [&] { m.node.restart(); });
  m.sim.runFor(sim::msec(300));
  EXPECT_EQ(m.ticks, (std::vector<sim::TimePoint>{sim::msec(10), sim::msec(70),
                                                  sim::msec(170), sim::msec(270)}));
}

}  // namespace
}  // namespace clouds::ra
