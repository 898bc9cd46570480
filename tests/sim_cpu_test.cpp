#include "sim/cpu.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/cost_model.hpp"
#include "sim/simulation.hpp"

namespace clouds::sim {
namespace {

TEST(Cpu, SingleProcessPaysOneSwitch) {
  Simulation sim;
  CpuResource cpu(usec(140));
  cpu.attachMetrics(sim.metrics(), "n");
  sim.spawn("p", [&](Process& self) {
    cpu.compute(self, msec(1));
    cpu.compute(self, msec(1));  // same owner: no second switch
  });
  sim.run();
  EXPECT_EQ(sim.metrics().counterValue("n/cpu/context_switches"), 1u);
  EXPECT_EQ(sim.now(), msec(2) + usec(140));
}

TEST(Cpu, PingPongChargesSwitchEachAlternation) {
  // This is the structure of the paper's 0.14 ms context-switch figure:
  // two IsiBas alternating on one processor.
  Simulation sim;
  CpuResource cpu(usec(140));
  cpu.attachMetrics(sim.metrics(), "n");
  constexpr int kRounds = 10;
  SimSemaphore ping(1);
  SimSemaphore pong(0);
  sim.spawn("a", [&](Process& self) {
    for (int i = 0; i < kRounds; ++i) {
      ping.acquire(self);
      cpu.compute(self, kZero);
      pong.release();
    }
  });
  sim.spawn("b", [&](Process& self) {
    for (int i = 0; i < kRounds; ++i) {
      pong.acquire(self);
      cpu.compute(self, kZero);
      ping.release();
    }
  });
  sim.run();
  EXPECT_EQ(sim.metrics().counterValue("n/cpu/context_switches"), 2u * kRounds);
  EXPECT_EQ(sim.now(), usec(140) * (2 * kRounds));
}

TEST(Cpu, ContentionSerializes) {
  Simulation sim;
  CpuResource cpu(kZero);
  cpu.attachMetrics(sim.metrics(), "n");
  for (int i = 0; i < 3; ++i) {
    sim.spawn("p" + std::to_string(i), [&](Process& self) { cpu.compute(self, msec(10)); });
  }
  sim.run();
  EXPECT_EQ(sim.now(), msec(30));
  EXPECT_EQ(sim.metrics().counterValue("n/cpu/busy_usec"), 30000u);
}

TEST(CostModel, EthernetWireTime) {
  CostModel cm;
  // 72 payload bytes + 18 header bytes = 90 bytes = 720 bits at 10 Mbit/s = 72 us.
  EXPECT_EQ(cm.ethTxTime(72), usec(72));
  // Full MTU frame: (1500+18)*8/10e6 s = 1214.4 us.
  EXPECT_NEAR(toMicros(cm.ethTxTime(1500)), 1214.4, 0.1);
}

}  // namespace
}  // namespace clouds::sim
