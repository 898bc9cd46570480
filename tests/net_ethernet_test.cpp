#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct EtherFixture {
  sim::Simulation sim{42};
  sim::CostModel cost;
  Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  Nic& a{ether.attach(1, cpuA, "nodeA")};
  Nic& b{ether.attach(2, cpuB, "nodeB")};
};

TEST(Ethernet, DeliversFrameWithPayloadIntact) {
  EtherFixture f;
  Bytes received;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame& fr) { received = fr.payload; });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, toBytes("hello ether")});
  });
  f.sim.run();
  EXPECT_EQ(toString(received), "hello ether");
  EXPECT_EQ(f.sim.metrics().counterValue("nodeA/eth/frames_sent"), 1u);
  EXPECT_EQ(f.sim.metrics().counterValue("nodeB/eth/frames_received"), 1u);
}

TEST(Ethernet, RoundTripMatchesPaperEthernetNumber) {
  // Paper §4.3: "The Ethernet round-trip time is 2.4 ms; this involves
  // sending and receiving a short message (72 bytes) between two compute
  // servers."
  EtherFixture f;
  sim::TimePoint done = sim::kZero;
  f.b.setHandler(kProtoEcho, [&](sim::Process& self, const Frame& fr) {
    f.b.send(self, Frame{kNoNode, fr.src, kProtoEcho, fr.payload});
  });
  f.a.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { done = f.sim.now(); });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(72)});
  });
  f.sim.run();
  ASSERT_GT(done, sim::kZero);
  EXPECT_NEAR(sim::toMillis(done), 2.4, 0.25);
}

TEST(Ethernet, MediumSerializesTransmissions) {
  EtherFixture f;
  std::vector<sim::TimePoint> arrivals;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { arrivals.push_back(f.sim.now()); });
  f.sim.spawn("sender", [&](sim::Process& self) {
    // Two back-to-back MTU frames: the second must queue behind the first.
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(1500)});
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(1500)});
  });
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const auto gap = arrivals[1] - arrivals[0];
  // Sender CPU cost per frame (0.45 ms) < wire time (1.21 ms): the wire is
  // the bottleneck, so consecutive *handler* completions are a wire-time
  // apart, minus the receive-path context switch the first frame paid.
  EXPECT_GE(gap, f.cost.ethTxTime(1500) - f.cost.context_switch - sim::usec(1));
}

TEST(Ethernet, OversizedFrameRejected) {
  EtherFixture f;
  bool threw = false;
  f.sim.spawn("sender", [&](sim::Process& self) {
    try {
      f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(9000)});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  f.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Ethernet, DownNicNeitherSendsNorReceives) {
  EtherFixture f;
  int received = 0;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.b.setUp(false);
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});  // lost: dst down
    self.delay(sim::msec(10));
    f.b.setUp(true);
    f.a.setUp(false);
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});  // lost: src down
    self.delay(sim::msec(10));
    f.a.setUp(true);
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});  // delivered
  });
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Ethernet, ScriptedDropLosesExactlyNFrames) {
  EtherFixture f;
  int received = 0;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
  f.ether.dropNextFrames(2);
  f.sim.spawn("sender", [&](sim::Process& self) {
    for (int i = 0; i < 5; ++i) f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});
  });
  f.sim.run();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(f.sim.metrics().counterValue("net/eth/frames_dropped"), 2u);
}

TEST(Ethernet, RandomDropRateIsSeedDeterministic) {
  auto countDelivered = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    sim::CostModel cost;
    Ethernet ether(sim, cost);
    sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
    Nic& a = ether.attach(1, ca, "a");
    Nic& b = ether.attach(2, cb, "b");
    ether.setDropRate(0.3);
    int received = 0;
    b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
    sim.spawn("sender", [&](sim::Process& self) {
      for (int i = 0; i < 50; ++i) a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(8)});
    });
    sim.run();
    return received;
  };
  const int r1 = countDelivered(7);
  EXPECT_EQ(r1, countDelivered(7));
  EXPECT_GT(r1, 20);  // ~70% of 50
  EXPECT_LT(r1, 50);  // some loss occurred
}

TEST(Ethernet, DuplicationDeliversTwice) {
  EtherFixture f;
  int received = 0;
  f.ether.setDuplicateRate(1.0);
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(8)});
  });
  f.sim.run();
  EXPECT_EQ(received, 2);
}

}  // namespace
}  // namespace clouds::net
