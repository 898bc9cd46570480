#include "net/ratp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct RatpFixture {
  sim::Simulation sim{42};
  sim::CostModel cost;
  Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  Nic& nicA{ether.attach(1, cpuA, "client")};
  Nic& nicB{ether.attach(2, cpuB, "server")};
  RatpEndpoint client{nicA, "client"};
  RatpEndpoint server{nicB, "server"};

  void bindEcho() {
    server.bindService(kPortEcho,
                       [](sim::Process&, NodeId, const Bytes& req) { return req; });
  }
};

TEST(Ratp, SmallTransactionRoundTrip) {
  RatpFixture f;
  f.bindEcho();
  Bytes reply;
  f.sim.spawn("caller", [&](sim::Process& self) {
    auto r = f.client.transact(self, 2, kPortEcho, toBytes("ping"));
    ASSERT_TRUE(r.ok());
    reply = std::move(r).value();
  });
  f.sim.run();
  EXPECT_EQ(toString(reply), "ping");
  EXPECT_EQ(f.sim.metrics().counterValue("client/ratp/retransmits"), 0u);
}

TEST(Ratp, RoundTripMatchesPaperRatpNumber) {
  // Paper §4.3: "The RaTP reliable round-trip time is 4.8 ms" (72-byte
  // message). Warm up the worker pool first (the paper's steady state).
  RatpFixture f;
  f.bindEcho();
  double rtt_ms = 0;
  f.sim.spawn("caller", [&](sim::Process& self) {
    (void)f.client.transact(self, 2, kPortEcho, Bytes(72));
    const auto start = f.sim.now();
    auto r = f.client.transact(self, 2, kPortEcho, Bytes(72));
    ASSERT_TRUE(r.ok());
    rtt_ms = sim::toMillis(f.sim.now() - start);
  });
  f.sim.run();
  EXPECT_NEAR(rtt_ms, 4.8, 0.7);
}

TEST(Ratp, LargeMessageIsFragmentedAndReassembled) {
  RatpFixture f;
  f.bindEcho();
  Bytes big(8192);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::byte>(i * 31);
  Bytes reply;
  f.sim.spawn("caller", [&](sim::Process& self) {
    auto r = f.client.transact(self, 2, kPortEcho, big);
    ASSERT_TRUE(r.ok());
    reply = std::move(r).value();
  });
  f.sim.run();
  EXPECT_EQ(reply, big);
  // 8 KiB needs 6 fragments.
  EXPECT_GT(f.sim.metrics().counterValue("client/ratp/fragments_sent"), 5u);
}

TEST(Ratp, PageTransferMatchesPaperNumber) {
  // Paper §4.3: "To reliably transfer an 8K page from one machine to
  // another costs 11.9 ms".
  RatpFixture f;
  f.server.bindService(kPortStorage,
                       [](sim::Process&, NodeId, const Bytes&) { return Bytes(8192); });
  double elapsed_ms = 0;
  f.sim.spawn("caller", [&](sim::Process& self) {
    (void)f.client.transact(self, 2, kPortStorage, Bytes(16));  // warm worker pool
    const auto start = f.sim.now();
    auto r = f.client.transact(self, 2, kPortStorage, Bytes(16));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), 8192u);
    elapsed_ms = sim::toMillis(f.sim.now() - start);
  });
  f.sim.run();
  EXPECT_NEAR(elapsed_ms, 11.9, 1.5);
}

TEST(Ratp, RetransmitsThroughFrameLoss) {
  RatpFixture f;
  f.bindEcho();
  f.ether.dropNextFrames(1);  // lose the first request fragment
  bool ok = false;
  f.sim.spawn("caller", [&](sim::Process& self) {
    auto r = f.client.transact(self, 2, kPortEcho, toBytes("lossy"));
    ok = r.ok() && toString(r.value()) == "lossy";
  });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(f.sim.metrics().counterValue("client/ratp/retransmits"), 1u);
}

TEST(Ratp, HandlerRunsAtMostOncePerTransaction) {
  // Lose the reply: the retransmitted request must be answered from the
  // server's reply cache, never re-executed by the handler.
  RatpFixture f;
  int executions = 0;
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });
  f.sim.spawn("caller", [&](sim::Process& self) {
    (void)f.client.transact(self, 2, kPortEcho, toBytes("warm"));
    executions = 0;
    // Let the request through, then drop the next frame on the wire — the
    // server's reply — which forces a client retransmission.
    f.sim.schedule(sim::msec(2), [&] { f.ether.dropNextFrames(1); });
    auto r = f.client.transact(self, 2, kPortEcho, toBytes("b"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(toString(r.value()), "b");
    EXPECT_EQ(executions, 1);
    EXPECT_GE(f.sim.metrics().counterValue("server/ratp/reply_cache_hits"), 1u);
  });
  f.sim.run();
}

TEST(Ratp, TimesOutWhenServerDown) {
  RatpFixture f;
  f.bindEcho();
  f.nicB.setUp(false);
  Errc code = Errc::ok;
  f.sim.spawn("caller", [&](sim::Process& self) {
    RatpOptions opts;
    opts.timeout = sim::msec(20);
    opts.max_retries = 2;
    auto r = f.client.transact(self, 2, kPortEcho, toBytes("x"), opts);
    code = r.code();
  });
  f.sim.run();
  EXPECT_EQ(code, Errc::timeout);
}

TEST(Ratp, ConcurrentTransactionsAreDemultiplexed) {
  RatpFixture f;
  f.server.bindService(kPortEcho, [](sim::Process& self, NodeId, const Bytes& req) {
    // Stagger handler latencies so replies interleave across transactions.
    Decoder d(req);
    const auto n = d.u32().value();
    self.delay(sim::msec(static_cast<int>(10 - n)));
    Encoder e;
    e.u32(n * 100);
    return std::move(e).take();
  });
  std::vector<std::uint32_t> results(4, 0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    f.sim.spawn("caller" + std::to_string(i), [&, i](sim::Process& self) {
      Encoder e;
      e.u32(i);
      auto r = f.client.transact(self, 2, kPortEcho, std::move(e).take());
      ASSERT_TRUE(r.ok());
      Decoder d(r.value());
      results[i] = d.u32().value();
    });
  }
  f.sim.run();
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(results[i], i * 100);
}

TEST(Ratp, UnboundPortTimesOut) {
  RatpFixture f;
  Errc code = Errc::ok;
  f.sim.spawn("caller", [&](sim::Process& self) {
    RatpOptions opts;
    opts.timeout = sim::msec(10);
    opts.max_retries = 1;
    auto r = f.client.transact(self, 2, 999, toBytes("x"), opts);
    code = r.code();
  });
  f.sim.run();
  EXPECT_EQ(code, Errc::timeout);
}

// Property sweep: exactly-once transaction semantics under random loss and
// duplication. For every loss rate below 1, every transaction eventually
// completes, each handler execution happens at most once per transaction,
// and payloads survive intact.
class RatpLossSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RatpLossSweep, ExactlyOnceUnderLossAndDuplication) {
  const auto [drop, dup] = GetParam();
  sim::Simulation sim(1234);
  sim::CostModel cost;
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  Nic& na = ether.attach(1, ca, "a");
  Nic& nb = ether.attach(2, cb, "b");
  RatpEndpoint client(na, "client");
  RatpEndpoint server(nb, "server");
  ether.setDropRate(drop);
  ether.setDuplicateRate(dup);

  int executions = 0;
  server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });

  constexpr int kCalls = 12;
  int completed = 0;
  sim.spawn("caller", [&](sim::Process& self) {
    for (int i = 0; i < kCalls; ++i) {
      Bytes payload(static_cast<std::size_t>(100 + i * 700));
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::byte>(i + j);
      }
      RatpOptions opts;
      opts.max_retries = 60;  // generous budget for high loss rates
      auto r = client.transact(self, 2, kPortEcho, payload, opts);
      ASSERT_TRUE(r.ok()) << "call " << i << " with drop=" << drop;
      ASSERT_EQ(r.value(), payload);
      ++completed;
    }
  });
  sim.run();
  EXPECT_EQ(completed, kCalls);
  EXPECT_EQ(executions, kCalls);  // at-most-once, and every call executed
}

INSTANTIATE_TEST_SUITE_P(LossMatrix, RatpLossSweep,
                         ::testing::Values(std::make_tuple(0.0, 0.0),
                                           std::make_tuple(0.1, 0.0),
                                           std::make_tuple(0.3, 0.0),
                                           std::make_tuple(0.0, 0.3),
                                           std::make_tuple(0.2, 0.2),
                                           std::make_tuple(0.45, 0.1)));

}  // namespace
}  // namespace clouds::net
