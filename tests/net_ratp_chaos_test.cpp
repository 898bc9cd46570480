// Chaos sweep for RaTP under seeded random frame loss and duplication.
//
// Invariants under any drop/dup rate:
//  * every transaction either completes with the correct echo payload or
//    fails with Errc::timeout once the retry budget is exhausted — no hangs,
//    no corrupted replies, no other error codes;
//  * the registry's protocol counters account for every transaction
//    (started = completed + timed out, one latency sample per completion);
//  * the whole run — including its metrics snapshot — is a pure function of
//    the simulation seed.
// Registered with the `chaos` CTest label.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "net/ratp.hpp"
#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct ChaosRun {
  int completed = 0;
  int timed_out = 0;
  std::string metrics_json;
};

// Run kCalls echo transactions through a lossy medium and cross-check the
// registry against the caller's own tally before returning.
ChaosRun runChaos(std::uint64_t seed, double drop, double dup) {
  sim::Simulation sim(seed);
  sim::CostModel cost;
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  Nic& na = ether.attach(1, ca, "client");
  Nic& nb = ether.attach(2, cb, "server");
  RatpEndpoint client(na, "client");
  RatpEndpoint server(nb, "server");
  ether.setDropRate(drop);
  ether.setDuplicateRate(dup);
  server.bindService(kPortEcho,
                     [](sim::Process&, NodeId, const Bytes& req) { return req; });

  constexpr int kCalls = 16;
  ChaosRun out;
  sim.spawn("chaos-caller", [&](sim::Process& self) {
    for (int i = 0; i < kCalls; ++i) {
      // Size sweep crosses the fragmentation threshold several times.
      Bytes payload(static_cast<std::size_t>(40 + i * 450));
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::byte>(j * 13 + static_cast<std::size_t>(i));
      }
      auto r = client.transact(self, 2, kPortEcho, payload);
      if (r.ok()) {
        ASSERT_EQ(r.value(), payload) << "corrupted echo, call " << i;
        ++out.completed;
      } else {
        // The only legal failure is a timeout after the full retry budget.
        ASSERT_EQ(r.code(), Errc::timeout) << "call " << i;
        ++out.timed_out;
      }
    }
  });
  sim.run();

  const sim::MetricsRegistry& m = sim.metrics();
  EXPECT_EQ(out.completed + out.timed_out, kCalls);

  EXPECT_EQ(m.counterValue("client/ratp/transactions"), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(m.counterValue("client/ratp/completed"), static_cast<std::uint64_t>(out.completed));
  EXPECT_EQ(m.counterValue("client/ratp/timeouts"), static_cast<std::uint64_t>(out.timed_out));

  // Completed transactions each record one latency sample.
  const sim::Histogram* lat = m.findHistogram("client/ratp/txn_latency_usec");
  EXPECT_NE(lat, nullptr);
  if (lat != nullptr) {
    EXPECT_EQ(lat->count(), static_cast<std::uint64_t>(out.completed));
  }

  if (drop == 0.0) {
    EXPECT_EQ(m.counterValue("net/eth/frames_dropped"), 0u);
    EXPECT_EQ(out.timed_out, 0);
    EXPECT_EQ(m.counterValue("client/ratp/retransmits"), 0u);
  } else {
    // A lossy wire must actually have lost frames for the sweep to mean
    // anything, and every loss-triggered retransmission is visible.
    EXPECT_GT(m.counterValue("net/eth/frames_dropped"), 0u);
    EXPECT_GT(m.counterValue("client/ratp/retransmits"), 0u);
  }

  out.metrics_json = m.toJson();
  return out;
}

class RatpChaosSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RatpChaosSweep, CompletesOrTimesOutAndMetricsBalance) {
  const auto [drop, dup] = GetParam();
  const ChaosRun a = runChaos(0xC10DD5, drop, dup);
  // Same seed, same rates: byte-identical metrics snapshot.
  const ChaosRun b = runChaos(0xC10DD5, drop, dup);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
}

INSTANTIATE_TEST_SUITE_P(DropDupMatrix, RatpChaosSweep,
                         ::testing::Values(std::make_tuple(0.0, 0.0),
                                           std::make_tuple(0.05, 0.0),
                                           std::make_tuple(0.2, 0.0),
                                           std::make_tuple(0.0, 0.05),
                                           std::make_tuple(0.05, 0.05),
                                           std::make_tuple(0.2, 0.2)));

TEST(RatpChaos, UnreachableNodeSpendsExactRetryBudget) {
  // A destination that does not exist: every frame is dropped by the medium
  // (no such NIC), so the transaction must burn the whole retry budget and
  // surface Errc::timeout, with every retransmission visible in metrics.
  sim::Simulation sim(99);
  sim::CostModel cost;
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch);
  Nic& na = ether.attach(1, ca, "client");
  RatpEndpoint client(na, "client");

  constexpr int kRetries = 3;
  Errc code = Errc::ok;
  sim.spawn("caller", [&](sim::Process& self) {
    RatpOptions opts;
    opts.timeout = sim::msec(15);
    opts.max_retries = kRetries;
    auto r = client.transact(self, 77, kPortEcho, toBytes("void"), opts);
    code = r.ok() ? Errc::ok : r.code();
  });
  sim.run();

  EXPECT_EQ(code, Errc::timeout);
  const sim::MetricsRegistry& m = sim.metrics();
  const auto expected = static_cast<std::uint64_t>(kRetries);
  EXPECT_EQ(m.counterValue("client/ratp/retransmits"), expected);
  EXPECT_EQ(m.counterValue("client/ratp/timeouts"), 1u);
  EXPECT_EQ(m.counterValue("client/ratp/completed"), 0u);
  // Every frame sent at a nonexistent destination is dropped by the medium.
  EXPECT_EQ(m.counterValue("net/eth/frames_dropped"), m.counterValue("net/eth/frames_on_wire"));
}

// One two-fragment echo with no retries and the given timeout. Reports the
// outcome, the caller's latency and the client CPU's busy time.
struct DeadlineRun {
  Errc code = Errc::ok;
  sim::Duration latency = sim::kZero;
  std::uint64_t client_busy_usec = 0;
};

DeadlineRun runAgainstDeadline(sim::Duration timeout) {
  sim::Simulation sim(7);
  sim::CostModel cost;
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  ca.attachMetrics(sim.metrics(), "client");
  Nic& na = ether.attach(1, ca, "client");
  Nic& nb = ether.attach(2, cb, "server");
  RatpEndpoint client(na, "client");
  RatpEndpoint server(nb, "server");
  server.bindService(kPortEcho,
                     [](sim::Process&, NodeId, const Bytes& req) { return req; });
  DeadlineRun out;
  sim.spawn("caller", [&](sim::Process& self) {
    RatpOptions opts;
    opts.timeout = timeout;
    opts.max_retries = 0;
    const sim::TimePoint t0 = sim.now();
    auto r = client.transact(self, 2, kPortEcho, Bytes(2000), opts);
    out.code = r.ok() ? Errc::ok : r.code();
    out.latency = sim.now() - t0;
  });
  sim.run();
  out.client_busy_usec = sim.metrics().counterValue("client/cpu/busy_usec");
  return out;
}

TEST(RatpChaos, ReplyReassemblyStraddlingTheFinalDeadline) {
  // The client's last reply fragment arrives, and its reassembly is charged
  // to the client CPU. If the waiter's final deadline fires during that
  // charge, transact() returns timeout and erases its pending entry; the
  // receive path must then drop the reply instead of writing into the freed
  // entry (a heap-use-after-free under ASan before the fix). Sweep the
  // timeout across the completion time so some runs land in that window:
  // they time out yet spend exactly the CPU of a completed run.
  const DeadlineRun probe = runAgainstDeadline(sim::sec(1));
  ASSERT_EQ(probe.code, Errc::ok);
  int straddled = 0;
  for (sim::Duration t = probe.latency - sim::msec(4); t <= probe.latency; t += sim::usec(20)) {
    const DeadlineRun r = runAgainstDeadline(t);
    ASSERT_TRUE(r.code == Errc::ok || r.code == Errc::timeout) << "timeout " << t.count();
    if (r.code == Errc::timeout && r.client_busy_usec == probe.client_busy_usec) ++straddled;
  }
  EXPECT_GT(straddled, 0);
}

}  // namespace
}  // namespace clouds::net
