// RaTP edge cases: reply-cache TTL, crash recovery of the endpoint,
// fragment-boundary payload sizes, malformed frames, worker-pool reuse.
#include <gtest/gtest.h>

#include "net/ratp.hpp"
#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct EdgeFixture {
  sim::Simulation sim{42};
  sim::CostModel cost;
  Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  Nic& nicA{ether.attach(1, cpuA, "client")};
  Nic& nicB{ether.attach(2, cpuB, "server")};
  RatpEndpoint client{nicA, "client"};
  RatpEndpoint server{nicB, "server"};
};

TEST(RatpEdge, PayloadsAtFragmentBoundaries) {
  EdgeFixture f;
  f.server.bindService(kPortEcho, [](sim::Process&, NodeId, const Bytes& req) { return req; });
  // The per-fragment capacity is MTU minus the 19-byte header minus the
  // 4-byte length prefix; probe sizes straddling multiples of it.
  const std::size_t cap = f.cost.eth_mtu - 19 - 4;
  f.sim.spawn("caller", [&](sim::Process& self) {
    for (std::size_t size :
         {std::size_t{0}, std::size_t{1}, cap - 1, cap, cap + 1, 3 * cap, 3 * cap + 7}) {
      Bytes payload(size);
      for (std::size_t i = 0; i < size; ++i) payload[i] = static_cast<std::byte>(i ^ size);
      auto r = f.client.transact(self, 2, kPortEcho, payload);
      ASSERT_TRUE(r.ok()) << "size " << size;
      EXPECT_EQ(r.value(), payload) << "size " << size;
    }
  });
  f.sim.run();
}

TEST(RatpEdge, ReplyCacheEventuallyEvicts) {
  EdgeFixture f;
  int executions = 0;
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });
  f.sim.spawn("caller", [&](sim::Process& self) {
    (void)f.client.transact(self, 2, kPortEcho, toBytes("a"));
    // Far beyond the 5 s TTL; the next transaction's arrival purges.
    self.delay(sim::sec(12));
    (void)f.client.transact(self, 2, kPortEcho, toBytes("b"));
    (void)f.client.transact(self, 2, kPortEcho, toBytes("c"));
  });
  f.sim.run();
  EXPECT_EQ(executions, 3);
}

TEST(RatpEdge, MalformedFrameIsIgnored) {
  EdgeFixture f;
  f.server.bindService(kPortEcho, [](sim::Process&, NodeId, const Bytes& req) { return req; });
  bool ok = false;
  f.sim.spawn("caller", [&](sim::Process& self) {
    // Garbage frames on the RaTP protocol id must not break the endpoint.
    f.nicA.send(self, Frame{kNoNode, 2, kProtoRatp, Bytes(3, std::byte{0xff})});
    f.nicA.send(self, Frame{kNoNode, 2, kProtoRatp, Bytes{}});
    auto r = f.client.transact(self, 2, kPortEcho, toBytes("still works"));
    ok = r.ok();
  });
  f.sim.run();
  EXPECT_TRUE(ok);
}

TEST(RatpEdge, CrashClearsServerStateAndServiceSurvives) {
  EdgeFixture f;
  int executions = 0;
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });
  f.sim.spawn("caller", [&](sim::Process& self) {
    ASSERT_TRUE(f.client.transact(self, 2, kPortEcho, toBytes("pre")).ok());
    f.nicB.crash();
    f.server.onCrash();
    RatpOptions opts;
    opts.timeout = sim::msec(20);
    opts.max_retries = 1;
    EXPECT_FALSE(f.client.transact(self, 2, kPortEcho, toBytes("down"), opts).ok());
    f.nicB.restart();
    // Binding is configuration: it survives the crash.
    EXPECT_TRUE(f.client.transact(self, 2, kPortEcho, toBytes("post")).ok());
  });
  f.sim.run();
  EXPECT_EQ(executions, 2);
}

TEST(RatpEdge, WorkerPoolIsReusedNotGrown) {
  EdgeFixture f;
  f.server.bindService(kPortEcho, [](sim::Process&, NodeId, const Bytes& req) { return req; });
  f.sim.spawn("caller", [&](sim::Process& self) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(f.client.transact(self, 2, kPortEcho, toBytes("x")).ok());
    }
  });
  f.sim.run();
  // Sequential transactions need exactly one worker process; the sim
  // process count stays bounded (2 rx processes + 1 caller + 1 worker).
  EXPECT_LE(f.sim.liveProcessCount(), 5u);
}

TEST(RatpEdge, ManyConcurrentClientsOneServer) {
  EdgeFixture f;
  sim::CpuResource cpuC{f.cost.context_switch};
  Nic& nicC = f.ether.attach(3, cpuC, "client2");
  RatpEndpoint client2(nicC, "client2");
  f.server.bindService(kPortEcho, [](sim::Process& self, NodeId, const Bytes& req) {
    self.delay(sim::msec(5));
    return req;
  });
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    f.sim.spawn("a" + std::to_string(i), [&, i](sim::Process& self) {
      Bytes payload(static_cast<std::size_t>(10 + i));
      auto r = f.client.transact(self, 2, kPortEcho, payload);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().size(), payload.size());
      ++done;
    });
    f.sim.spawn("b" + std::to_string(i), [&, i](sim::Process& self) {
      Bytes payload(static_cast<std::size_t>(2000 + i));
      auto r = client2.transact(self, 2, kPortEcho, payload);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().size(), payload.size());
      ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 8);
}


TEST(RatpEdge, ReplyOutlivesItsEvictedCacheRecord) {
  // A handler runs past the reply-cache TTL and returns a many-fragment
  // reply. Its worker then waits for the server's busy CPU inside
  // sendMessage, and meanwhile the receive process takes a second client's
  // request and the lazy TTL eviction erases the record that caches this
  // reply. The worker must send from a buffer it owns: sending from the
  // evicted record is a use-after-free (caught by the sanitized lane).
  EdgeFixture f;
  sim::CpuResource cpuC{f.cost.context_switch};
  Nic& nicC = f.ether.attach(3, cpuC, "client2");
  RatpEndpoint client2(nicC, "client2");
  constexpr PortId kSlowPort = kPortStorage;
  const std::size_t cap = f.cost.eth_mtu - 19 - 4;
  const std::size_t reply_frags = 40;
  Bytes big(reply_frags * cap - 5);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::byte>(i * 7 + i / 251);
  // The slow handler returns at `returns_at`, in the last 1 ms CPU quantum
  // of a 10 ms burst of other work on the server. The second request
  // arrives early in that burst, so the receive process queues for the CPU
  // ahead of the worker and runs the eviction first.
  const sim::TimePoint returns_at = sim::sec(6) + sim::msec(3);
  const sim::TimePoint burst_at = returns_at - sim::usec(9600);
  const sim::TimePoint second_request_at = returns_at - sim::msec(7);

  int slow_runs = 0;
  f.server.bindService(kSlowPort, [&](sim::Process& self, NodeId, const Bytes&) {
    ++slow_runs;
    self.delay(returns_at - f.sim.now());  // past the 5 s reply-cache TTL
    return big;
  });
  sim::TimePoint evicted_by = sim::kZero;
  std::uint64_t frags_sent_at_eviction = ~std::uint64_t{0};
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    // Dispatch follows the eviction pass that erased the slow record.
    evicted_by = f.sim.now();
    frags_sent_at_eviction = f.sim.metrics().counterValue("server/ratp/fragments_sent");
    return req;
  });

  bool slow_ok = false;
  f.sim.spawn("slow-caller", [&](sim::Process& self) {
    RatpOptions opts;
    opts.timeout = sim::sec(10);  // longer than the handler: no retransmit
    opts.max_retries = 0;
    auto r = f.client.transact(self, 2, kSlowPort, toBytes("go"), opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r.value(), big);
    slow_ok = true;
  });
  f.sim.spawn("server-burst", [&](sim::Process& self) {
    self.delay(burst_at - f.sim.now());
    f.cpuB.compute(self, sim::msec(10));
  });
  f.sim.spawn("evicting-caller", [&](sim::Process& self) {
    self.delay(second_request_at - f.sim.now());
    RatpOptions opts;
    opts.timeout = sim::sec(1);  // its reply queues behind the slow one
    opts.max_retries = 0;
    EXPECT_TRUE(client2.transact(self, 2, kPortEcho, toBytes("evict"), opts).ok());
  });
  f.sim.run();

  EXPECT_TRUE(slow_ok);
  EXPECT_EQ(slow_runs, 1);
  EXPECT_EQ(f.sim.metrics().sumCounters("ratp/retransmits"), 0u);
  EXPECT_EQ(f.sim.metrics().counterValue("server/ratp/reply_cache_hits"), 0u);
  // The eviction landed inside the worker's sendMessage: after the handler
  // returned and before the first reply fragment left.
  EXPECT_GT(evicted_by, returns_at);
  EXPECT_EQ(frags_sent_at_eviction, 0u);
}

}  // namespace
}  // namespace clouds::net
