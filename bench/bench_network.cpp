// E2 — "Networking" (paper §4.3).
//
//   "The Ethernet round-trip time is 2.4 ms; this involves sending and
//    receiving a short message (72 bytes) between two compute servers. The
//    RaTP reliable round-trip time is 4.8 ms. To reliably transfer an 8K
//    page from one machine to another costs 11.9 ms, compared to 70 ms
//    using Unix FTP and 50 ms using Unix NFS."
//
// Five rows, one benchmark each, all on the same simulated wire.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "net/comparators.hpp"
#include "net/ratp.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"

namespace {

using namespace clouds;

struct TwoNodes {
  sim::Simulation sim{42};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  net::Nic& nicA{ether.attach(1, cpuA, "a")};
  net::Nic& nicB{ether.attach(2, cpuB, "b")};
};

void BM_EthernetRoundTrip72B(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    TwoNodes m;
    sim::TimePoint done = sim::kZero;
    m.nicB.setHandler(net::kProtoEcho, [&](sim::Process& self, const net::Frame& f) {
      m.nicB.send(self, net::Frame{net::kNoNode, f.src, net::kProtoEcho, f.payload});
    });
    m.nicA.setHandler(net::kProtoEcho,
                      [&](sim::Process&, const net::Frame&) { done = m.sim.now(); });
    m.sim.spawn("sender", [&](sim::Process& self) {
      m.nicA.send(self, net::Frame{net::kNoNode, 2, net::kProtoEcho, Bytes(72)});
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_EthernetRoundTrip72B", m.sim);
    bench::report(state, bench::ms(done), 2.4);
  }
}
BENCHMARK(BM_EthernetRoundTrip72B)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_RatpReliableRoundTrip(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    TwoNodes m;
    net::RatpEndpoint client(m.nicA, "client");
    net::RatpEndpoint server(m.nicB, "server");
    server.bindService(net::kPortEcho,
                       [](sim::Process&, net::NodeId, const Bytes& req) { return req; });
    double rtt = 0;
    m.sim.spawn("caller", [&](sim::Process& self) {
      (void)client.transact(self, 2, net::kPortEcho, Bytes(72));  // warm worker pool
      const auto t0 = m.sim.now();
      (void)client.transact(self, 2, net::kPortEcho, Bytes(72));
      rtt = bench::ms(m.sim.now() - t0);
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_RatpReliableRoundTrip", m.sim);
    bench::report(state, rtt, 4.8);
  }
}
BENCHMARK(BM_RatpReliableRoundTrip)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_PageTransfer8K_RaTP(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    TwoNodes m;
    net::RatpEndpoint client(m.nicA, "client");
    net::RatpEndpoint server(m.nicB, "server");
    server.bindService(net::kPortStorage,
                       [](sim::Process&, net::NodeId, const Bytes&) { return Bytes(8192); });
    double elapsed = 0;
    m.sim.spawn("caller", [&](sim::Process& self) {
      (void)client.transact(self, 2, net::kPortStorage, Bytes(16));
      const auto t0 = m.sim.now();
      (void)client.transact(self, 2, net::kPortStorage, Bytes(16));
      elapsed = bench::ms(m.sim.now() - t0);
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_PageTransfer8K_RaTP", m.sim);
    bench::report(state, elapsed, 11.9);
  }
}
BENCHMARK(BM_PageTransfer8K_RaTP)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

net::FileReader patternReader() {
  return [](std::uint64_t, std::uint64_t, std::uint32_t length) { return Bytes(length); };
}

void BM_PageTransfer8K_NFS(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    TwoNodes m;
    net::NfsSim client(m.nicA, "client");
    net::NfsSim server(m.nicB, "server");
    server.serveFiles(patternReader());
    double elapsed = 0;
    m.sim.spawn("caller", [&](sim::Process& self) {
      const auto t0 = m.sim.now();
      (void)client.read(self, 2, 1, 0, 8192);
      elapsed = bench::ms(m.sim.now() - t0);
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_PageTransfer8K_NFS", m.sim);
    bench::report(state, elapsed, 50.0);
  }
}
BENCHMARK(BM_PageTransfer8K_NFS)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_PageTransfer8K_FTP(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    TwoNodes m;
    net::FtpSim client(m.nicA, "client");
    net::FtpSim server(m.nicB, "server");
    server.serveFiles(patternReader());
    double elapsed = 0;
    m.sim.spawn("caller", [&](sim::Process& self) {
      const auto t0 = m.sim.now();
      (void)client.retrieve(self, 2, 1, 8192);
      elapsed = bench::ms(m.sim.now() - t0);
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_PageTransfer8K_FTP", m.sim);
    bench::report(state, elapsed, 70.0);
  }
}
BENCHMARK(BM_PageTransfer8K_FTP)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

// Chaos sweep: throughput of a stream of RaTP transactions while the server
// crashes at 30 ms and reboots 60 ms later (scripted FaultPlan). Counters
// report the completed/failed split; transactions in the outage window
// either ride retransmits across the reboot or burn their retry budget.
void BM_RatpCrashRebootRecovery(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    TwoNodes m;
    net::RatpEndpoint client(m.nicA, "client");
    net::RatpEndpoint server(m.nicB, "server");
    server.bindService(net::kPortEcho,
                       [](sim::Process&, net::NodeId, const Bytes& req) { return req; });
    sim::FaultPlan plan(m.sim, /*plan_seed=*/7);
    plan.registerTarget("b", sim::FaultHooks{
                                 [&] {
                                   m.nicB.crash();
                                   server.onCrash();
                                 },
                                 [&] { m.nicB.restart(); },
                                 nullptr,
                             });
    plan.crashAt("b", sim::msec(30), sim::msec(60));
    plan.arm();
    int completed = 0;
    int failed = 0;
    const int kCalls = 40;
    sim::TimePoint done = sim::kZero;
    m.sim.spawn("caller", [&](sim::Process& self) {
      for (int i = 0; i < kCalls; ++i) {
        auto r = client.transact(self, 2, net::kPortEcho, Bytes(72));
        (r.ok() ? completed : failed)++;
        self.delay(sim::msec(5));
      }
      done = m.sim.now();
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_RatpCrashRebootRecovery", m.sim);
    bench::report(state, bench::ms(done), 0);
    state.counters["completed"] = completed;
    state.counters["failed"] = failed;
    state.counters["peer_deaths"] =
        static_cast<double>(m.sim.metrics().counterValue("client/ratp/peer_deaths"));
  }
}
BENCHMARK(BM_RatpCrashRebootRecovery)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
