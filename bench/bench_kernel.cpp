// E1 — "Kernel performance" (paper §4.3).
//
//   "Context switch time is 0.14 ms. The time to service a page fault when
//    the page is resident on the same node costs 1.5 ms for a zero-filled,
//    8K page; and costs 0.629 ms for a non zero-filled page."
//
// Setup mirrors the measurements: one machine that is both compute and data
// server (so faults are local), two IsiBas ping-ponging for the context
// switch, and first-touch vs store-resident page faults through the real
// DSM fault path.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "dsm/client.hpp"
#include "dsm/server.hpp"
#include "ra/node.hpp"
#include "store/disk_store.hpp"

namespace {

using namespace clouds;

// A combined compute+data machine (paper §3: "a machine with a disk can
// simultaneously be a compute and data server").
struct CombinedNode {
  sim::Simulation sim{42};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  ra::Node node{sim, cost, ether, 1, "combo",
                ra::NodeRole::compute | ra::NodeRole::data};
  store::DiskStore store{1, cost, /*cache=*/256, store::StoreEngine::flat};
  dsm::DsmServer server{node, store};
  dsm::DsmClientPartition dsm{node, &server};
};

void BM_ContextSwitch(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    CombinedNode m;
    constexpr int kRounds = 50;
    sim::SimSemaphore ping(1), pong(0);
    m.sim.spawn("a", [&](sim::Process& self) {
      for (int i = 0; i < kRounds; ++i) {
        ping.acquire(self);
        m.node.cpu().compute(self, sim::kZero);
        pong.release();
      }
    });
    m.sim.spawn("b", [&](sim::Process& self) {
      for (int i = 0; i < kRounds; ++i) {
        pong.acquire(self);
        m.node.cpu().compute(self, sim::kZero);
        ping.release();
      }
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_ContextSwitch", m.sim);
    const double per_switch = bench::ms(m.sim.now()) / (2.0 * kRounds);
    bench::report(state, per_switch, 0.14);
  }
}
BENCHMARK(BM_ContextSwitch)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_PageFaultZeroFilled8K(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    CombinedNode m;
    const Sysname seg = m.store.createSegment(64 * ra::kPageSize).value();
    double fault_ms = 0;
    m.sim.spawn("toucher", [&](sim::Process& self) {
      // First touch of never-written pages: zero-fill faults.
      const auto start = m.sim.now();
      constexpr int kFaults = 16;
      for (ra::PageIndex p = 0; p < kFaults; ++p) {
        benchmark::DoNotOptimize(m.dsm.resolvePage(self, {seg, p}, ra::Access::read));
      }
      fault_ms = bench::ms(m.sim.now() - start) / kFaults;
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_PageFaultZeroFilled8K", m.sim);
    bench::report(state, fault_ms, 1.5);
  }
}
BENCHMARK(BM_PageFaultZeroFilled8K)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_PageFaultResident8K(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    CombinedNode m;
    const Sysname seg = m.store.createSegment(64 * ra::kPageSize).value();
    double fault_ms = 0;
    m.sim.spawn("toucher", [&](sim::Process& self) {
      constexpr int kFaults = 16;
      // Populate the pages so they are non-zero-filled and resident in the
      // server's buffer cache, then drop the client's mappings.
      Bytes page(ra::kPageSize, std::byte{1});
      for (ra::PageIndex p = 0; p < kFaults; ++p) {
        (void)m.store.writePage(self, {seg, p}, page);
      }
      m.dsm.dropSegment(seg);
      const auto start = m.sim.now();
      for (ra::PageIndex p = 0; p < kFaults; ++p) {
        benchmark::DoNotOptimize(m.dsm.resolvePage(self, {seg, p}, ra::Access::read));
      }
      fault_ms = bench::ms(m.sim.now() - start) / kFaults;
    });
    m.sim.run();
    if (iter++ == 0) bench::emitMetrics("BM_PageFaultResident8K", m.sim);
    bench::report(state, fault_ms, 0.629);
  }
}
BENCHMARK(BM_PageFaultResident8K)->UseManualTime()->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
