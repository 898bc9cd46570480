// E11 — storage engine v2: group commit and async write-back (`src/store`).
//
// The paper's data servers are plain page stores ("the prototype stores the
// data in Unix files"); the reproduction's v2 engine gives them the classic
// log-structured treatment: every write/prepare/decision is a WAL record
// made durable by a *group-commit* force shared between concurrent callers,
// while segment images are updated later by an asynchronous batched
// write-back that checkpoints and truncates the log (docs/STORAGE.md).
//
// Three figures of merit, all in simulated time on one data-server spindle:
//
//   throughput  16 writers each running single-page transactions
//               (prepare + commit) back to back, flat vs wal. The flat
//               engine serializes two log forces plus a synchronous page
//               apply per transaction; the wal engine's callers share one
//               batched force per coalescing window and defer the page
//               apply to the background flusher. Acceptance: wal sustains
//               at least 2x the flat commit rate.
//   window      the same workload across group-commit window sizes — the
//               latency/throughput trade the window knob buys.
//   recovery    reboot-time log replay cost as a function of log length
//               (the truncation interval is what keeps this bounded).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/simulation.hpp"
#include "store/disk_store.hpp"

namespace {

using namespace clouds;

struct CommitRun {
  sim::Duration commits_done{};  // when the last commit was acknowledged
  sim::Duration drained{};       // when the write-back tail finished too
  std::uint64_t forces = 0;
  std::uint64_t txns = 0;
  std::string metrics_json;
};

CommitRun runCommitters(store::StoreEngine engine, std::uint32_t writers,
                        std::uint32_t txns_each, sim::Duration window) {
  sim::Simulation sim{11};
  sim::CostModel cost;
  cost.wal_group_commit_window = window;
  store::DiskStore store{100, cost, /*cache=*/64, engine};
  store.attachMetrics(sim.metrics(), "100");
  store.startFlusher(sim);
  auto name = store.createSegment(writers * ra::kPageSize).value();
  // Commit throughput clocks the last *acknowledged* commit. The flusher's
  // write-back tail past that point is exactly the work the wal engine
  // moves off the commit path (its mid-run spindle contention is still
  // fully charged); it is reported separately as drain_ms.
  sim::TimePoint last_commit{};
  for (std::uint32_t w = 0; w < writers; ++w) {
    sim.spawn("writer" + std::to_string(w),
              [&store, &sim, &last_commit, name, w, txns_each](sim::Process& self) {
                for (std::uint32_t i = 0; i < txns_each; ++i) {
                  std::vector<store::PageUpdate> ups;
                  ups.push_back(
                      {{name, w}, Bytes(ra::kPageSize, static_cast<std::byte>(i + 1))});
                  if (!store.prepare(self, w * 1000 + i, std::move(ups)).ok()) return;
                  if (!store.commitPrepared(self, w * 1000 + i).ok()) return;
                }
                last_commit = std::max(last_commit, sim.now());
              });
  }
  sim.run();
  CommitRun out;
  out.commits_done = last_commit - sim::TimePoint{};
  out.drained = sim.now() - sim::TimePoint{};
  out.forces = sim.metrics().counterValue("100/wal/forces");
  out.txns = static_cast<std::uint64_t>(writers) * txns_each;
  out.metrics_json = sim.metrics().toJson();
  return out;
}

void reportCommitRun(benchmark::State& state, const CommitRun& run) {
  const double sim_ms = clouds::bench::ms(run.commits_done);
  clouds::bench::report(state, sim_ms, /*paper_ms=*/0);
  state.counters["txn_per_s"] =
      sim_ms > 0 ? static_cast<double>(run.txns) * 1e3 / sim_ms : 0;
  state.counters["forces"] = static_cast<double>(run.forces);
  state.counters["drain_ms"] = clouds::bench::ms(run.drained);
}

// 16 concurrent writers, 8 transactions each, default window.
void BM_CommitThroughput(benchmark::State& state) {
  const auto engine = static_cast<store::StoreEngine>(state.range(0));
  bool first = true;
  for (auto _ : state) {
    const CommitRun run =
        runCommitters(engine, 16, 8, sim::CostModel{}.wal_group_commit_window);
    reportCommitRun(state, run);
    if (first) {
      first = false;
      std::fprintf(stderr, "# metrics %s %s\n",
                   engine == store::StoreEngine::wal ? "store_commit/wal"
                                                     : "store_commit/flat",
                   run.metrics_json.c_str());
    }
  }
}
BENCHMARK(BM_CommitThroughput)
    ->Arg(static_cast<int>(store::StoreEngine::flat))
    ->Arg(static_cast<int>(store::StoreEngine::wal))
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The window trade: a longer window coalesces more forcers per batch (fewer
// forces) at the cost of added latency before anything is durable.
void BM_GroupCommitWindow(benchmark::State& state) {
  const auto window = sim::usec(state.range(0));
  for (auto _ : state) {
    const CommitRun run = runCommitters(store::StoreEngine::wal, 16, 8, window);
    reportCommitRun(state, run);
  }
}
BENCHMARK(BM_GroupCommitWindow)
    ->Arg(0)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000)
    ->Arg(3000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Reboot-time replay cost against log length: batches of page writes build
// the log (write-back disabled so nothing truncates), then a crash forces a
// full replay. Linear in records — which is why the flusher's checkpoint +
// truncate interval, not the workload, bounds recovery time.
void BM_RecoveryReplay(benchmark::State& state) {
  const std::uint32_t records = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim{11};
    sim::CostModel cost;
    store::DiskStore store{100, cost, /*cache=*/64, store::StoreEngine::wal};
    auto name = store.createSegment(8 * ra::kPageSize).value();
    sim::Duration recover_time{};
    sim.spawn("driver", [&](sim::Process& self) {
      for (std::uint32_t i = 0; i < records; ++i) {
        (void)store.writePage(self, {name, i % 8},
                              Bytes(ra::kPageSize, static_cast<std::byte>(i)));
      }
      store.loseVolatileState();
      const sim::TimePoint before = sim.now();
      (void)store.recover(self);
      recover_time = sim.now() - before;
    });
    sim.run();
    clouds::bench::report(state, clouds::bench::ms(recover_time), /*paper_ms=*/0);
    state.counters["records"] = static_cast<double>(records);
  }
}
BENCHMARK(BM_RecoveryReplay)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
