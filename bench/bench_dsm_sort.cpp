// E4 — "Distributed Programming" over DSM (paper §5.1).
//
//   "Sorting algorithms can use multiple threads to perform a sort, with
//    each thread being executed at a different compute server, even though
//    the data itself is contained in one object. ... We have shown that
//    even though the data resides in a single object, the computation can
//    be run in a distributed fashion without incurring a high overhead."
//
// The series: sort time of an N-key object with 1..8 compute servers. The
// paper reports no absolute numbers — the reproduced *shape* is a speedup
// that grows with servers and tapers as communication (page migration +
// merge) starts to dominate.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace {

using namespace clouds;

constexpr std::int64_t kFillSeed = 9999;

// The sum (mod 2^64) of the keys sorter.fill writes: its xorshift stream,
// recomputed on the host. A sort that loses or duplicates keys changes it.
std::int64_t expectedChecksum(std::int64_t keys) {
  std::uint64_t x = static_cast<std::uint64_t>(kFillSeed) | 1;
  std::uint64_t sum = 0;
  for (std::int64_t i = 0; i < keys; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x;
  }
  return static_cast<std::int64_t>(sum);
}

// Simulated sort time in ms.
Result<double> runSort(int n_workers, std::int64_t keys, std::uint64_t seed,
                       const char* emit_metrics_label = nullptr) {
  const Error failed = makeError(Errc::internal, "sort failed");
  ClusterConfig cfg;
  cfg.compute_servers = 8;
  cfg.data_servers = 1;
  cfg.workstations = 0;
  cfg.seed = seed;
  Cluster cluster(cfg);
  cluster.classes().registerClass(obj::samples::sorterClass());
  if (!cluster.create("sorter", "S").ok()) return failed;
  if (!cluster.call("S", "fill", {keys, kFillSeed}).ok()) return failed;

  const auto start = cluster.sim().now();
  const std::int64_t slice = keys / n_workers;
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> workers;
  for (int w = 0; w < n_workers; ++w) {
    const std::int64_t lo = w * slice;
    const std::int64_t hi = w == n_workers - 1 ? keys : lo + slice;
    workers.push_back(cluster.start("S", "sort_range", {lo, hi}, w));
  }
  cluster.run();
  for (auto& h : workers) {
    if (!h->done || !h->result.ok()) return failed;
  }
  for (std::int64_t width = slice; width < keys; width *= 2) {
    for (std::int64_t lo = 0; lo + width < keys; lo += 2 * width) {
      const std::int64_t hi = std::min(lo + 2 * width, keys);
      if (!cluster.call("S", "merge", {lo, lo + width, hi}).ok()) return failed;
    }
  }
  const double elapsed = bench::ms(cluster.sim().now() - start);
  if (emit_metrics_label != nullptr) bench::emitMetrics(emit_metrics_label, cluster.sim());
  if (cluster.call("S", "is_sorted", {0, keys}).value() != obj::Value{true}) return failed;
  if (cluster.call("S", "checksum", {0, keys}).value() != obj::Value{expectedChecksum(keys)}) {
    return makeError(Errc::internal, "checksum mismatch (keys lost)");
  }
  return elapsed;
}

void BM_DsmSort(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const std::int64_t keys = state.range(1);
  int iter = 0;
  for (auto _ : state) {
    const auto ms = runSort(workers, keys, 42, iter++ == 0 ? "BM_DsmSort" : nullptr);
    if (!ms.ok()) {
      state.SkipWithError(ms.error().message.c_str());
      return;
    }
    bench::report(state, ms.value(), 0);
    state.counters["workers"] = workers;
    state.counters["keys"] = static_cast<double>(keys);
  }
}
BENCHMARK(BM_DsmSort)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 32768})
    ->Args({2, 32768})
    ->Args({4, 32768})
    ->Args({8, 32768})
    ->Args({1, 8192})
    ->Args({4, 8192});

}  // namespace

BENCHMARK_MAIN();
