// Distributed programming over DSM (paper §5.1).
//
// "Sorting algorithms can use multiple threads to perform a sort, with each
//  thread being executed at a different compute server, even though the
//  data itself is contained in one object. The threads work on the data in
//  parallel and those parts of the data that are in use at a node migrate
//  to that node automatically."
//
// One `sorter` object holds 32k keys in its persistent heap. We sort it
// with 1, 2 and 4 compute servers; each worker thread sorts its slice (the
// slice's pages migrate to the worker's node via DSM), then a merge pass
// combines the runs. The printout shows the speedup and the DSM traffic.
#include <cstdio>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

using namespace clouds;

namespace {

double sortOnce(int n_workers, std::int64_t keys) {
  ClusterConfig cfg;
  cfg.compute_servers = 4;
  cfg.data_servers = 1;
  cfg.workstations = 0;
  Cluster cluster(cfg);
  cluster.classes().registerClass(obj::samples::sorterClass());

  if (!cluster.create("sorter", "S").ok()) return -1;
  if (!cluster.call("S", "fill", {keys, 12345}).ok()) return -1;
  const auto checksum = cluster.call("S", "checksum", {0, keys}).value();

  const auto start = cluster.sim().now();
  // Phase 1: each worker sorts its slice on its own compute server.
  const std::int64_t slice = keys / n_workers;
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> workers;
  for (int w = 0; w < n_workers; ++w) {
    const std::int64_t lo = w * slice;
    const std::int64_t hi = w == n_workers - 1 ? keys : lo + slice;
    workers.push_back(cluster.start("S", "sort_range", {lo, hi}, /*compute_idx=*/w));
  }
  cluster.run();
  for (auto& h : workers) {
    if (!h->done) {
      std::fprintf(stderr, "worker never completed (deadlock?)\n");
      return -1;
    }
    if (!h->result.ok()) {
      std::fprintf(stderr, "worker failed: %s\n", h->result.error().toString().c_str());
      return -1;
    }
  }
  // Phase 2: log-depth merge (on compute server 0; the runs migrate back).
  for (std::int64_t width = slice; width < keys; width *= 2) {
    for (std::int64_t lo = 0; lo + width < keys; lo += 2 * width) {
      const std::int64_t hi = std::min(lo + 2 * width, keys);
      auto m = cluster.call("S", "merge", {lo, lo + width, hi});
      if (!m.ok()) {
        std::fprintf(stderr, "merge(%lld,%lld,%lld) failed: %s\n", (long long)lo,
                     (long long)(lo + width), (long long)hi, m.error().toString().c_str());
        return -1;
      }
    }
  }
  const double elapsed_ms = sim::toMillis(cluster.sim().now() - start);

  // Validate: sorted and a permutation of the input (checksum preserved).
  if (cluster.call("S", "is_sorted", {0, keys}).value() != obj::Value{true}) {
    std::fprintf(stderr, "validation: range not sorted\n");
    return -1;
  }
  if (cluster.call("S", "checksum", {0, keys}).value() != checksum) {
    std::fprintf(stderr, "validation: checksum mismatch (keys lost)\n");
    return -1;
  }

  const sim::MetricsRegistry& metrics = cluster.sim().metrics();
  const std::uint64_t faults =
      metrics.sumCounters("dsm/read_faults") + metrics.sumCounters("dsm/write_faults");
  std::printf("  %d worker(s): %10.1f ms   (faults %llu, wire %.1f MB)\n", n_workers,
              elapsed_ms, static_cast<unsigned long long>(faults),
              static_cast<double>(metrics.counterValue("net/eth/bytes_on_wire")) / 1e6);
  return elapsed_ms;
}

}  // namespace

int main() {
  constexpr std::int64_t kKeys = 32768;
  std::printf("distributed sort of %lld keys held in ONE Clouds object:\n",
              static_cast<long long>(kKeys));
  const double t1 = sortOnce(1, kKeys);
  const double t2 = sortOnce(2, kKeys);
  const double t4 = sortOnce(4, kKeys);
  if (t1 < 0 || t2 < 0 || t4 < 0) {
    std::fprintf(stderr, "sort failed\n");
    return 1;
  }
  std::printf("speedup: x%.2f with 2 servers, x%.2f with 4 servers\n", t1 / t2, t1 / t4);
  std::printf("(the data lives in one object; slices migrated to the workers via DSM)\n");
  return t2 < t1 ? 0 : 1;
}
