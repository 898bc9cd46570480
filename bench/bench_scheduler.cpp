// E8 — distributed scheduling: placement quality under partial information.
//
// The paper (§3.2) leaves the compute-server choice open ("may depend on
// such factors as scheduling policies and the load at each compute
// server"). This bench compares the sched/ policies on the same deterministic
// task stream, placed by TWO independent workstation choosers whose only
// load knowledge is the 50 ms gossip feed:
//   oracle        omniscient baseline (reads every runtime directly)
//   random        no load knowledge used
//   least_loaded  greedy on the gossip view — herds when the view is stale
//   power_of_two  two probes, keep the better — herd-resistant (Mitzenmacher)
// Workloads: uniform (every task equal) and skewed (every 4th task is 10x,
// arrivals much faster than the gossip period — the stale-view regime).
// The tail (p95 of thread completion latency, simulated ms) is the figure
// of merit; a crashed-and-rebooted server scenario exercises the fallback
// path under load. Metrics snapshots are emitted for regression diffing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "clouds/cluster.hpp"
#include "sim/fault.hpp"

namespace {

using namespace clouds;

obj::ClassDef spinClass() {
  obj::ClassDef def;
  def.name = "spin";
  def.entry("work", [](obj::ObjectContext& ctx, const obj::ValueList& args) -> Result<obj::Value> {
    CLOUDS_TRY_ASSIGN(ms, args.at(0).asInt());
    ctx.compute(sim::msec(ms));
    return obj::Value{};
  });
  return def;
}

struct Outcome {
  double p50 = 0, p95 = 0;
  int completed = 0, lost = 0;
  std::uint64_t fallbacks = 0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * (v.size() - 1))];
}

// 64 tasks, one every 5 ms (a tenth of the gossip period: placements run on
// stale views). Skewed mode makes every 4th task 10x heavier — exactly the
// stream where greedy-on-stale-data herds the heavies onto one server.
Outcome runScenario(sched::PolicyKind policy, bool skewed, bool crash) {
  ClusterConfig cfg;
  cfg.compute_servers = 4;
  cfg.data_servers = 1;
  cfg.workstations = 2;  // two independent choosers: partial views collide
  cfg.sched.policy = policy;
  Cluster cluster(cfg);
  cluster.classes().registerClass(spinClass());
  if (!cluster.create("spin", "S").ok()) return {};

  std::unique_ptr<sim::FaultPlan> plan;
  if (crash) {
    plan = std::make_unique<sim::FaultPlan>(cluster.sim(), 7);
    cluster.installFaultHooks(*plan);
    plan->crashAt("cpu1", sim::msec(80), /*reboot_after=*/sim::msec(250));
    plan->arm();
  }

  struct Task {
    std::shared_ptr<obj::Runtime::ThreadHandle> handle;
    sim::TimePoint started{};
  };
  std::vector<Task> tasks;
  for (int i = 0; i < 96; ++i) {
    const std::int64_t work_ms = (skewed && i % 12 == 3) ? 150 : 4;
    const int idx =
        policy == sched::PolicyKind::oracle
            ? cluster.scheduleOracle()
            : cluster.placeVia(cluster.workstationSchedAgent(i % 2).scheduler());
    Task t;
    t.started = cluster.sim().now();
    t.handle = cluster.start("S", "work", {work_ms}, idx);
    tasks.push_back(std::move(t));
    cluster.sim().runFor(sim::msec(5));
  }
  cluster.run();

  Outcome out;
  std::vector<double> latencies;
  for (const auto& t : tasks) {
    if (t.handle->done && t.handle->result.ok()) {
      ++out.completed;
      latencies.push_back(bench::ms(t.handle->completed_at - t.started));
    } else {
      ++out.lost;  // in flight on the crashed server
    }
  }
  out.p50 = percentile(latencies, 0.50);
  out.p95 = percentile(latencies, 0.95);
  out.fallbacks = cluster.sim().metrics().sumCounters("sched/fallbacks");
  static bool emitted_metrics = false;
  if (!emitted_metrics) {
    emitted_metrics = true;
    bench::emitMetrics("scheduler", cluster.sim());
  }
  return out;
}

void BM_Placement(benchmark::State& state, sched::PolicyKind policy, bool skewed, bool crash) {
  for (auto _ : state) {
    const Outcome out = runScenario(policy, skewed, crash);
    bench::report(state, out.p95, /*paper_ms=*/0);
    state.counters["p50_ms"] = out.p50;
    state.counters["p95_ms"] = out.p95;
    state.counters["completed"] = out.completed;
    state.counters["lost"] = out.lost;
    state.counters["fallbacks"] = static_cast<double>(out.fallbacks);
  }
}

#define SCHED_BENCH(tag, policy, skewed, crash)                                       \
  BENCHMARK_CAPTURE(BM_Placement, tag, sched::PolicyKind::policy, skewed, crash)      \
      ->UseManualTime()                                                               \
      ->Unit(benchmark::kMillisecond)                                                 \
      ->Iterations(1)

SCHED_BENCH(uniform_oracle, oracle, false, false);
SCHED_BENCH(uniform_random, random, false, false);
SCHED_BENCH(uniform_least_loaded, least_loaded, false, false);
SCHED_BENCH(uniform_power_of_two, power_of_two, false, false);
SCHED_BENCH(skewed_oracle, oracle, true, false);
SCHED_BENCH(skewed_random, random, true, false);
SCHED_BENCH(skewed_least_loaded, least_loaded, true, false);
SCHED_BENCH(skewed_power_of_two, power_of_two, true, false);
SCHED_BENCH(skewed_crash_least_loaded, least_loaded, true, true);
SCHED_BENCH(skewed_crash_power_of_two, power_of_two, true, true);

}  // namespace

BENCHMARK_MAIN();
