// Scheduling-under-faults chaos suite (CTest label: chaos).
//
// A 3-compute cluster places a stream of threads through the gossip-fed
// scheduler while a FaultPlan crashes one compute server mid-stream and
// reboots it later. Invariants, per seed:
//  * the run always drains — no placement ever hangs on a dead server;
//  * threads that survived (were not on the crashed node) all commit, and
//    the gcp counter equals exactly the number of successful increments
//    (atomicity: a thread killed mid-transaction contributes nothing);
//  * the placement fallback fires: the chooser's stale view nominates the
//    dead server at least once and the retry path lands elsewhere;
//  * after the reboot the server gossips itself back into the view;
//  * the whole scenario — placements, metrics JSON, trace digest — is a
//    pure function of the seed (byte-identical across same-seed runs).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"
#include "sim/fault.hpp"

namespace clouds {
namespace {

constexpr std::uint64_t kSeeds[] = {0xC10D5EEDULL, 1988u, 77u};

struct Outcome {
  std::string placements;     // one digit per scheduled thread
  std::int64_t committed = 0; // threads that finished with ok results
  std::int64_t counter = -1;  // final gcp counter value
  std::uint64_t fallbacks = 0;
  bool crashed_rejoined = false;
  std::string metrics_json;
  std::uint64_t trace_digest = 0;
};

Outcome runScenario(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.compute_servers = 3;
  cfg.data_servers = 1;
  cfg.workstations = 1;
  cfg.seed = seed;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());
  EXPECT_TRUE(cluster.create("counter", "C").ok());

  sim::FaultPlan plan(cluster.sim(), seed);
  cluster.installFaultHooks(plan);
  // Crash after a few gossip rounds have made cpu1 part of everyone's view;
  // reboot while the stream is still running so it gossips back in.
  plan.crashAt("cpu1", sim::msec(120), /*reboot_after=*/sim::msec(600));
  plan.arm();

  Outcome out;
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  auto placeOne = [&] {
    const int idx = cluster.scheduleComputeServer();
    out.placements.push_back(static_cast<char>('0' + idx));
    handles.push_back(cluster.start("C", "add_gcp", {1}, idx));
  };
  // Paced stream across the crash at t=120ms...
  for (int i = 0; i < 4; ++i) {
    placeOne();
    cluster.sim().runFor(sim::msec(60));
  }
  // ...then a burst at t=240ms, inside the believed-alive-but-dead window:
  // cpu1's last report (< 250 ms old, so fresh and minimal) is still in the
  // chooser's table while inflight charges pile onto the live servers, so
  // within a few picks the policy must nominate the dead server and take
  // the fallback path.
  for (int i = 0; i < 4; ++i) placeOne();
  // ...then keep pacing across the reboot at t=720ms.
  for (int i = 0; i < 8; ++i) {
    cluster.sim().runFor(sim::msec(60));
    placeOne();
  }
  cluster.run();
  // Let the rebooted server's gossip repopulate the chooser's table.
  cluster.sim().runFor(sim::msec(300));
  out.crashed_rejoined =
      cluster.workstationSchedAgent(0).table().find(cluster.computeNode(1).id()) != nullptr;

  for (auto& h : handles) {
    if (h->done && h->result.ok()) ++out.committed;
  }
  auto v = cluster.call("C", "value");
  EXPECT_TRUE(v.ok());
  out.counter = v.ok() ? v.value().asInt().valueOr(-1) : -1;
  out.fallbacks = cluster.sim().metrics().sumCounters("sched/fallbacks");
  out.metrics_json = cluster.sim().metrics().toJson();
  out.trace_digest = cluster.sim().tracer().digest();
  return out;
}

class SchedChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedChaos, MidStreamCrashNeverStrandsPlacement) {
  const Outcome out = runScenario(GetParam());
  ASSERT_EQ(out.placements.size(), 16u);
  // Every placement landed on a server index that exists.
  for (char c : out.placements) {
    ASSERT_GE(c, '0');
    ASSERT_LE(c, '2');
  }
  // Atomicity across the crash: the counter is exactly the committed
  // increments — threads killed on cpu1 contributed nothing.
  EXPECT_EQ(out.counter, out.committed);
  // Most of the stream survives (only threads in flight on cpu1 at crash
  // time can die).
  EXPECT_GE(out.committed, 12);
  // The believed-alive-but-dead window was exercised: the scheduler
  // nominated the crashed server from its stale view and had to fall back.
  EXPECT_GE(out.fallbacks, 1u);
  // Recovery: the rebooted server gossiped itself back into the view.
  EXPECT_TRUE(out.crashed_rejoined);
}

TEST_P(SchedChaos, SameSeedIsByteIdentical) {
  const Outcome a = runScenario(GetParam());
  const Outcome b = runScenario(GetParam());
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.counter, b.counter);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedChaos, ::testing::ValuesIn(kSeeds));

}  // namespace
}  // namespace clouds
