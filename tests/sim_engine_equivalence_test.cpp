// Golden digests of the fiber engine. Every observable of the simulated
// universe — trace digest and count, end time, metrics JSON, gossip
// placement sequence, migration protocol transcript — is pinned for three
// seeds of three workloads. The constants were recorded while the
// thread-per-process engine still existed and both engines produced them
// byte for byte; a change to the simulation core that moves any of them
// changed the universe, not just its speed (docs/SIMCORE.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"
#include "common/bytes.hpp"

namespace clouds {
namespace {

constexpr std::uint64_t kSeeds[] = {20240705, 20260808, 97};

// The full-cluster workload from determinism_test: contended gcp
// increments and bank transfers (backoff consumes the rng), then three
// gossip-fed placements.
struct WorkloadResult {
  std::uint64_t digest = 0;
  std::size_t trace_count = 0;
  std::int64_t counter = 0;
  std::int64_t end_ns = 0;
  std::uint64_t metrics_hash = 0;
  std::string placements;
};

WorkloadResult runWorkload(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());

  (void)cluster.create("counter", "C", 0);
  (void)cluster.create("bank", "Bank", 1);
  (void)cluster.call("Bank", "init", {8, 100});
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, i % 2));
  for (int i = 0; i < 4; ++i) {
    handles.push_back(cluster.start("Bank", "transfer", {i, (i + 1) % 8, 5}, i % 2));
  }
  cluster.run();

  WorkloadResult out;
  for (int i = 0; i < 3; ++i) {
    const int idx = cluster.scheduleComputeServer();
    out.placements.push_back(static_cast<char>('0' + idx));
    handles.push_back(cluster.start("C", "add_gcp", {1}, idx));
    cluster.run();
  }
  out.counter = cluster.call("C", "value").value().asInt().valueOr(-1);
  out.digest = cluster.sim().tracer().digest();
  out.trace_count = cluster.sim().tracer().count();
  out.end_ns = cluster.sim().now().count();
  out.metrics_hash = fnv1a(cluster.sim().metrics().toJson());
  return out;
}

// One row per seed of kSeeds, in WorkloadResult's field order.
const WorkloadResult kWorkloadGolden[] = {
    {0x24ba1f1f9a3a1bc0ull, 171u, 8, 4079942012, 0x6365d4b996ec9399ull, "000"},
    {0x8fe66c28e04b1774ull, 171u, 8, 4079636600, 0xa21fef68bd7330cbull, "000"},
    {0xf52edc972d1bb869ull, 171u, 8, 4080571400, 0x33048227dfaf750full, "000"},
};

TEST(EngineEquivalence, FullClusterWorkloadIsByteIdentical) {
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    const WorkloadResult r = runWorkload(kSeeds[i]);
    const WorkloadResult& g = kWorkloadGolden[i];
    EXPECT_EQ(r.digest, g.digest);
    EXPECT_EQ(r.trace_count, g.trace_count);
    EXPECT_EQ(r.end_ns, g.end_ns);
    EXPECT_EQ(r.metrics_hash, g.metrics_hash);
    EXPECT_EQ(r.placements, g.placements);
    EXPECT_EQ(r.counter, g.counter);  // the workload itself succeeded
  }
}

// The live-migration workload: a daemon-driven handoff under skewed load.
// Its protocol transcript — every state transition, begin, and commit
// line — must replay byte for byte.
struct MigrationResult {
  std::uint64_t digest = 0;
  std::uint64_t metrics_hash = 0;
  std::uint64_t events_hash = 0;
  std::uint64_t committed = 0;
  std::int64_t probe = -1;
};

MigrationResult runMigrationWorkload(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 2;
  cfg.workstations = 0;
  cfg.seed = seed;
  cfg.sched.gossip_interval = sim::msec(10);
  cfg.migrate.enabled = true;
  cfg.migrate.interval = sim::msec(20);
  cfg.migrate.cooldown = sim::msec(50);
  cfg.migrate.high_watermark = 3;
  cfg.migrate.low_watermark = 1;
  cfg.migrate.min_heat = 1;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());

  const auto sys = cluster.create("counter", "H", /*data_idx=*/0, /*compute_idx=*/0);
  EXPECT_TRUE(sys.ok());
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(cluster.start("H", "add", {1}, 0));
  cluster.run();

  MigrationResult out;
  out.probe = cluster.call("H", "value", {}, 1).value().asInt().valueOr(-1);
  out.events_hash = fnv1a(cluster.migrationEvents());
  out.committed = cluster.sim().metrics().sumCounters("migrate/committed");
  out.digest = cluster.sim().tracer().digest();
  out.metrics_hash = fnv1a(cluster.sim().metrics().toJson());
  return out;
}

// One row per seed, in MigrationResult's field order. The workload draws
// nothing from the rng, so every seed gives the same universe.
const MigrationResult kMigrationGolden[] = {
    {0x1fb024d548bf4d7aull, 0x5d371ac114f09672ull, 0x7097f9f4aa29f5d7ull, 1u, 6},
    {0x1fb024d548bf4d7aull, 0x5d371ac114f09672ull, 0x7097f9f4aa29f5d7ull, 1u, 6},
    {0x1fb024d548bf4d7aull, 0x5d371ac114f09672ull, 0x7097f9f4aa29f5d7ull, 1u, 6},
};

TEST(EngineEquivalence, MigrationTranscriptIsByteIdentical) {
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    const MigrationResult r = runMigrationWorkload(kSeeds[i]);
    const MigrationResult& g = kMigrationGolden[i];
    EXPECT_EQ(r.events_hash, g.events_hash);
    EXPECT_EQ(r.digest, g.digest);
    EXPECT_EQ(r.metrics_hash, g.metrics_hash);
    EXPECT_EQ(r.committed, g.committed);
    EXPECT_EQ(r.probe, g.probe);
  }
}

// Crash + recovery paths exercise kill()/ProcessKilled unwinding through
// every protocol layer.
struct CrashResult {
  std::uint64_t digest = 0;
  std::uint64_t metrics_hash = 0;
  std::int64_t counter = 0;
};

CrashResult runCrashWorkload(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 1;
  cfg.seed = seed;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());

  (void)cluster.create("counter", "C", 0);
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, i % 2));
  cluster.sim().schedule(sim::msec(2), [&] { cluster.crashCompute(1); });
  cluster.run();
  cluster.restartCompute(1);
  for (int i = 0; i < 2; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, 1));
  cluster.run();

  CrashResult out;
  out.counter = cluster.call("C", "value").value().asInt().valueOr(-1);
  out.digest = cluster.sim().tracer().digest();
  out.metrics_hash = fnv1a(cluster.sim().metrics().toJson());
  return out;
}

// One row per seed, in CrashResult's field order (the crash loses the
// increments in flight on the crashed server).
const CrashResult kCrashGolden[] = {
    {0x75832bd090ec568full, 0x5a95f1c37c7ef3eaull, 4},
    {0x70ae126c43ed83baull, 0x57bdc899ef2163caull, 4},
    {0x32ff2eaaa655a49aull, 0x8a76ba80d3f5dacfull, 4},
};

TEST(EngineEquivalence, CrashRecoveryIsByteIdentical) {
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    const CrashResult r = runCrashWorkload(kSeeds[i]);
    const CrashResult& g = kCrashGolden[i];
    EXPECT_EQ(r.digest, g.digest);
    EXPECT_EQ(r.metrics_hash, g.metrics_hash);
    EXPECT_EQ(r.counter, g.counter);
  }
}

}  // namespace
}  // namespace clouds
