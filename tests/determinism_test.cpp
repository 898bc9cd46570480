// Determinism: the whole cluster — protocols, scheduling, backoff — must be
// a pure function of the seed. Two runs with the same seed produce
// bit-identical trace streams; runs with different seeds diverge (the
// workload below consumes randomness through retry backoff).
#include <gtest/gtest.h>

#include "app/social.hpp"
#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"
#include "load/generator.hpp"

namespace clouds {
namespace {

struct RunResult {
  std::uint64_t digest = 0;
  std::size_t trace_count = 0;
  std::int64_t counter = 0;
  sim::TimePoint end{};
  std::string metrics_json;
  std::string placements;  // gossip-scheduler decisions, e.g. "011"
};

RunResult runWorkload(std::uint64_t seed, bool keep_entries = false,
                      store::StoreEngine engine = store::StoreEngine::wal) {
  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 2;
  cfg.seed = seed;
  cfg.store_engine = engine;
  Cluster cluster(cfg);
  cluster.sim().tracer().setKeepEntries(keep_entries);
  obj::samples::registerAll(cluster.classes());

  (void)cluster.create("counter", "C", 0);
  (void)cluster.create("bank", "Bank", 1);
  (void)cluster.call("Bank", "init", {8, 100});
  // Contended gcp increments: retry backoff consumes the rng.
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, i % 2));
  for (int i = 0; i < 4; ++i) {
    handles.push_back(cluster.start("Bank", "transfer", {i, (i + 1) % 8, 5}, i % 2));
  }
  cluster.run();

  RunResult out;
  // Gossip-fed placement is part of the deterministic universe: the chooser
  // (workstation 0) places from its received load reports, and the sequence
  // of decisions must replay exactly.
  for (int i = 0; i < 3; ++i) {
    const int idx = cluster.scheduleComputeServer();
    out.placements.push_back(static_cast<char>('0' + idx));
    handles.push_back(cluster.start("C", "add_gcp", {1}, idx));
    cluster.run();
  }
  out.counter = cluster.call("C", "value").value().asInt().valueOr(-1);
  out.digest = cluster.sim().tracer().digest();
  out.trace_count = cluster.sim().tracer().count();
  out.end = cluster.sim().now();
  out.metrics_json = cluster.sim().metrics().toJson();
  return out;
}

TEST(Determinism, SameSeedSameUniverse) {
  const RunResult a = runWorkload(20240705);
  const RunResult b = runWorkload(20240705);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.trace_count, b.trace_count);
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.end, b.end);
  // The metrics snapshot is part of the determinism contract: same seed,
  // byte-identical JSON (sorted keys, integer values, no wall-clock).
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.counter, 8);  // and the workload itself succeeded (5 + 3 balanced)
}

TEST(Determinism, MetricsUnaffectedByTraceStorageMode) {
  // setKeepEntries(false) changes only whether trace entries are stored;
  // the universe itself — and hence digest and metrics — must not move.
  const RunResult lean = runWorkload(20240705, /*keep_entries=*/false);
  const RunResult full = runWorkload(20240705, /*keep_entries=*/true);
  EXPECT_EQ(lean.digest, full.digest);
  EXPECT_EQ(lean.trace_count, full.trace_count);
  EXPECT_EQ(lean.metrics_json, full.metrics_json);
  EXPECT_EQ(lean.end, full.end);
  EXPECT_EQ(lean.placements, full.placements);
}

// Live migration joins the deterministic universe: a daemon-driven handoff
// under skewed load must replay its protocol transcript — every state
// transition, begin, and commit line — byte for byte across same-seed runs.
struct MigrationRunResult {
  std::uint64_t digest = 0;
  std::string metrics_json;
  std::string events;  // concatenated per-node migration transcripts
  std::uint64_t committed = 0;
  std::int64_t probe = -1;
  std::int64_t successes = 0;  // adds whose caller saw ok
};

MigrationRunResult runMigrationWorkload(std::uint64_t seed,
                                        store::StoreEngine engine = store::StoreEngine::wal) {
  ClusterConfig cfg;
  cfg.store_engine = engine;
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

  MigrationRunResult out;
  for (const auto& h : handles) {
    if (h->result.ok()) ++out.successes;
  }
  out.probe = cluster.call("H", "value", {}, 1).value().asInt().valueOr(-1);
  out.events = cluster.migrationEvents();
  out.committed = cluster.sim().metrics().sumCounters("migrate/committed");
  out.digest = cluster.sim().tracer().digest();
  out.metrics_json = cluster.sim().metrics().toJson();
  return out;
}

TEST(Determinism, MigrationEventSequenceReplaysExactly) {
  const MigrationRunResult a = runMigrationWorkload(20260808);
  const MigrationRunResult b = runMigrationWorkload(20260808);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.probe, b.probe);
  // The workload is not vacuous: pressure produced at least one handoff,
  // with a transcript that walked the protocol states.
  EXPECT_GE(a.committed, 1u);
  EXPECT_NE(a.events.find("state draining"), std::string::npos);
  EXPECT_NE(a.events.find("committed"), std::string::npos);
}

// The storage engine is part of the deterministic universe: each engine
// replays its own seed byte-for-byte, and while the two engines time events
// differently (wal defers image writes, flat applies them synchronously),
// the program-visible outcome is identical (docs/STORAGE.md).
TEST(Determinism, FlatEngineSameSeedSameUniverse) {
  const RunResult a = runWorkload(20240705, false, store::StoreEngine::flat);
  const RunResult b = runWorkload(20240705, false, store::StoreEngine::flat);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.counter, 8);
}

TEST(Determinism, EnginesDivergeInTimingButAgreeInSemantics) {
  const RunResult flat = runWorkload(20240705, false, store::StoreEngine::flat);
  const RunResult wal = runWorkload(20240705, false, store::StoreEngine::wal);
  // Different disk schedules => different universes (the comparison is not
  // vacuous: the wal run forces its log, the flat run never does)...
  EXPECT_NE(flat.metrics_json, wal.metrics_json);
  // ...but the full-cluster workload converges to the same answer.
  EXPECT_EQ(flat.counter, wal.counter);
  EXPECT_EQ(flat.counter, 8);
}

TEST(Determinism, MigrationWorkloadReplaysAndAgreesUnderBothEngines) {
  const MigrationRunResult f1 = runMigrationWorkload(20260808, store::StoreEngine::flat);
  const MigrationRunResult f2 = runMigrationWorkload(20260808, store::StoreEngine::flat);
  EXPECT_EQ(f1.digest, f2.digest);
  EXPECT_EQ(f1.events, f2.events);
  EXPECT_EQ(f1.metrics_json, f2.metrics_json);
  const MigrationRunResult w = runMigrationWorkload(20260808, store::StoreEngine::wal);
  // Migration under load commits on both engines, every add's caller saw
  // success, and the handed-off object stays callable from another node.
  // (The probe's exact value is a frame-caching artifact of the s-labeled
  // counter, so it is pinned by the replay checks, not compared across
  // engines.)
  EXPECT_GE(f1.committed, 1u);
  EXPECT_GE(w.committed, 1u);
  EXPECT_EQ(f1.successes, 8);
  EXPECT_EQ(w.successes, 8);
  EXPECT_GE(f1.probe, 0);
  EXPECT_GE(w.probe, 0);
}

TEST(Determinism, DifferentSeedDivergesButStaysCorrect) {
  const RunResult a = runWorkload(1);
  const RunResult b = runWorkload(2);
  // Different backoff draws => different event interleavings...
  EXPECT_NE(a.digest, b.digest);
  EXPECT_NE(a.metrics_json, b.metrics_json);
  // ...but identical semantics.
  EXPECT_EQ(a.counter, 8);
  EXPECT_EQ(b.counter, 8);
}

// The application tier joins the deterministic universe (docs/APP.md): an
// open-loop generator run — Zipf draws, diurnal arrival gaps, gossip-fed
// placement decisions, per-op completion latencies — is a pure function of
// the seed.
struct SocialRunResult {
  std::string transcript;  // one line per op: kind, key, placement, outcome
  std::string metrics_json;
  std::string percentiles_json;
  std::uint64_t digest = 0;
  std::uint64_t ok = 0;
};

SocialRunResult runSocialWorkload(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 3;
  cfg.workstations = 1;  // the generator places through the gossip chooser
  cfg.seed = seed;
  Cluster cluster(cfg);
  app::SocialApp::Options opts;
  opts.shards = 8;
  opts.user_capacity = 1 << 12;
  opts.post_ring_slots = 256;
  opts.seed_users = 200;
  auto built = app::SocialApp::build(cluster, opts);
  EXPECT_TRUE(built.ok());
  app::SocialApp social = std::move(built).value();
  load::GeneratorOptions gen_opts;
  gen_opts.ops = 120;
  gen_opts.seed = seed ^ 0x10ad;
  gen_opts.base_rate = 40.0;
  load::Generator gen(cluster, social, gen_opts);
  gen.run();
  SocialRunResult out;
  out.transcript = gen.transcript();
  out.metrics_json = cluster.sim().metrics().toJson();
  out.percentiles_json = cluster.sim().metrics().percentilesJson();
  out.digest = cluster.sim().tracer().digest();
  out.ok = gen.summary().ok;
  return out;
}

TEST(Determinism, SocialWorkloadTranscriptReplaysByteForByte) {
  const SocialRunResult a = runSocialWorkload(20260809);
  const SocialRunResult b = runSocialWorkload(20260809);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.percentiles_json, b.percentiles_json);
  EXPECT_EQ(a.digest, b.digest);
  // Not vacuous: the run did real work and timed it.
  EXPECT_GT(a.ok, 100u);
  EXPECT_NE(a.metrics_json.find("load/read/latency_usec"), std::string::npos);

  // And the seed actually steers it: a different seed draws different keys,
  // gaps, and placements.
  const SocialRunResult c = runSocialWorkload(20260810);
  EXPECT_NE(a.transcript, c.transcript);
}

}  // namespace
}  // namespace clouds
