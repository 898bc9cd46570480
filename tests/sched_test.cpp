// The distributed scheduling subsystem (src/sched): load reports on the
// wire, staleness-aged load tables, placement policies, and the cluster
// façade wiring. The structural claim under test throughout: load knowledge
// moves ONLY as messages, so turning gossip off (or partitioning a node
// away) measurably changes placement.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"
#include "sched/load_table.hpp"
#include "sched/monitor.hpp"
#include "sched/policy.hpp"
#include "sched/report.hpp"
#include "sim/fault.hpp"

namespace clouds {
namespace {

// ---------------------------------------------------------------- report

sched::LoadReport sampleReport() {
  sched::LoadReport r;
  r.node = 7;
  r.seq = 9;
  r.threads = 3;
  r.frame_permille = 417;
  r.ewma_latency_usec = 1234;
  r.homed_hot = 5;
  r.cached = {Sysname(1, 2), Sysname(3, 4)};
  return r;
}

TEST(LoadReport, CodecRoundTrip) {
  const sched::LoadReport r = sampleReport();
  const Bytes wire = r.encode();
  auto back = sched::LoadReport::decode(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().node, r.node);
  EXPECT_EQ(back.value().seq, r.seq);
  EXPECT_EQ(back.value().threads, r.threads);
  EXPECT_EQ(back.value().frame_permille, r.frame_permille);
  EXPECT_EQ(back.value().ewma_latency_usec, r.ewma_latency_usec);
  EXPECT_EQ(back.value().homed_hot, r.homed_hot);
  EXPECT_EQ(back.value().cached, r.cached);
  EXPECT_TRUE(back.value().caches(Sysname(1, 2)));
  EXPECT_FALSE(back.value().caches(Sysname(9, 9)));
}

TEST(LoadReport, RejectsMalformedWire) {
  Bytes wire = sampleReport().encode();
  EXPECT_FALSE(sched::LoadReport::decode({}).ok());
  // Unknown version byte.
  Bytes bad_version = wire;
  bad_version[0] = std::byte{0x7f};
  EXPECT_FALSE(sched::LoadReport::decode(bad_version).ok());
  // Truncated payload.
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(sched::LoadReport::decode(truncated).ok());
  // Trailing garbage.
  Bytes padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(sched::LoadReport::decode(padded).ok());
}

// ---------------------------------------------------------------- monitor

TEST(LoadMonitor, IntegerEwmaAndLocalSample) {
  sched::LoadMonitor::Providers p;
  p.live_threads = [] { return std::size_t{4}; };
  p.resident_frames = [] { return std::size_t{512}; };
  p.frame_capacity = [] { return std::size_t{2048}; };
  p.cached_segments = [](std::size_t max) {
    std::vector<Sysname> v{Sysname(1, 1), Sysname(1, 2), Sysname(1, 3)};
    if (v.size() > max) v.resize(max);
    return v;
  };
  sched::LoadMonitor mon(42, p, /*locality_segments=*/2);
  // First sample seeds the average; later ones decay with alpha = 1/8,
  // all in integer arithmetic (no doubles anywhere near determinism).
  mon.recordCompletion(sim::usec(800));
  EXPECT_EQ(mon.ewmaLatencyUsec(), 800u);
  mon.recordCompletion(sim::usec(1600));
  EXPECT_EQ(mon.ewmaLatencyUsec(), 800u - 800u / 8 + 1600u / 8);  // 900
  const sched::LoadReport r = mon.sample(5);
  EXPECT_EQ(r.node, 42u);
  EXPECT_EQ(r.seq, 5u);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_EQ(r.frame_permille, 250u);  // 512 / 2048
  EXPECT_EQ(r.ewma_latency_usec, 900u);
  EXPECT_EQ(r.homed_hot, 0u);  // provider not wired: reports zero pile
  EXPECT_EQ(r.cached.size(), 2u);  // digest capped at locality_segments
  // A crash wipes the volatile average.
  mon.reset();
  EXPECT_EQ(mon.ewmaLatencyUsec(), 0u);
}

// ---------------------------------------------------------------- table

sched::LoadReport reportFor(net::NodeId node, std::uint64_t seq, std::uint32_t threads) {
  sched::LoadReport r;
  r.node = node;
  r.seq = seq;
  r.threads = threads;
  return r;
}

TEST(LoadTable, StalenessAgingAndSilentEviction) {
  sim::MetricsRegistry reg;
  sched::LoadTable t({sim::msec(100), sim::msec(400)}, reg.counter("node/sched/stale_evictions"));
  t.record(reportFor(1, 1, 0), sim::msec(0), /*self=*/true);
  t.record(reportFor(2, 1, 0), sim::msec(0), /*self=*/false);
  ASSERT_NE(t.find(2), nullptr);
  EXPECT_FALSE(t.stale(*t.find(2), sim::msec(50)));
  EXPECT_TRUE(t.stale(*t.find(2), sim::msec(150)));
  // Before evict_after the silent peer survives (merely stale)...
  EXPECT_EQ(t.evictSilent(sim::msec(300)), 0u);
  // ...after it, the peer is presumed dead. The self entry never ages out:
  // a node always knows its own load.
  EXPECT_EQ(t.evictSilent(sim::msec(500)), 1u);
  EXPECT_EQ(t.find(2), nullptr);
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_EQ(reg.counterValue("node/sched/stale_evictions"), 1u);
}

TEST(LoadTable, InflightPlacementsChargeUntilFreshReport) {
  std::uint64_t evictions = 0;
  sched::LoadTable t({sim::msec(100), sim::msec(400)}, evictions);
  t.record(reportFor(2, 1, 2), sim::msec(0), false);
  t.notePlacement(2);
  t.notePlacement(2);
  EXPECT_EQ(t.find(2)->effectiveLoad(), 4u);  // 2 reported + 2 routed
  // A fresh report supersedes the correction...
  t.record(reportFor(2, 2, 3), sim::msec(10), false);
  EXPECT_EQ(t.find(2)->effectiveLoad(), 3u);
  // ...but a replayed / reordered stale-seq report is ignored.
  t.record(reportFor(2, 1, 9), sim::msec(20), false);
  EXPECT_EQ(t.find(2)->report.threads, 3u);
}

// ---------------------------------------------------------------- policy

sched::Candidate cand(net::NodeId node, std::uint64_t load, std::uint64_t ewma = 0,
                      bool stale = false, bool caches = false) {
  sched::Candidate c;
  c.node = node;
  c.load = load;
  c.ewma_usec = ewma;
  c.stale = stale;
  c.caches_target = caches;
  return c;
}

TEST(Policy, LeastLoadedPrefersFreshThenLoadThenLatency) {
  std::mt19937_64 rng(1);
  // A lighter but stale report loses to a fresh one: distrust old news.
  std::vector<sched::Candidate> c1{cand(1, 5), cand(2, 2), cand(3, 1, 0, /*stale=*/true)};
  EXPECT_EQ(sched::choosePlacement(sched::PolicyKind::least_loaded, c1, rng), 1u);
  // Load ties break on recent invocation latency, then node id.
  std::vector<sched::Candidate> c2{cand(1, 2, 900), cand(2, 2, 300)};
  EXPECT_EQ(sched::choosePlacement(sched::PolicyKind::least_loaded, c2, rng), 1u);
  std::vector<sched::Candidate> c3{cand(1, 2, 300), cand(2, 2, 300)};
  EXPECT_EQ(sched::choosePlacement(sched::PolicyKind::least_loaded, c3, rng), 0u);
}

TEST(Policy, PowerOfTwoProbesBothWithTwoCandidates) {
  // With exactly two candidates both probes land, so p2c must return the
  // strictly better one regardless of the rng draw.
  std::vector<sched::Candidate> c{cand(1, 7), cand(2, 1)};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(seed);
    EXPECT_EQ(sched::choosePlacement(sched::PolicyKind::power_of_two, c, rng), 1u);
  }
}

TEST(Policy, RandomAndP2cAreDeterministicPerSeed) {
  std::vector<sched::Candidate> c{cand(1, 3), cand(2, 3), cand(3, 3), cand(4, 3)};
  for (auto kind : {sched::PolicyKind::random, sched::PolicyKind::power_of_two}) {
    std::mt19937_64 a(99), b(99);
    const std::size_t pick_a = sched::choosePlacement(kind, c, a);
    const std::size_t pick_b = sched::choosePlacement(kind, c, b);
    EXPECT_EQ(pick_a, pick_b);
    EXPECT_LT(pick_a, c.size());
  }
}

TEST(Policy, LocalityPrefersCacheHoldersElseLeastLoaded) {
  std::mt19937_64 rng(1);
  // A server already caching the target's segments wins even when another
  // idle server exists ("data access via local disk is faster" — the DSM
  // analogue: reuse warm frames instead of faulting them over the wire).
  std::vector<sched::Candidate> warm{cand(1, 0), cand(2, 5, 0, false, /*caches=*/true),
                                     cand(3, 6, 0, false, /*caches=*/true)};
  EXPECT_EQ(sched::choosePlacement(sched::PolicyKind::locality, warm, rng), 1u);
  // Nobody caches: degrade to least-loaded.
  std::vector<sched::Candidate> cold{cand(1, 4), cand(2, 1), cand(3, 2)};
  EXPECT_EQ(sched::choosePlacement(sched::PolicyKind::locality, cold, rng), 1u);
}

// ---------------------------------------------------------------- cluster

struct SchedBed {
  Cluster cluster;
  explicit SchedBed(ClusterConfig cfg = config()) : cluster(std::move(cfg)) {
    obj::samples::registerAll(cluster.classes());
    obj::ClassDef slow;
    slow.name = "slow";
    slow.entry("work", [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<obj::Value> {
      ctx.compute(sim::sec(1));
      return obj::Value{};
    });
    cluster.classes().registerClass(std::move(slow));
  }
  static ClusterConfig config() {
    ClusterConfig cfg;
    cfg.compute_servers = 3;
    cfg.data_servers = 1;
    cfg.workstations = 1;
    return cfg;
  }
};

TEST(SchedCluster, GossipPopulatesEveryObserverTable) {
  SchedBed f;
  f.cluster.sim().runFor(sim::msec(200));  // a few 50 ms gossip rounds
  // The workstation chooser has heard from all three compute servers...
  auto& table = f.cluster.workstationSchedAgent(0).table();
  EXPECT_EQ(table.entries().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(table.find(f.cluster.computeNode(i).id()), nullptr) << i;
  }
  // ...and so has every compute peer (its own row is the self sample).
  EXPECT_EQ(f.cluster.schedAgent(1).table().entries().size(), 3u);
  const sim::MetricsRegistry& m = f.cluster.sim().metrics();
  EXPECT_GT(m.sumCounters("sched/reports_sent"), 0u);
  EXPECT_GT(m.sumCounters("sched/reports_received"),
            m.sumCounters("sched/reports_sent"));  // broadcast fan-out
}

TEST(SchedCluster, DisablingGossipMeasurablyChangesPlacement) {
  // With gossip on, a loaded first server is avoided. With the protocol off
  // the chooser's table stays empty — load knowledge has no other way to
  // travel — and placement degrades to the first live server (counted as a
  // fallback). Same workload, different placements: the wire protocol is
  // load-bearing, not decorative.
  auto run = [](bool gossip) {
    ClusterConfig cfg = SchedBed::config();
    cfg.sched.gossip = gossip;
    SchedBed f(cfg);
    ASSERT_TRUE(f.cluster.create("slow", "S").ok());
    auto a = f.cluster.start("S", "work", {}, 0);
    auto b = f.cluster.start("S", "work", {}, 0);
    f.cluster.sim().runFor(sim::msec(200));  // mid-compute; gossip has reported
    const int idx = f.cluster.scheduleComputeServer();
    const sim::MetricsRegistry& m = f.cluster.sim().metrics();
    if (gossip) {
      EXPECT_NE(idx, 0);
      EXPECT_EQ(m.sumCounters("sched/fallbacks"), 0u);
    } else {
      EXPECT_EQ(idx, 0);  // blind fallback, despite server 0 being busiest
      EXPECT_GT(m.sumCounters("sched/fallbacks"), 0u);
      EXPECT_EQ(m.sumCounters("sched/reports_sent"), 0u);
    }
    f.cluster.run();
    EXPECT_TRUE(a->done && b->done);
  };
  run(true);
  run(false);
}

TEST(SchedCluster, PartitionedServerAgesOutAndIsNeverPlacedOn) {
  SchedBed f;
  f.cluster.sim().runFor(sim::msec(200));  // everyone known
  ASSERT_NE(f.cluster.workstationSchedAgent(0).table().find(f.cluster.computeNode(0).id()),
            nullptr);
  // Cut cpu0 off from the rest of the cluster. It is alive and still
  // broadcasting, but nothing arrives: to everyone else it is
  // indistinguishable from a crash.
  f.cluster.ether().partitionGroups(
      {f.cluster.computeNode(0).id()},
      {f.cluster.computeNode(1).id(), f.cluster.computeNode(2).id(),
       f.cluster.dataNode(0).id(), f.cluster.workstationId(0)});
  f.cluster.sim().runFor(sim::msec(1300));  // past evict_after (1 s)
  // The scheduler degrades to its (reduced) view: placements keep working
  // but never land on the believed-dead server. (The listener chooser ages
  // its table inside place() — the compute peers also age theirs on every
  // gossip tick.)
  for (int i = 0; i < 6; ++i) EXPECT_NE(f.cluster.scheduleComputeServer(), 0);
  auto& table = f.cluster.workstationSchedAgent(0).table();
  EXPECT_EQ(table.find(f.cluster.computeNode(0).id()), nullptr);
  EXPECT_GT(f.cluster.sim().metrics().sumCounters("sched/stale_evictions"), 0u);
  // Heal: the next gossip rounds resurrect the entry.
  f.cluster.ether().healAll();
  f.cluster.sim().runFor(sim::msec(200));
  EXPECT_NE(table.find(f.cluster.computeNode(0).id()), nullptr);
}

TEST(SchedCluster, FallbackSkipsCrashedPreferredServer) {
  // Regression for the placement fallback: the preferred (least-loaded,
  // lowest-id) server crashes after its last report; within the eviction
  // window the chooser's table still lists it. place() must detect the dead
  // pick, drop it from the view, count a fallback and retry on a live peer.
  SchedBed f;
  ASSERT_TRUE(f.cluster.create("counter", "C").ok());
  sim::FaultPlan plan(f.cluster.sim(), 7);
  f.cluster.installFaultHooks(plan);
  plan.crashAt("cpu0", sim::msec(50));  // offsets count from arm()
  plan.arm();
  // Stop 120 ms later: the crash has fired, but cpu0's last broadcast (at
  // most one gossip period before the crash) is still younger than
  // stale_after — the chooser's table genuinely believes cpu0 is the
  // least-loaded, lowest-id pick.
  f.cluster.sim().runFor(sim::msec(120));
  const int idx = f.cluster.scheduleComputeServer();
  EXPECT_NE(idx, 0);
  EXPECT_GE(f.cluster.sim().metrics().sumCounters("sched/fallbacks"), 1u);
  auto h = f.cluster.start("C", "add_gcp", {1}, idx);
  f.cluster.run();
  ASSERT_TRUE(h->done);
  EXPECT_TRUE(h->result.ok());
}

TEST(SchedCluster, LocalityPolicyFollowsWarmDsmCaches) {
  ClusterConfig cfg = SchedBed::config();
  cfg.sched.policy = sched::PolicyKind::locality;
  SchedBed f(cfg);
  auto created = f.cluster.create("counter", "C");  // runs on cpu0: warms it
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(f.cluster.call("C", "value", {}, 1).ok());  // warms cpu1 too
  ASSERT_TRUE(f.cluster.create("slow", "S").ok());
  // Load the other cache holder; cpu2 stays idle but cold.
  auto a = f.cluster.start("S", "work", {}, 0);
  auto b = f.cluster.start("S", "work", {}, 0);
  f.cluster.sim().runFor(sim::msec(200));  // gossip digests now carry the caches
  // Among the servers caching C's segments {cpu0, cpu1}, the lighter one
  // wins; the idle-but-cold cpu2 is passed over.
  EXPECT_EQ(f.cluster.scheduleComputeServer(created.value()), 1);
  f.cluster.run();
  EXPECT_TRUE(a->done && b->done);
}

TEST(SchedCluster, OraclePolicyBypassesGossip) {
  // The omniscient baseline still works (benches compare against it) and
  // never touches the message-fed tables.
  ClusterConfig cfg = SchedBed::config();
  cfg.sched.policy = sched::PolicyKind::oracle;
  cfg.sched.gossip = false;
  SchedBed f(cfg);
  ASSERT_TRUE(f.cluster.create("slow", "S").ok());
  auto a = f.cluster.start("S", "work", {}, 0);
  auto c = f.cluster.start("S", "work", {}, 1);
  f.cluster.sim().runFor(sim::msec(100));
  EXPECT_EQ(f.cluster.scheduleComputeServer(), 2);
  EXPECT_EQ(f.cluster.sim().metrics().sumCounters("sched/placements"), 0u);  // sched/ not consulted
  f.cluster.run();
  EXPECT_TRUE(a->done && c->done);
}

}  // namespace
}  // namespace clouds
