// Property tests for the sim::Metrics layer: bucket accounting, merge
// commutativity, and snapshot stability under registration order — the
// invariants the determinism suite and the benches lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sim/metrics.hpp"

namespace clouds::sim {
namespace {

TEST(Histogram, BucketCountsSumToObservationCount) {
  std::mt19937_64 rng(7);
  Histogram h({10, 100, 1000, 10000});
  std::int64_t expected_sum = 0;
  constexpr int kObservations = 5000;
  for (int i = 0; i < kObservations; ++i) {
    // Spread across every bucket including overflow and the exact bounds.
    const std::int64_t v = static_cast<std::int64_t>(rng() % 20000);
    h.observe(v);
    expected_sum += v;
  }
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : h.bucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kObservations));
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(h.bucketCounts().size(), h.bounds().size() + 1);
}

TEST(Histogram, BoundsAreInclusiveUpperBounds) {
  Histogram h({10, 100});
  h.observe(10);   // lands in bucket 0 (v <= 10)
  h.observe(11);   // bucket 1
  h.observe(100);  // bucket 1
  h.observe(101);  // overflow
  ASSERT_EQ(h.bucketCounts().size(), 3u);
  EXPECT_EQ(h.bucketCounts()[0], 1u);
  EXPECT_EQ(h.bucketCounts()[1], 2u);
  EXPECT_EQ(h.bucketCounts()[2], 1u);
}

TEST(Histogram, ObserveDurationRecordsMicroseconds) {
  Histogram h({100, 1000});
  h.observe(msec(1));  // 1000 usec -> bucket 1
  EXPECT_EQ(h.sum(), 1000);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
}

TEST(Histogram, MergeAddsAndRejectsShapeMismatch) {
  Histogram a({10, 100});
  Histogram b({10, 100});
  a.observe(5);
  b.observe(50);
  b.observe(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 555);
  Histogram c({10, 100, 1000});
  EXPECT_THROW(a.merge(c), std::logic_error);
}

TEST(Histogram, QuantileInterpolatesInsideTheOwningBucket) {
  Histogram h({10, 100, 1000});
  // 10 observations in (10, 100]: ranks 1..10 all live in bucket 1.
  for (int i = 0; i < 10; ++i) h.observe(50);
  // p50 -> rank 5 of 10 inside [10, 100]: 10 + 90*5/10 = 55.
  EXPECT_EQ(h.quantile(0.50), 55);
  // p100 -> rank 10: the bucket's upper bound.
  EXPECT_EQ(h.quantile(1.0), 100);
  // p0 clamps to rank 1.
  EXPECT_EQ(h.quantile(0.0), 10 + 90 * 1 / 10);
}

TEST(Histogram, QuantileWalksAcrossBuckets) {
  Histogram h({10, 100, 1000});
  for (int i = 0; i < 90; ++i) h.observe(5);     // bucket 0
  for (int i = 0; i < 9; ++i) h.observe(500);    // bucket 2
  h.observe(5000);                               // overflow
  // p50 -> rank 50 of 100, inside bucket 0 ([0, 10]).
  EXPECT_EQ(h.quantile(0.50), 0 + 10 * 50 / 90);
  // p95 -> rank 95, inside bucket 2 ([100, 1000], 5th of its 9).
  EXPECT_EQ(h.quantile(0.95), 100 + 900 * 5 / 9);
  // p99+ lands in the overflow slot and clamps to the last bound.
  EXPECT_EQ(h.quantile(0.999), 1000);
}

TEST(Histogram, QuantileOnEmptyHistogramIsZero) {
  Histogram h({10, 100});
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(MetricsRegistry, PercentilesJsonIsSortedAndSkipsEmptyHistograms) {
  MetricsRegistry r;
  r.histogram("b/lat", {10, 100}).observe(50);
  r.histogram("a/lat", {10, 100});  // registered but never observed: omitted
  r.histogram("c/lat", {10, 100}).observe(5);
  const std::string json = r.percentilesJson();
  EXPECT_EQ(json.find("a/lat"), std::string::npos);
  const auto b_pos = json.find("b/lat");
  const auto c_pos = json.find("c/lat");
  ASSERT_NE(b_pos, std::string::npos);
  ASSERT_NE(c_pos, std::string::npos);
  EXPECT_LT(b_pos, c_pos);
  // Shape: count + the three fixed quantiles, integers only.
  EXPECT_NE(json.find("\"b/lat\":{\"count\":1,\"p50\":"), std::string::npos);
  // Determinism: rebuilding in a different order yields the same bytes.
  MetricsRegistry r2;
  r2.histogram("c/lat", {10, 100}).observe(5);
  r2.histogram("a/lat", {10, 100});
  r2.histogram("b/lat", {10, 100}).observe(50);
  EXPECT_EQ(r2.percentilesJson(), json);
}

// Build a registry from (name, kind, amount) actions applied in the given
// order.
struct Action {
  enum Kind { counter, gauge, histogram } kind;
  const char* name;
  std::int64_t amount;
};

MetricsRegistry build(const std::vector<Action>& actions) {
  MetricsRegistry r;
  for (const Action& a : actions) {
    switch (a.kind) {
      case Action::counter: r.counter(a.name) += static_cast<std::uint64_t>(a.amount); break;
      case Action::gauge: r.gauge(a.name) += a.amount; break;
      case Action::histogram: r.histogram(a.name).observe(a.amount); break;
    }
  }
  return r;
}

TEST(MetricsRegistry, ToJsonStableUnderInsertionOrderPermutations) {
  std::vector<Action> actions = {
      {Action::counter, "node1/ratp/retransmits", 3},
      {Action::counter, "node0/dsm/read_faults", 17},
      {Action::gauge, "node0/dsm/resident_frames", 42},
      {Action::histogram, "node0/ratp/txn_latency_usec", 4800},
      {Action::counter, "net/eth/frames_on_wire", 99},
  };
  std::sort(actions.begin(), actions.end(),
            [](const Action& a, const Action& b) { return std::string(a.name) < b.name; });
  const std::string reference = build(actions).toJson();
  int permutations = 0;
  do {
    EXPECT_EQ(build(actions).toJson(), reference);
  } while (std::next_permutation(actions.begin(), actions.end(),
                                 [](const Action& a, const Action& b) {
                                   return std::string(a.name) < b.name;
                                 }) &&
           ++permutations < 120);
  EXPECT_GT(permutations, 0);
}

TEST(MetricsRegistry, MergeIsCommutative) {
  const MetricsRegistry a = build({
      {Action::counter, "n0/ratp/retransmits", 2},
      {Action::counter, "n0/dsm/read_faults", 5},
      {Action::gauge, "n0/load", -3},
      {Action::histogram, "n0/lat", 120},
      {Action::histogram, "shared/lat", 90},
  });
  const MetricsRegistry b = build({
      {Action::counter, "n0/ratp/retransmits", 7},
      {Action::counter, "n1/ratp/timeouts", 1},
      {Action::gauge, "n0/load", 9},
      {Action::histogram, "shared/lat", 100000},
  });
  MetricsRegistry ab = a;
  ab.merge(b);
  MetricsRegistry ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.toJson(), ba.toJson());
  EXPECT_EQ(ab.counterValue("n0/ratp/retransmits"), 9u);
  EXPECT_EQ(ab.counterValue("n1/ratp/timeouts"), 1u);
  EXPECT_EQ(ab.gaugeValue("n0/load"), 6);
  ASSERT_NE(ab.findHistogram("shared/lat"), nullptr);
  EXPECT_EQ(ab.findHistogram("shared/lat")->count(), 2u);
}

TEST(MetricsRegistry, LookupsOnAbsentMetricsAreNeutral) {
  MetricsRegistry r;
  EXPECT_EQ(r.counterValue("nope"), 0u);
  EXPECT_EQ(r.gaugeValue("nope"), 0);
  EXPECT_EQ(r.findHistogram("nope"), nullptr);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.toJson(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistry, HandlesAreStableAcrossLaterRegistrations) {
  MetricsRegistry r;
  std::uint64_t& c = r.counter("a/first");
  for (int i = 0; i < 100; ++i) r.counter("b/filler" + std::to_string(i));
  c += 5;
  EXPECT_EQ(r.counterValue("a/first"), 5u);
}

TEST(MetricsRegistry, ClearEmptiesEverything) {
  MetricsRegistry r = build({{Action::counter, "a", 1}, {Action::histogram, "h", 10}});
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.toJson(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistry, SumCountersMatchesWholeNameSegmentsOnly) {
  MetricsRegistry r;
  r.counter("a/ratp/retransmits") = 3;
  r.counter("b/ratp/retransmits") = 4;
  r.counter("a/ratp/retransmits_x") = 100;
  r.counter("a/ratp/my_retransmits") = 200;
  r.counter("ratp/retransmits") = 300;  // no node segment in front
  r.gauge("c/ratp/retransmits") = 400;  // gauges are not counters
  EXPECT_EQ(r.sumCounters("ratp/retransmits"), 7u);
  EXPECT_EQ(r.sumCounters("retransmits"), 307u);  // "ratp/retransmits" ends in it too
  EXPECT_EQ(r.sumCounters("ratp/retransmits_x"), 100u);
  EXPECT_EQ(r.sumCounters("nope"), 0u);
}

TEST(MetricsRegistry, SumCountersOnEmptyRegistryIsZero) {
  MetricsRegistry r;
  EXPECT_EQ(r.sumCounters("ratp/retransmits"), 0u);
}

TEST(MetricsRegistry, SumCountersIndependentOfMergeOrder) {
  MetricsRegistry a;
  a.counter("n0/wal/forces") = 5;
  a.counter("n1/wal/forces") = 1;
  MetricsRegistry b;
  b.counter("n1/wal/forces") = 2;
  b.counter("n2/wal/forces") = 7;
  MetricsRegistry ab = a;
  ab.merge(b);
  MetricsRegistry ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.sumCounters("wal/forces"), 15u);
  EXPECT_EQ(ba.sumCounters("wal/forces"), 15u);
}

}  // namespace
}  // namespace clouds::sim
