// Direct unit coverage for sim::TraceSink — the digest is what the
// determinism suite compares, so its behaviour under the keep-entries and
// clear() knobs must be pinned down exactly.
#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace clouds::sim {
namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

void feed(TraceSink& sink) {
  sink.record(msec(1), "node0", "ratp", "retransmit tx 7");
  sink.record(msec(2), "node1", "dsm", "read fault page 3");
  sink.record(msec(2), "node1", "dsm", "read fault page 3");  // duplicates count too
  sink.record(msec(40), "net", "eth", "frame dropped");
}

TEST(TraceSink, FreshSinkStartsAtFnvOffsetBasis) {
  TraceSink sink;
  EXPECT_EQ(sink.digest(), kFnvOffsetBasis);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_TRUE(sink.entries().empty());
}

TEST(TraceSink, KeepEntriesFalsePreservesDigestAndCount) {
  TraceSink keeping;
  keeping.setKeepEntries(true);
  TraceSink digest_only;
  digest_only.setKeepEntries(false);
  feed(keeping);
  feed(digest_only);

  // Same stream, same digest and count — whether or not entries are stored.
  EXPECT_EQ(digest_only.digest(), keeping.digest());
  EXPECT_EQ(digest_only.count(), keeping.count());
  EXPECT_EQ(keeping.count(), 4u);
  EXPECT_EQ(keeping.entries().size(), 4u);
  EXPECT_TRUE(digest_only.entries().empty());
  EXPECT_NE(digest_only.digest(), kFnvOffsetBasis);
}

TEST(TraceSink, DigestDependsOnContentAndTime) {
  TraceSink a, b, c;
  a.record(msec(1), "n", "cat", "x");
  b.record(msec(1), "n", "cat", "y");   // different message
  c.record(msec(2), "n", "cat", "x");   // different timestamp
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(TraceSink, ClearResetsDigestToSeedValue) {
  TraceSink sink;
  feed(sink);
  ASSERT_NE(sink.digest(), kFnvOffsetBasis);
  sink.clear();
  EXPECT_EQ(sink.digest(), kFnvOffsetBasis);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_TRUE(sink.entries().empty());

  // A cleared sink behaves exactly like a fresh one.
  TraceSink fresh;
  feed(sink);
  feed(fresh);
  EXPECT_EQ(sink.digest(), fresh.digest());
  EXPECT_EQ(sink.count(), fresh.count());
}

}  // namespace
}  // namespace clouds::sim
