// The paper's defining property (§2.1): "a Clouds object exists forever and
// survives system crashes and shutdowns (like a file) unless explicitly
// deleted." A whole cluster is shut down (destroyed), re-created, and
// resumed from its snapshot; every object — plain data, heap structures,
// files, committed bank state — is exactly where it was.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace clouds {
namespace {

using obj::Value;

// A snapshot directory of the running test's own: ctest runs these tests
// as parallel processes, and a shared directory lets one test's snapshot
// overwrite another's mid-run.
std::string snapshotDir() {
  const std::string dir = ::testing::TempDir() + "clouds_persistence_" +
                          ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  return dir;
}

ClusterConfig config(std::uint64_t seed = 42,
                     store::StoreEngine engine = store::StoreEngine::wal) {
  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 2;
  cfg.seed = seed;
  cfg.store_engine = engine;
  return cfg;
}

TEST(Persistence, ObjectsSurviveClusterShutdown) {
  const std::string dir = snapshotDir();
  {
    Cluster first(config(1));
    obj::samples::registerAll(first.classes());
    ASSERT_TRUE(first.create("rectangle", "Rect01", 0).ok());
    ASSERT_TRUE(first.call("Rect01", "size", {5, 10}).ok());
    ASSERT_TRUE(first.create("counter", "Hits", 1).ok());  // second data server
    ASSERT_TRUE(first.call("Hits", "add", {41}).ok());
    ASSERT_TRUE(first.create("file", "Log", 0).ok());
    ASSERT_TRUE(first.call("Log", "append", {toBytes("line one\n")}).ok());
    ASSERT_TRUE(first.call("Hits", "add", {1}).ok());
    // saveTo syncs: dirty s-thread pages reach the stores first.
    ASSERT_TRUE(first.saveTo(dir).ok());
  }  // total shutdown: every node, cache and process is gone
  {
    Cluster second(config(2));  // even a different seed
    obj::samples::registerAll(second.classes());
    ASSERT_TRUE(second.loadFrom(dir).ok());
    EXPECT_EQ(second.call("Rect01", "area").value(), Value{50});
    EXPECT_EQ(second.call("Hits", "value").value(), Value{42});
    auto content = second.call("Log", "read", {0, 100});
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(toString(content.value().asBytes().value()), "line one\n");
    // The resumed system is fully writable: new objects get fresh sysnames
    // that do not collide with pre-shutdown ones.
    ASSERT_TRUE(second.create("counter", "New", 0).ok());
    ASSERT_TRUE(second.call("New", "add", {7}).ok());
    EXPECT_EQ(second.call("New", "value").value(), Value{7});
  }
}

TEST(Persistence, CommittedTransactionsSurviveShutdown) {
  const std::string dir = snapshotDir();
  {
    Cluster first(config());
    obj::samples::registerAll(first.classes());
    ASSERT_TRUE(first.create("bank", "Bank").ok());
    ASSERT_TRUE(first.call("Bank", "init", {8, 100}).ok());
    ASSERT_TRUE(first.call("Bank", "transfer", {0, 1, 30}).ok());
    (void)first.call("Bank", "transfer_fail", {2, 3, 50});  // aborted: must not survive
    ASSERT_TRUE(first.saveTo(dir).ok());
  }
  {
    Cluster second(config());
    obj::samples::registerAll(second.classes());
    ASSERT_TRUE(second.loadFrom(dir).ok());
    EXPECT_EQ(second.call("Bank", "balance", {0}).value(), Value{70});
    EXPECT_EQ(second.call("Bank", "balance", {1}).value(), Value{130});
    EXPECT_EQ(second.call("Bank", "balance", {2}).value(), Value{100});
    EXPECT_EQ(second.call("Bank", "total").value(), Value{800});
  }
}

// Storage engine v2 regression: a snapshot taken while committed updates
// are still riding in the WAL's dirty table (durable only as log records,
// not yet written back to the segment images) must round-trip the log —
// and must load into either engine (docs/STORAGE.md, snapshot format v2).
TEST(Persistence, WalLogStateSurvivesShutdownIntoEitherEngine) {
  const std::string dir = snapshotDir();
  {
    Cluster first(config(7, store::StoreEngine::wal));
    obj::samples::registerAll(first.classes());
    ASSERT_TRUE(first.create("counter", "WalHits", 0).ok());
    ASSERT_TRUE(first.call("WalHits", "add", {5}).ok());
    ASSERT_TRUE(first.call("WalHits", "add", {8}).ok());
    // The wal path really ran: commits were group-forced into the log.
    EXPECT_GT(first.sim().metrics().sumCounters("wal/forces"), 0u);
    ASSERT_TRUE(first.saveTo(dir).ok());
  }
  {
    Cluster second(config(8, store::StoreEngine::wal));
    obj::samples::registerAll(second.classes());
    ASSERT_TRUE(second.loadFrom(dir).ok());
    EXPECT_EQ(second.call("WalHits", "value").value(), Value{13});
    // The resumed log is live, not a fossil: new commits append and force.
    ASSERT_TRUE(second.call("WalHits", "add", {2}).ok());
    EXPECT_EQ(second.call("WalHits", "value").value(), Value{15});
  }
  {
    // Cross-engine load: a flat cluster replays the snapshot's durable log
    // into its images and sees the same committed state.
    Cluster third(config(9, store::StoreEngine::flat));
    obj::samples::registerAll(third.classes());
    ASSERT_TRUE(third.loadFrom(dir).ok());
    EXPECT_EQ(third.call("WalHits", "value").value(), Value{13});
  }
}

TEST(Persistence, SnapshotOfMissingDirectoryFails) {
  Cluster c(config());
  EXPECT_EQ(c.loadFrom("/nonexistent/path").code(), Errc::io);
}

}  // namespace
}  // namespace clouds
