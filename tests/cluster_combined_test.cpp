// Combined compute+data machines (paper §3): "a machine with a disk can
// simultaneously be a compute and data server. This enhances computing
// performance, since data access via local disk is faster than data access
// over a network."
#include <gtest/gtest.h>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace clouds {
namespace {

using obj::Value;

ClusterConfig combinedConfig() {
  ClusterConfig cfg;
  cfg.compute_servers = 1;  // diskless, index 0
  cfg.data_servers = 1;     // pure data, index 0
  cfg.combined_servers = 1; // compute index 1 == data index 1
  cfg.workstations = 0;
  return cfg;
}

TEST(CombinedNodes, TopologyViewsAreConsistent) {
  Cluster c(combinedConfig());
  EXPECT_EQ(c.computeCount(), 2);
  EXPECT_EQ(c.dataCount(), 2);
  // The combined machine appears in both views as the same node.
  EXPECT_EQ(&c.computeNode(1), &c.dataNode(1));
  EXPECT_NE(&c.computeNode(0), &c.dataNode(0));
}

TEST(CombinedNodes, ObjectsWorkFromBothRoles) {
  Cluster c(combinedConfig());
  obj::samples::registerAll(c.classes());
  // Object homed on the combined machine's own disk.
  ASSERT_TRUE(c.create("counter", "Local", /*data_idx=*/1, /*compute_idx=*/1).ok());
  ASSERT_TRUE(c.call("Local", "add", {5}, 1).ok());
  // Visible from the diskless node too (over the network).
  EXPECT_EQ(c.call("Local", "value", {}, 0).value(), Value{5});
  // And coherent back again.
  ASSERT_TRUE(c.call("Local", "add", {1}, 0).ok());
  EXPECT_EQ(c.call("Local", "value", {}, 1).value(), Value{6});
}

TEST(CombinedNodes, LocalDiskAccessIsFasterThanNetwork) {
  // The paper's performance claim, measured: a cold invocation of an object
  // homed on the invoking machine's own disk vs. the same cold invocation
  // from a diskless machine across the Ethernet.
  Cluster c(combinedConfig());
  obj::samples::registerAll(c.classes());
  ASSERT_TRUE(c.create("counter", "C", /*data_idx=*/1).ok());

  auto coldCall = [&](int compute_idx) {
    // Deactivate everywhere and drop caches so the call is cold.
    for (int i = 0; i < c.computeCount(); ++i) {
      c.runtime(i).spawnThread("cool", [&, i](obj::CloudsThread& t) {
        auto target = c.runtime(i).resolveTarget(t, "C");
        if (target.ok()) (void)c.runtime(i).deactivateObject(*t.process, target.value());
      });
      c.run();
      c.dsmClient(i).loseVolatileState();
    }
    c.store(1).clearBufferCache();
    auto h = c.start("C", "value", {}, compute_idx);
    const auto t0 = c.sim().now();
    c.run();
    EXPECT_TRUE(h->done && h->result.ok());
    return sim::toMillis(h->completed_at - t0);
  };

  const double local_ms = coldCall(1);   // combined machine: its own disk
  const double remote_ms = coldCall(0);  // diskless machine: over the wire
  EXPECT_LT(local_ms, remote_ms);
  EXPECT_GT(remote_ms - local_ms, 5.0);  // network pages cost real time
}

TEST(CombinedNodes, GcpCommitWorksWithLocalParticipant) {
  Cluster c(combinedConfig());
  obj::samples::registerAll(c.classes());
  ASSERT_TRUE(c.create("bank", "Bank", /*data_idx=*/1).ok());
  ASSERT_TRUE(c.call("Bank", "init", {4, 100}, 1).ok());
  ASSERT_TRUE(c.call("Bank", "transfer", {0, 1, 30}, 1).ok());
  EXPECT_EQ(c.call("Bank", "total", {}, 0).value(), Value{400});
  EXPECT_EQ(c.call("Bank", "balance", {1}, 0).value(), Value{130});
  // Rollback path on the combined node.
  EXPECT_FALSE(c.call("Bank", "transfer_fail", {0, 1, 10}, 1).ok());
  EXPECT_EQ(c.call("Bank", "total", {}, 1).value(), Value{400});
}

TEST(CombinedNodes, LocallyHomedSegmentOpsStayOffTheWire) {
  // Every DSM op on a segment homed on the combined machine itself is a
  // syscall into the co-located data server: no RaTP transaction, no frame.
  // Gossip is off so nothing else on the machine talks meanwhile.
  ClusterConfig cfg = combinedConfig();
  cfg.sched.gossip = false;
  Cluster c(cfg);
  c.run();
  ra::Node& node = c.computeNode(1);
  dsm::DsmClientPartition& dsm = c.dsmClient(1);
  const auto counter = [&](const std::string& what) {
    return c.sim().metrics().counterValue(node.name() + "/" + what);
  };
  const std::uint64_t txns_before = counter("ratp/transactions");
  const std::uint64_t frames_before = counter("eth/frames_sent");

  Sysname seg;
  Errc stat_after_destroy = Errc::ok;
  c.sim().spawn("local", [&](sim::Process& self) {
    auto created = dsm.createSegment(self, node.id(), 4 * ra::kPageSize);
    ASSERT_TRUE(created.ok());
    seg = created.value();
    auto info = dsm.stat(self, seg);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().length, 4 * ra::kPageSize);
    auto page = dsm.resolvePage(self, {seg, 2}, ra::Access::write);
    ASSERT_TRUE(page.ok());
    page.value().data[0] = std::byte{0x5a};
    ASSERT_TRUE(dsm.flushSegment(self, seg).ok());
    ASSERT_TRUE(dsm.destroySegment(self, seg).ok());
    stat_after_destroy = dsm.stat(self, seg).code();
  });
  c.run();
  EXPECT_EQ(counter("ratp/transactions"), txns_before);
  EXPECT_EQ(counter("eth/frames_sent"), frames_before);
  EXPECT_EQ(stat_after_destroy, Errc::not_found);

  // A diskless compute server asking the same question over the wire gets
  // the same code.
  Errc remote_stat = Errc::ok;
  c.sim().spawn("remote", [&](sim::Process& self) {
    remote_stat = c.dsmClient(0).stat(self, seg).code();
  });
  c.run();
  EXPECT_EQ(remote_stat, Errc::not_found);
}

}  // namespace
}  // namespace clouds
