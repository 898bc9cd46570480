#include "store/disk_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/simulation.hpp"

namespace clouds::store {
namespace {

struct StoreFixture {
  sim::Simulation sim{7};
  sim::CostModel cost;
  DiskStore store{100, cost, /*cache=*/4};

  StoreFixture() { store.attachMetrics(sim.metrics(), "ds"); }
  std::uint64_t counter(const std::string& name) const {
    return sim.metrics().counterValue("ds/" + name);
  }

  // Run fn inside a process and drain the simulation.
  void run(std::function<void(sim::Process&)> fn) {
    sim.spawn("driver", std::move(fn));
    sim.run();
  }
  static Bytes page(std::byte fill) { return Bytes(ra::kPageSize, fill); }
};

TEST(DiskStore, CreateStatDestroy) {
  StoreFixture f;
  auto name = f.store.createSegment(3 * ra::kPageSize);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(ra::sysnameHome(name.value()), 100u);
  auto info = f.store.stat(name.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().length, 3 * ra::kPageSize);
  EXPECT_EQ(info.value().pageCount(), 3u);
  ASSERT_TRUE(f.store.destroySegment(name.value()).ok());
  EXPECT_EQ(f.store.stat(name.value()).code(), Errc::not_found);
}

TEST(DiskStore, UnwrittenPagesReadZeroWithoutDiskIo) {
  StoreFixture f;
  auto name = f.store.createSegment(ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    Bytes buf(ra::kPageSize, std::byte{0xff});
    auto written = f.store.readPage(self, {name, 0}, buf);
    ASSERT_TRUE(written.ok());
    EXPECT_FALSE(written.value());
    EXPECT_EQ(buf[0], std::byte{0});
    EXPECT_EQ(f.counter("disk/reads"), 0u);
    EXPECT_EQ(f.sim.now(), sim::kZero);  // no mechanical delay
  });
}

TEST(DiskStore, WriteThenReadBackWithDiskCosts) {
  StoreFixture f;
  auto name = f.store.createSegment(2 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    ASSERT_TRUE(f.store.writePage(self, {name, 1}, StoreFixture::page(std::byte{0xab})).ok());
    Bytes buf(ra::kPageSize);
    auto written = f.store.readPage(self, {name, 1}, buf);
    ASSERT_TRUE(written.ok());
    EXPECT_TRUE(written.value());
    EXPECT_EQ(buf[100], std::byte{0xab});
    // The read hit the buffer cache (just written): one disk write, no read.
    EXPECT_EQ(f.counter("disk/writes"), 1u);
    EXPECT_EQ(f.counter("disk/reads"), 0u);
  });
}

TEST(DiskStore, BufferCacheMissPaysSeek) {
  StoreFixture f;
  auto name = f.store.createSegment(ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    ASSERT_TRUE(f.store.writePage(self, {name, 0}, StoreFixture::page(std::byte{1})).ok());
    f.store.clearBufferCache();
    const auto before = f.sim.now();
    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());
    EXPECT_EQ(f.sim.now() - before, f.cost.disk_seek_rotate + f.cost.disk_per_page);
    EXPECT_EQ(f.counter("disk/reads"), 1u);
  });
}

TEST(DiskStore, CacheEvictsLru) {
  StoreFixture f;  // cache capacity 4
  auto name = f.store.createSegment(8 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    for (std::uint32_t p = 0; p < 6; ++p) {
      ASSERT_TRUE(
          f.store.writePage(self, {name, p}, StoreFixture::page(std::byte{0x11})).ok());
    }
    Bytes buf(ra::kPageSize);
    const auto reads_before = f.counter("disk/reads");
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());  // evicted: page 0 re-read
    EXPECT_EQ(f.counter("disk/reads"), reads_before + 1);
  });
}

TEST(DiskStore, CacheCountersTrackHitsMissesEvictions) {
  StoreFixture f;  // cache capacity 4
  auto name = f.store.createSegment(6 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    for (std::uint32_t p = 0; p < 5; ++p) {
      ASSERT_TRUE(f.store.writePage(self, {name, p}, StoreFixture::page(std::byte{1})).ok());
    }
    EXPECT_EQ(f.counter("store/cache_evictions"), 1u);  // page 0 fell out when page 4 arrived
    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(f.store.readPage(self, {name, 4}, buf).ok());  // resident
    EXPECT_EQ(f.counter("store/cache_hits"), 1u);
    EXPECT_EQ(f.counter("store/cache_misses"), 0u);
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());  // was evicted
    EXPECT_EQ(f.counter("store/cache_misses"), 1u);
    EXPECT_EQ(f.counter("store/cache_evictions"), 2u);  // page 1 is the LRU victim now
    // The hit refreshed recency, so page 4 must still be resident.
    const auto reads = f.counter("disk/reads");
    ASSERT_TRUE(f.store.readPage(self, {name, 4}, buf).ok());
    EXPECT_EQ(f.counter("disk/reads"), reads);
  });
}

TEST(DiskStore, OutOfRangeAndUnknownErrors) {
  StoreFixture f;
  auto name = f.store.createSegment(ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    Bytes buf(ra::kPageSize);
    EXPECT_EQ(f.store.readPage(self, {name, 5}, buf).code(), Errc::bad_argument);
    EXPECT_EQ(f.store.readPage(self, {Sysname(1, 2), 0}, buf).code(), Errc::not_found);
    Bytes small(10);
    EXPECT_EQ(f.store.readPage(self, {name, 0}, small).code(), Errc::bad_argument);
  });
}

TEST(DiskStore, PreparedTransactionLifecycle) {
  StoreFixture f;
  auto name = f.store.createSegment(2 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    std::vector<PageUpdate> ups;
    ups.push_back({{name, 0}, StoreFixture::page(std::byte{0x42})});
    ASSERT_TRUE(f.store.prepare(self, 777, std::move(ups)).ok());
    EXPECT_TRUE(f.store.hasPrepared(777));
    // Not yet visible.
    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0});
    // Commit applies.
    ASSERT_TRUE(f.store.commitPrepared(self, 777).ok());
    EXPECT_FALSE(f.store.hasPrepared(777));
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0x42});
    // Idempotent: committing again is a no-op.
    ASSERT_TRUE(f.store.commitPrepared(self, 777).ok());
  });
}

TEST(DiskStore, AbortDiscardsPrepared) {
  StoreFixture f;
  auto name = f.store.createSegment(ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    std::vector<PageUpdate> ups;
    ups.push_back({{name, 0}, StoreFixture::page(std::byte{0x99})});
    ASSERT_TRUE(f.store.prepare(self, 1, std::move(ups)).ok());
    ASSERT_TRUE(f.store.abortPrepared(self, 1).ok());
    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0});
  });
}

TEST(DiskStore, PreparedLogSurvivesVolatileLoss) {
  StoreFixture f;
  auto name = f.store.createSegment(ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    std::vector<PageUpdate> ups;
    ups.push_back({{name, 0}, StoreFixture::page(std::byte{0x33})});
    ASSERT_TRUE(f.store.prepare(self, 5, std::move(ups)).ok());
    f.store.loseVolatileState();  // crash: cache gone, log intact
    EXPECT_TRUE(f.store.hasPrepared(5));
    EXPECT_EQ(f.store.preparedKeys(5).size(), 1u);
    ASSERT_TRUE(f.store.commitPrepared(self, 5).ok());
    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(f.store.readPage(self, {name, 0}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0x33});
  });
}

TEST(DiskStore, SnapshotRoundTripThroughHostFile) {
  const std::string path = ::testing::TempDir() + "/clouds_store_snapshot.bin";
  Sysname name;
  {
    StoreFixture f;
    name = f.store.createSegment(2 * ra::kPageSize).value();
    f.run([&](sim::Process& self) {
      ASSERT_TRUE(f.store.writePage(self, {name, 1}, StoreFixture::page(std::byte{0x5a})).ok());
      std::vector<PageUpdate> ups;
      ups.push_back({{name, 0}, StoreFixture::page(std::byte{0x77})});
      ASSERT_TRUE(f.store.prepare(self, 9, std::move(ups)).ok());
    });
    ASSERT_TRUE(f.store.saveTo(path).ok());
  }
  {
    StoreFixture f;
    ASSERT_TRUE(f.store.loadFrom(path).ok());
    EXPECT_TRUE(f.store.hasPrepared(9));  // in-doubt transaction survives shutdown
    f.run([&](sim::Process& self) {
      Bytes buf(ra::kPageSize);
      ASSERT_TRUE(f.store.readPage(self, {name, 1}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x5a});
      // New segments do not collide with pre-shutdown names.
      auto fresh = f.store.createSegment(ra::kPageSize);
      ASSERT_TRUE(fresh.ok());
      EXPECT_NE(fresh.value(), name);
    });
  }
  std::remove(path.c_str());
}

TEST(DiskStore, ResizeDropsTruncatedPages) {
  StoreFixture f;
  auto name = f.store.createSegment(3 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    ASSERT_TRUE(f.store.writePage(self, {name, 2}, StoreFixture::page(std::byte{9})).ok());
    ASSERT_TRUE(f.store.resize(name, ra::kPageSize).ok());
    Bytes buf(ra::kPageSize);
    EXPECT_EQ(f.store.readPage(self, {name, 2}, buf).code(), Errc::bad_argument);
    ASSERT_TRUE(f.store.resize(name, 3 * ra::kPageSize).ok());
    // Regrown pages are zero-filled, not resurrected.
    auto written = f.store.readPage(self, {name, 2}, buf);
    ASSERT_TRUE(written.ok());
    EXPECT_FALSE(written.value());
  });
}

}  // namespace
}  // namespace clouds::store
