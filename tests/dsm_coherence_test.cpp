// One-copy semantics of the DSM layer (paper §3.2): "care must be taken to
// ensure that at all times A and B see the exact same contents of O".
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace clouds::test {
namespace {

using dsm::LockMode;
using ra::Access;
using ra::kPageSize;
using ra::PageKey;

struct DsmFixture : Testbed {
  Sysname seg;
  explicit DsmFixture(int n_compute = 2, int n_data = 1, std::uint64_t seed = 42,
                      std::size_t frame_capacity = 2048)
      : Testbed(n_compute, n_data, seed, frame_capacity) {
    seg = data[0].store->createSegment(4 * kPageSize).value();
  }

  // Read/write helpers through the partition (whole-value, within page 0).
  std::uint64_t readAt(sim::Process& self, int node, std::uint32_t page, std::size_t off) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::read);
    EXPECT_TRUE(h.ok());
    std::uint64_t v = 0;
    std::memcpy(&v, h.value().data + off, sizeof(v));
    return v;
  }
  void writeAt(sim::Process& self, int node, std::uint32_t page, std::size_t off,
               std::uint64_t v) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::write);
    ASSERT_TRUE(h.ok());
    std::memcpy(h.value().data + off, &v, sizeof(v));
  }
  // A per-node registry counter, "<node>/<what>".
  std::uint64_t counter(const ra::Node& node, const std::string& what) const {
    return sim.metrics().counterValue(node.name() + "/" + what);
  }
  // Page faults served by compute node `i`'s DSM partition.
  std::uint64_t faults(int i) const {
    const ra::Node& n = *compute[static_cast<std::size_t>(i)].node;
    return counter(n, "dsm/read_faults") + counter(n, "dsm/write_faults");
  }
};

TEST(Dsm, RemoteReadSeesStoreContents) {
  DsmFixture f;
  Bytes page(kPageSize, std::byte{0x5c});
  f.sim.spawn("init", [&](sim::Process& self) {
    ASSERT_TRUE(f.data[0].store->writePage(self, {f.seg, 0}, page).ok());
    auto h = f.compute[0].dsm->resolvePage(self, {f.seg, 0}, Access::read);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value().data[123], std::byte{0x5c});
    EXPECT_FALSE(h.value().writable);
  });
  f.sim.run();
}

TEST(Dsm, WriteOnOneNodeVisibleOnAnother) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 64, 0xfeedfacecafebeefULL);
    EXPECT_EQ(f.readAt(self, 1, 0, 64), 0xfeedfacecafebeefULL);
  });
  f.sim.run();
}

TEST(Dsm, WriteInvalidatesOtherReaders) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 1);            // node0 exclusive
    EXPECT_EQ(f.readAt(self, 1, 0, 0), 1u);  // node1 shared (degrades node0)
    f.writeAt(self, 0, 0, 0, 2);            // invalidates node1's copy
    EXPECT_EQ(f.readAt(self, 1, 0, 0), 2u);  // node1 refetches: sees 2
    f.writeAt(self, 1, 0, 0, 3);            // ownership migrates
    EXPECT_EQ(f.readAt(self, 0, 0, 0), 3u);
  });
  f.sim.run();
}

TEST(Dsm, ReadAfterWriteIsCacheHitNoTraffic) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 7);
    const auto faults = f.faults(0);
    const auto frames_sent = f.counter(*f.compute[0].node, "eth/frames_sent");
    for (int i = 0; i < 100; ++i) EXPECT_EQ(f.readAt(self, 0, 0, 0), 7u);
    EXPECT_EQ(f.faults(0), faults);  // pure hits
    EXPECT_EQ(f.counter(*f.compute[0].node, "eth/frames_sent"), frames_sent);
  });
  f.sim.run();
}

TEST(Dsm, SharedReadersCoexistWithoutInvalidation) {
  DsmFixture f(3, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 5);
    for (int n = 0; n < 3; ++n) EXPECT_EQ(f.readAt(self, n, 0, 0), 5u);
    const auto inv = f.counter(*f.data[0].node, "dsm/invalidations");
    for (int n = 0; n < 3; ++n) EXPECT_EQ(f.readAt(self, n, 0, 0), 5u);
    EXPECT_EQ(f.counter(*f.data[0].node, "dsm/invalidations"), inv);
  });
  f.sim.run();
}

TEST(Dsm, ZeroFillFaultCostsMatchPaper) {
  // Paper §4.3: 1.5 ms for a zero-filled 8K page; 0.629 ms for a non
  // zero-filled (resident) page.
  DsmFixture f(1, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    // Zero-fill: page never written; grant carries no data.
    auto t0 = f.sim.now();
    (void)f.readAt(self, 0, 0, 0);
    const double zf_ms = sim::toMillis(f.sim.now() - t0);
    // The fault includes the network transaction; the local CPU part is
    // trap + zero-fill = 1.5 ms, so total must exceed it but the data
    // transfer must be absent (grant is header-only: 1 fragment each way).
    EXPECT_GT(zf_ms, 1.5);
    EXPECT_LT(zf_ms, 8.0);  // no 6-fragment page payload

    // Non-zero-filled: write it (via store) and fault it elsewhere fresh.
    Bytes page(kPageSize, std::byte{1});
    ASSERT_TRUE(f.data[0].store->writePage(self, {f.seg, 1}, page).ok());
    t0 = f.sim.now();
    (void)f.readAt(self, 0, 1, 0);
    const double data_ms = sim::toMillis(f.sim.now() - t0);
    EXPECT_GT(data_ms, zf_ms);  // carries 8 KiB over the wire
  });
  f.sim.run();
}

TEST(Dsm, ConcurrentFaultsOnSamePageJoinOneFetch) {
  DsmFixture f(1, 1);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    f.sim.spawn("reader" + std::to_string(i), [&](sim::Process& self) {
      (void)f.readAt(self, 0, 0, 0);
      ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 4);
  // One fault fetched the page; the rest joined it.
  EXPECT_EQ(f.faults(0), 1u);
  EXPECT_EQ(f.counter(*f.compute[0].node, "dsm/hits"), 4u);
}

TEST(Dsm, EvictionWritesBackDirtyData) {
  // Frame capacity 2: touching 3 pages evicts the dirty first page, which
  // must reach the store and remain readable.
  DsmFixture f(2, 1, 42, /*frame_capacity=*/2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 8, 0x1111);
    f.writeAt(self, 0, 1, 8, 0x2222);
    f.writeAt(self, 0, 2, 8, 0x3333);  // evicts page 0
    EXPECT_LE(f.compute[0].dsm->residentFrames(), 2u);
    EXPECT_EQ(f.readAt(self, 1, 0, 8), 0x1111u);  // from the store, via DSM
  });
  f.sim.run();
}

TEST(Dsm, FlushSegmentPersistsDirtyPages) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 16, 0xabcd);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    Bytes buf(kPageSize);
    ASSERT_TRUE(f.data[0].store->readPage(self, {f.seg, 0}, buf).ok());
    std::uint64_t v = 0;
    std::memcpy(&v, buf.data() + 16, sizeof(v));
    EXPECT_EQ(v, 0xabcdu);
  });
  f.sim.run();
}

TEST(Dsm, DropSegmentDiscardsDirtyData) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 16, 0x1234);
    f.compute[0].dsm->dropSegment(f.seg);  // abort path: discard, no write-back
    EXPECT_EQ(f.readAt(self, 1, 0, 16), 0u);  // store never saw the write
  });
  f.sim.run();
}

TEST(Dsm, CrashedHolderLosesDirtyData) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 42);   // dirty exclusive at node0
    f.compute[0].node->crash();     // dies with the only copy
    // Node1 still gets an answer: the store's last durable version (0).
    EXPECT_EQ(f.readAt(self, 1, 0, 0), 0u);
  });
  f.sim.run();
}

TEST(Dsm, UnknownSegmentFaultFails) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    auto h = f.compute[0].dsm->resolvePage(self, {ra::makeHomedSysname(100, 999), 0},
                                           Access::read);
    EXPECT_EQ(h.code(), Errc::not_found);
  });
  f.sim.run();
}

TEST(Dsm, StatRoutesToHomeServer) {
  DsmFixture f(1, 2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    auto other = f.compute[0].dsm->createSegment(self, f.data[1].node->id(), 2 * kPageSize);
    ASSERT_TRUE(other.ok());
    auto info = f.compute[0].dsm->stat(self, other.value());
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().length, 2 * kPageSize);
    EXPECT_EQ(ra::sysnameHome(other.value()), f.data[1].node->id());
  });
  f.sim.run();
}

TEST(Dsm, MmuReadWriteAcrossPages) {
  DsmFixture f(1, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    ra::VirtualSpace space;
    ASSERT_TRUE(space.map({0x1000000, 4 * kPageSize, f.seg, 0, true}).ok());
    // A write spanning a page boundary.
    Bytes blob(300);
    for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i);
    const ra::VAddr addr = 0x1000000 + kPageSize - 100;
    ASSERT_TRUE(f.compute[0].mmu->write(self, space, addr, blob).ok());
    Bytes back(300);
    ASSERT_TRUE(f.compute[0].mmu->read(self, space, addr, back).ok());
    EXPECT_EQ(back, blob);
    // Typed accessors.
    ASSERT_TRUE(f.compute[0].mmu->store<std::uint32_t>(self, space, 0x1000000 + 8, 0xdead).ok());
    EXPECT_EQ(f.compute[0].mmu->load<std::uint32_t>(self, space, 0x1000000 + 8).value(), 0xdeadu);
    // Unmapped access faults with protection.
    Bytes one(1);
    EXPECT_EQ(f.compute[0].mmu->read(self, space, 0x9000000, one).code(), Errc::protection);
  });
  f.sim.run();
}

// Sequential-consistency smoke: one writer bumps a counter; concurrent
// readers on other nodes must never observe it moving backwards.
class DsmMonotonicSweep : public ::testing::TestWithParam<int> {};

TEST_P(DsmMonotonicSweep, CounterNeverMovesBackwards) {
  const int n_readers = GetParam();
  DsmFixture f(1 + n_readers, 1, 1234);
  bool stop = false;
  f.sim.spawn("writer", [&](sim::Process& self) {
    for (std::uint64_t v = 1; v <= 40; ++v) {
      f.writeAt(self, 0, 0, 0, v);
      self.delay(sim::msec(3));
    }
    stop = true;
  });
  for (int r = 0; r < n_readers; ++r) {
    f.sim.spawn("reader" + std::to_string(r), [&, r](sim::Process& self) {
      std::uint64_t last = 0;
      while (!stop) {
        const std::uint64_t v = f.readAt(self, 1 + r, 0, 0);
        EXPECT_GE(v, last) << "reader " << r << " saw time go backwards";
        last = v;
        self.delay(sim::msec(1 + r));
      }
      EXPECT_GT(last, 0u);
    });
  }
  f.sim.run();
}

INSTANTIATE_TEST_SUITE_P(Readers, DsmMonotonicSweep, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace clouds::test
