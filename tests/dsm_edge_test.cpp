// DSM edge cases: stale grants under network mischief, server crash during
// faults, directory healing, write-back races and post-reboot adoption,
// multi-server segments, malformed requests.
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace clouds::test {
namespace {

using ra::Access;
using ra::kPageSize;

struct EdgeBed : Testbed {
  Sysname seg;
  explicit EdgeBed(int n_compute = 2, int n_data = 1, std::uint64_t seed = 42,
                   std::size_t frames = 2048)
      : Testbed(n_compute, n_data, seed, frames) {
    seg = data[0].store->createSegment(8 * kPageSize).value();
  }
  std::uint64_t read64(sim::Process& self, int node, std::uint32_t page) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::read);
    EXPECT_TRUE(h.ok());
    std::uint64_t v = 0;
    if (h.ok()) std::memcpy(&v, h.value().data, 8);
    return v;
  }
  void write64(sim::Process& self, int node, std::uint32_t page, std::uint64_t v) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::write);
    ASSERT_TRUE(h.ok());
    std::memcpy(h.value().data, &v, 8);
  }
};

TEST(DsmEdge, CoherenceSurvivesRandomFrameLoss) {
  // Retransmission + versioned grants must keep one-copy semantics intact
  // under 20% loss: the writer/reader ping-pong below never observes a
  // stale value.
  EdgeBed f(2, 1, 77);
  f.cost.dsm_callback_retries = 8;  // lossy wire, but nobody actually died
  f.ether.setDropRate(0.2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    for (std::uint64_t i = 1; i <= 25; ++i) {
      const int writer = static_cast<int>(i % 2);
      f.write64(self, writer, 0, i);
      EXPECT_EQ(f.read64(self, 1 - writer, 0), i) << "round " << i;
    }
  });
  f.sim.run();
  EXPECT_GT(f.sim.metrics().counterValue(f.compute[0].node->name() + "/ratp/retransmits") +
                f.sim.metrics().counterValue(f.compute[1].node->name() + "/ratp/retransmits"),
            0u);
}

TEST(DsmEdge, FaultDuringDataServerCrashFailsThenRecovers) {
  EdgeBed f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 7);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    f.data[0].node->crash();
    f.compute[1].dsm->dropSegment(f.seg);
    auto h = f.compute[1].dsm->resolvePage(self, {f.seg, 0}, Access::read);
    EXPECT_FALSE(h.ok());  // server unreachable
    f.data[0].node->restart();
    // Directory was volatile and is gone; faults rebuild it from the store.
    f.compute[0].dsm->loseVolatileState();
    EXPECT_EQ(f.read64(self, 1, 0), 7u);
    EXPECT_EQ(f.read64(self, 0, 0), 7u);
  });
  f.sim.run();
}

TEST(DsmEdge, ServerCrashPurgeDropsUnreachableGrants) {
  // A data server reboot loses the volatile directory: without a crash-time
  // purge, a surviving client's cached shared copy can never be invalidated
  // again (the reborn directory has no copyset for it) and is read stale
  // forever. purgeHomedOn is what Cluster::notifyServerCrash runs on every
  // surviving client when a data server dies.
  EdgeBed f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 7);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    EXPECT_EQ(f.read64(self, 1, 0), 7u);  // node 1 now caches a shared copy
    f.data[0].node->crash();
    f.data[0].node->restart();
    EXPECT_GE(f.compute[0].dsm->purgeHomedOn(f.data[0].node->id()), 1u);
    EXPECT_GE(f.compute[1].dsm->purgeHomedOn(f.data[0].node->id()), 1u);
    // The purge also reset the version horizon, so the reborn directory's
    // small grant numbers are not mistaken for stale grants.
    f.write64(self, 0, 0, 9);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    EXPECT_EQ(f.read64(self, 1, 0), 9u);  // the stale copy was dropped
  });
  f.sim.run();
}

TEST(DsmEdge, DirectoryHealsAfterClientDropsExclusiveFrame) {
  EdgeBed f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 5);          // exclusive at node 0
    f.compute[0].dsm->dropSegment(f.seg);  // abort-style drop, server not told
    // Node 0 itself refaults: the server sees owner==requester and heals.
    EXPECT_EQ(f.read64(self, 0, 0), 0u);  // store never saw the write
    f.write64(self, 0, 0, 9);
    EXPECT_EQ(f.read64(self, 1, 0), 9u);
  });
  f.sim.run();
}

TEST(DsmEdge, EvictionWritebackRacingInvalidateLosesNothing) {
  // Tiny cache on node 0: writing page 2 evicts dirty page 0 (write-back in
  // flight) while node 1 concurrently writes page 0 (invalidate). Whatever
  // interleaving results, node 1's value must win and no write "resurrects".
  EdgeBed f(2, 1, 42, /*frames=*/2);
  f.sim.spawn("node0", [&](sim::Process& self) {
    f.write64(self, 0, 0, 100);
    f.write64(self, 0, 1, 101);
    f.write64(self, 0, 2, 102);  // evicts page 0 (dirty)
  });
  f.sim.spawn("node1", [&](sim::Process& self) {
    self.delay(sim::msec(8));
    f.write64(self, 1, 0, 200);
  });
  f.sim.run();
  f.sim.spawn("check", [&](sim::Process& self) {
    EXPECT_EQ(f.read64(self, 1, 0), 200u);
    EXPECT_EQ(f.read64(self, 0, 1), 101u);
    EXPECT_EQ(f.read64(self, 0, 2), 102u);
  });
  f.sim.run();
}

TEST(DsmEdge, EvictionWriteBackAfterServerRebootIsAdopted) {
  // Two frames: node 0 dirties page 0, the data server reboots (its volatile
  // directory is lost), then node 0's faults on pages 1 and 2 evict page 0.
  // The eviction's single-page write-back meets a fresh directory entry
  // (version 0) and is adopted, not dropped as stale.
  EdgeBed f(2, 1, 42, /*frames=*/2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 77);
    f.crashData(0);
    f.restartData(0);
    f.write64(self, 0, 1, 1);
    f.write64(self, 0, 2, 2);  // evicts dirty page 0
    EXPECT_EQ(f.sim.metrics().counterValue("data0/dsm/writeback_adoptions"), 1u);
    EXPECT_EQ(f.read64(self, 1, 0), 77u);
  });
  f.sim.run();
}

TEST(DsmEdge, MalformedRequestsAnswerBadArgument) {
  // The client stubs never send malformed input, so these bodies are built
  // by hand. Every decoder must refuse them before a handler runs: nothing
  // is prepared and nothing reaches the disk.
  EdgeBed f(1, 1);
  const auto op = [](dsm::Op o) { return static_cast<std::uint8_t>(o); };
  const Bytes page(kPageSize);
  struct Request {
    const char* what;
    net::PortId port;
    Bytes body;
  };
  std::vector<Request> requests;
  const auto add = [&](const char* what, net::PortId port, auto&& build) {
    Encoder e;
    build(e);
    requests.push_back({what, port, std::move(e).take()});
  };
  for (net::PortId port : {net::kPortDsm, net::kPortLock, net::kPortCommit}) {
    add("empty body", port, [](Encoder&) {});
    add("unknown op", port, [](Encoder& e) {
      e.u8(99);
      e.u64(1);
    });
  }
  add("read_page, truncated PageKey", net::kPortDsm, [&](Encoder& e) {
    e.u8(op(dsm::Op::read_page));
    e.sysname(f.seg);
  });
  add("write_back, truncated PageKey", net::kPortDsm, [&](Encoder& e) {
    e.u8(op(dsm::Op::write_back));
    e.sysname(f.seg);
  });
  add("write_back_batch, count past the pages", net::kPortDsm, [&](Encoder& e) {
    e.u8(op(dsm::Op::write_back_batch));
    e.boolean(false);
    e.u32(2);
    dsm::encodePageKey(e, {f.seg, 0});
    e.bytes(page);
  });
  add("lock, truncated body", net::kPortLock, [&](Encoder& e) {
    e.u8(op(dsm::Op::lock));
    e.sysname(f.seg);
  });
  add("tx_prepare, truncated PageKey", net::kPortCommit, [&](Encoder& e) {
    e.u8(op(dsm::Op::tx_prepare));
    e.u64(7);
    e.u32(1);
    e.sysname(f.seg);
  });
  add("tx_prepare, count past the pages", net::kPortCommit, [&](Encoder& e) {
    e.u8(op(dsm::Op::tx_prepare));
    e.u64(8);
    e.u32(2);
    dsm::encodePageKey(e, {f.seg, 0});
    e.bytes(page);
  });

  const std::string disk_writes = f.data[0].node->name() + "/disk/writes";
  const std::uint64_t writes_before = f.sim.metrics().counterValue(disk_writes);
  f.sim.spawn("driver", [&](sim::Process& self) {
    for (const Request& r : requests) {
      auto reply = f.compute[0].node->ratp().transact(self, f.data[0].node->id(), r.port, r.body);
      ASSERT_TRUE(reply.ok()) << r.what;
      Decoder d(reply.value());
      EXPECT_EQ(net::decodeStatus(d, r.what).code(), Errc::bad_argument)
          << r.what << " on port " << r.port;
    }
  });
  f.sim.run();
  EXPECT_TRUE(f.data[0].store->preparedTxids().empty());
  EXPECT_EQ(f.sim.metrics().counterValue(disk_writes), writes_before);
}

TEST(DsmEdge, TruncatedCallbackAnswersBadArgumentAndLeavesTheFrame) {
  // The compute side of kPortDsm refuses a coherence callback it cannot
  // decode before touching the frame: the dirty exclusive copy survives.
  EdgeBed f(1, 1);
  const std::string cpu = f.compute[0].node->name();
  std::vector<Bytes> bodies;
  for (bool with_page : {false, true}) {
    Encoder e;  // invalidate, its PageKey or version missing
    e.u8(static_cast<std::uint8_t>(dsm::Op::invalidate));
    e.sysname(f.seg);
    if (with_page) e.u32(0);
    bodies.push_back(std::move(e).take());
  }
  std::size_t refused = 0;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 77);
    const std::uint64_t faults = f.sim.metrics().counterValue(cpu + "/dsm/write_faults");
    for (const Bytes& b : bodies) {
      auto reply =
          f.data[0].node->ratp().transact(self, f.compute[0].node->id(), net::kPortDsm, b);
      ASSERT_TRUE(reply.ok());
      ASSERT_FALSE(reply.value().empty());
      EXPECT_EQ(static_cast<Errc>(reply.value().front()), Errc::bad_argument);
      ++refused;
    }
    // Still exclusive and dirty: a write is a hit, and the bytes are there.
    f.write64(self, 0, 0, 78);
    EXPECT_EQ(f.sim.metrics().counterValue(cpu + "/dsm/write_faults"), faults);
    EXPECT_EQ(f.read64(self, 0, 0), 78u);
  });
  f.sim.run();
  EXPECT_EQ(refused, bodies.size());
  EXPECT_EQ(f.sim.metrics().counterValue(cpu + "/dsm/frames_invalidated"), 0u);
}

TEST(DsmEdge, SegmentsOnTwoServersAreIndependent) {
  EdgeBed f(1, 2);
  const Sysname other = f.data[1].store->createSegment(2 * kPageSize).value();
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 11);
    auto h = f.compute[0].dsm->resolvePage(self, {other, 0}, Access::write);
    ASSERT_TRUE(h.ok());
    std::uint64_t v = 22;
    std::memcpy(h.value().data, &v, 8);
    // Crash server 1: segment `other` is unreachable, seg stays fine.
    f.data[1].node->crash();
    f.compute[0].dsm->dropSegment(other);
    EXPECT_FALSE(f.compute[0].dsm->resolvePage(self, {other, 0}, Access::read).ok());
    EXPECT_EQ(f.read64(self, 0, 0), 11u);
  });
  f.sim.run();
}

TEST(DsmEdge, DestroyedSegmentFaultsEverywhere) {
  EdgeBed f(2, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 3);
    ASSERT_TRUE(f.compute[0].dsm->destroySegment(self, f.seg).ok());
    EXPECT_EQ(f.compute[1].dsm->resolvePage(self, {f.seg, 0}, Access::read).code(),
              Errc::not_found);
    // Node 0's own cached frames were dropped by destroy as well.
    EXPECT_EQ(f.compute[0].dsm->resolvePage(self, {f.seg, 0}, Access::read).code(),
              Errc::not_found);
  });
  f.sim.run();
}

TEST(DsmEdge, FlushAllWritesEveryDirtySegment) {
  EdgeBed f(1, 2);
  const Sysname other = f.data[1].store->createSegment(2 * kPageSize).value();
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 41);
    auto h = f.compute[0].dsm->resolvePage(self, {other, 1}, Access::write);
    ASSERT_TRUE(h.ok());
    std::uint64_t v = 42;
    std::memcpy(h.value().data, &v, 8);
    ASSERT_TRUE(f.compute[0].dsm->flushAll(self).ok());
    Bytes page(kPageSize);
    ASSERT_TRUE(f.data[0].store->readPage(self, {f.seg, 0}, page).ok());
    std::uint64_t got = 0;
    std::memcpy(&got, page.data(), 8);
    EXPECT_EQ(got, 41u);
    ASSERT_TRUE(f.data[1].store->readPage(self, {other, 1}, page).ok());
    std::memcpy(&got, page.data(), 8);
    EXPECT_EQ(got, 42u);
  });
  f.sim.run();
}

// Property sweep: random per-page single-writer programs under varying frame
// capacities (eviction pressure) must preserve read-your-writes and final
// store contents after flush.
class DsmCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(DsmCapacitySweep, ReadYourWritesUnderEvictionPressure) {
  const auto frames = static_cast<std::size_t>(GetParam());
  EdgeBed f(1, 1, 99, frames);
  f.sim.spawn("driver", [&](sim::Process& self) {
    std::uint64_t expect[8] = {};
    auto& rng = f.sim.rng();
    for (int step = 0; step < 60; ++step) {
      const auto page = static_cast<std::uint32_t>(rng() % 8);
      if (rng() % 2 == 0) {
        const std::uint64_t v = rng();
        f.write64(self, 0, page, v);
        expect[page] = v;
      } else {
        EXPECT_EQ(f.read64(self, 0, page), expect[page]) << "step " << step;
      }
    }
    ASSERT_TRUE(f.compute[0].dsm->flushAll(self).ok());
    for (std::uint32_t p = 0; p < 8; ++p) {
      Bytes page(kPageSize);
      ASSERT_TRUE(f.data[0].store->readPage(self, {f.seg, p}, page).ok());
      std::uint64_t got = 0;
      std::memcpy(&got, page.data(), 8);
      EXPECT_EQ(got, expect[p]) << "page " << p;
    }
  });
  f.sim.run();
}

INSTANTIATE_TEST_SUITE_P(FrameCapacities, DsmCapacitySweep, ::testing::Values(2, 3, 8, 64));

TEST(DsmEdge, DropSegmentDuringBlockedFaultKeepsFrameAlive) {
  // A faulting process blocks (RaTP to the remote home) while holding a
  // reference into the frame map; a transaction rollback on the same node
  // may dropSegment() during that window. dropSegment must invalidate in
  // place, never erase — erasing frees the frame under the faulting
  // process (heap-use-after-free, caught by the ASan lane).
  EdgeBed f;
  f.sim.spawn("writer", [&](sim::Process& self) {
    f.write64(self, 0, 0, 41);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
  });
  f.sim.spawn("faulter", [&](sim::Process& self) {
    self.delay(sim::msec(10));  // let the writer flush first
    EXPECT_EQ(f.read64(self, 1, 0), 41u);
  });
  f.sim.spawn("dropper", [&](sim::Process& self) {
    // Land inside the faulter's remote fetch: after the request leaves,
    // before the grant is installed.
    self.delay(sim::msec(10) + sim::usec(400));
    f.compute[1].dsm->dropSegment(f.seg);
  });
  f.sim.run();
  // The dropped (invalidated, not erased) frame refaults cleanly.
  f.sim.spawn("refault", [&](sim::Process& self) {
    EXPECT_EQ(f.read64(self, 1, 0), 41u);
  });
  f.sim.run();
}


TEST(DsmEdge, SegmentHooksTouchOnlyTheirOwnSegment) {
  // The per-segment hooks read one contiguous run of the (segment, page)
  // ordered frame map. Segments a and b are neighbours in that order (same
  // home, consecutive sysnames), a holds an invalid frame between valid
  // ones, d holds only an invalid frame, and e has no frames at all.
  EdgeBed f;
  auto make = [&] { return f.data[0].store->createSegment(8 * kPageSize).value(); };
  const Sysname a = make();
  const Sysname b = make();
  const Sysname e = make();
  const Sysname d = make();
  const Sysname c = make();
  ASSERT_EQ(b.lo(), a.lo() + 1);
  ASSERT_EQ(b.hi(), a.hi());
  ASSERT_TRUE(a < b && b < e && e < d && d < c);
  dsm::DsmClientPartition& dsm = *f.compute[0].dsm;

  auto write = [&](sim::Process& self, int node, const Sysname& seg, std::uint32_t page,
                   std::uint64_t v) {
    auto h = f.compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                        Access::write);
    ASSERT_TRUE(h.ok());
    std::memcpy(h.value().data, &v, 8);
  };
  // (page, first word) of every page collectDirtyPages returns, in order.
  auto dirty = [&](const Sysname& seg) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (const store::PageUpdate& u : dsm.collectDirtyPages(seg)) {
      EXPECT_EQ(u.key.segment, seg);
      std::uint64_t v = 0;
      std::memcpy(&v, u.data.data(), 8);
      out.emplace_back(u.key.page, v);
    }
    return out;
  };
  using Pages = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  const Pages a_dirty{{0, 10}, {2, 12}, {5, 15}};
  const Pages b_dirty{{0, 20}, {1, 21}};
  // Brute force: every candidate segment in sysname order that still has a
  // valid frame on node 0, capped at max.
  auto expected = [&](const std::vector<std::pair<Sysname, bool>>& valid, std::size_t max) {
    std::vector<Sysname> out;
    for (const auto& [seg, has_valid] : valid) {
      if (has_valid && out.size() < max) out.push_back(seg);
    }
    return out;
  };
  auto checkCached = [&](const std::vector<std::pair<Sysname, bool>>& valid) {
    for (std::size_t max : {0, 1, 2, 3, 4, 8}) {
      EXPECT_EQ(dsm.cachedSegments(max), expected(valid, max)) << "max " << max;
    }
  };

  f.sim.spawn("driver", [&](sim::Process& self) {
    // Written out of page order; the frame map hands them back sorted.
    write(self, 0, a, 5, 15);
    write(self, 0, a, 0, 10);
    write(self, 0, a, 3, 13);
    write(self, 0, a, 2, 12);
    write(self, 0, b, 1, 21);
    write(self, 0, b, 0, 20);
    write(self, 0, d, 0, 40);
    EXPECT_EQ(f.read64(self, 0, 0), 0u);  // f.seg: one clean shared frame
    auto h = dsm.resolvePage(self, {c, 0}, Access::read);
    ASSERT_TRUE(h.ok());
    // Node 1 takes a:3 and d:0, invalidating node 0's frames in place.
    write(self, 1, a, 3, 99);
    write(self, 1, d, 0, 99);

    EXPECT_EQ(dirty(a), a_dirty);
    EXPECT_EQ(dirty(b), b_dirty);
    EXPECT_TRUE(dirty(d).empty());
    EXPECT_TRUE(dirty(e).empty());
    EXPECT_TRUE(dirty(c).empty());
    checkCached({{f.seg, true}, {a, true}, {b, true}, {e, false}, {d, false}, {c, true}});

    // Hooks on the frameless segment change nothing anywhere.
    dsm.markSegmentClean(e);
    dsm.dropSegment(e);
    ASSERT_TRUE(dsm.flushSegment(self, e).ok());
    EXPECT_EQ(dirty(a), a_dirty);
    EXPECT_EQ(dirty(b), b_dirty);

    dsm.markSegmentClean(b);
    EXPECT_TRUE(dirty(b).empty());
    EXPECT_EQ(dirty(a), a_dirty);

    write(self, 0, b, 1, 31);  // still exclusive: dirty again without a fault
    ASSERT_TRUE(dsm.flushSegment(self, b).ok());
    EXPECT_TRUE(dirty(b).empty());
    EXPECT_EQ(dirty(a), a_dirty);

    dsm.dropSegment(a);
    EXPECT_TRUE(dirty(a).empty());
    checkCached({{f.seg, true}, {a, false}, {b, true}, {e, false}, {d, false}, {c, true}});
  });
  f.sim.run();
  // The flush reached b's home; a's dropped writes did not.
  f.sim.spawn("reader", [&](sim::Process& self) {
    auto page = [&](const Sysname& seg, std::uint32_t p) {
      auto h = f.compute[1].dsm->resolvePage(self, {seg, p}, Access::read);
      std::uint64_t v = 0;
      if (h.ok()) std::memcpy(&v, h.value().data, 8);
      return v;
    };
    EXPECT_EQ(page(b, 1), 31u);
    EXPECT_EQ(page(a, 0), 0u);
  });
  f.sim.run();
}

}  // namespace
}  // namespace clouds::test
