#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/simulation.hpp"

namespace clouds::sim {
namespace {

TEST(Process, DelayAdvancesVirtualTime) {
  Simulation sim;
  TimePoint observed = kZero;
  Process* p = nullptr;
  p = &sim.spawn("worker", [&] {
    p->delay(msec(5));
    p->delay(msec(7));
    observed = sim.now();
  });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(observed, msec(12));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::string> log;
  Process* a = nullptr;
  Process* b = nullptr;
  a = &sim.spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a" + std::to_string(i));
      a->delay(msec(10));
    }
  });
  b = &sim.spawn("b", [&] {
    b->delay(msec(5));
    for (int i = 0; i < 3; ++i) {
      log.push_back("b" + std::to_string(i));
      b->delay(msec(10));
    }
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, BlockAndWake) {
  Simulation sim;
  bool produced = false;
  bool consumed = false;
  Process* consumer = nullptr;
  consumer = &sim.spawn("consumer", [&] {
    while (!produced) consumer->block();
    consumed = true;
  });
  sim.spawn("producer", [&] {
    auto& self = *consumer;  // wake target
    produced = true;
    self.wake();
  });
  sim.run();
  EXPECT_TRUE(consumed);
}

TEST(Process, BlockForTimesOut) {
  Simulation sim;
  bool woken = true;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] { woken = p->blockFor(msec(25)); });
  sim.run();
  EXPECT_FALSE(woken);
  EXPECT_EQ(sim.now(), msec(25));
}

TEST(Process, BlockForWokenBeforeTimeout) {
  Simulation sim;
  bool woken = false;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] { woken = p->blockFor(msec(100)); });
  sim.schedule(msec(10), [&] { p->wake(); });
  sim.run();
  EXPECT_TRUE(woken);
  // The stale timeout event still drains the clock to t=100 as a no-op.
  EXPECT_EQ(sim.now(), msec(100));
}

TEST(Process, StaleTimeoutDoesNotFireAfterRewait) {
  // A process that times out once and then blocks again must not be woken
  // by remnants of the first blockFor.
  Simulation sim;
  int wakes = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    (void)p->blockFor(msec(10));  // times out at t=10
    if (p->blockFor(msec(50))) ++wakes;
  });
  sim.schedule(msec(30), [&] { p->wake(); });
  sim.run();
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(sim.now(), msec(60));  // stale timer drains as a no-op
}

TEST(Process, WakeOnRunnableProcessIsNoop) {
  Simulation sim;
  int count = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    ++count;
    p->delay(msec(1));
    ++count;
  });
  sim.schedule(kZero, [&] { p->wake(); });  // p is ready/delayed, not blocked
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Process, KillUnwindsRaii) {
  Simulation sim;
  bool cleaned = false;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("victim", [&] {
    struct Raii {
      bool& flag;
      ~Raii() { flag = true; }
    } raii{cleaned};
    p->block();  // never woken normally
    after = true;
  });
  sim.schedule(msec(5), [&] { p->kill(); });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
}

TEST(Process, KillBeforeFirstRunSkipsBody) {
  Simulation sim;
  bool ran = false;
  auto& p = sim.spawn("never", [&] { ran = true; });
  p.kill();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(ran);
}

TEST(Process, SpawnFromInsideProcess) {
  Simulation sim;
  std::vector<int> order;
  Process* parent = nullptr;
  parent = &sim.spawn("parent", [&] {
    order.push_back(1);
    auto& child = sim.spawn("child", [&] { order.push_back(2); });
    (void)child;
    parent->delay(msec(1));
    order.push_back(3);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Process, ShutdownKillsBlockedProcesses) {
  bool cleaned = false;
  {
    Simulation sim;
    Process* p = nullptr;
    p = &sim.spawn("blocked-forever", [&] {
      struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
      } raii{cleaned};
      p->block();
    });
    sim.run();  // drains; p still blocked
    EXPECT_FALSE(p->done());
    EXPECT_EQ(sim.liveProcessCount(), 1u);
  }  // destructor must tear the process down cleanly
  EXPECT_TRUE(cleaned);
}

TEST(Process, ManyProcessesScale) {
  Simulation sim;
  int finished = 0;
  for (int i = 0; i < 200; ++i) {
    sim.spawn("w" + std::to_string(i), [&sim, &finished, i] {
      // Each process finds itself via name capture-free delay path.
      (void)i;
      ++finished;
    });
  }
  sim.run();
  EXPECT_EQ(finished, 200);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

// ---- Lifecycle torture: every kill/unwind/timeout edge ----
//
// ProcessKilled unwinding fiber stacks through RAII, stale blockFor timers,
// kill in every process state, and stack reclamation under churn (the ASan
// lane runs this file too).

struct UnwindTracker {
  std::vector<std::string>& log;
  std::string name;
  ~UnwindTracker() { log.push_back(name); }
};

TEST(Process, KillWhileBlockedUnwindsDestructorsInReverseOrder) {
  Simulation sim;
  std::vector<std::string> order;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("victim", [&] {
    UnwindTracker a{order, "a"};
    UnwindTracker b{order, "b"};
    { UnwindTracker scoped{order, "scoped"}; }  // dies before the kill
    UnwindTracker c{order, "c"};
    p->block();
    after = true;
  });
  sim.schedule(msec(5), [&] { p->kill(); });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_FALSE(after);
  EXPECT_EQ(order, (std::vector<std::string>{"scoped", "c", "b", "a"}));
}

TEST(Process, KillWhileReadyUnwindsBeforeBodyContinues) {
  // wake() has already queued the resume (state ready) when kill() lands;
  // the resume must deliver ProcessKilled instead of continuing the body.
  Simulation sim;
  bool cleaned = false;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("victim", [&] {
    struct Raii {
      bool& flag;
      ~Raii() { flag = true; }
    } raii{cleaned};
    p->block();
    after = true;
  });
  sim.schedule(msec(5), [&] {
    p->wake();
    EXPECT_EQ(p->state(), Process::State::ready);
    p->kill();
  });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
}

TEST(Process, KillMidDelayUnwindsWhenTheDelayExpires) {
  // kill() during a delay() does not cut the delay short: the pending
  // resume at expiry delivers ProcessKilled. Pins that timing contract.
  Simulation sim;
  bool cleaned = false;
  bool after = false;
  TimePoint unwound_at = kZero;
  Process* p = nullptr;
  p = &sim.spawn("sleeper", [&] {
    struct Raii {
      bool& flag;
      TimePoint& at;
      Simulation& s;
      ~Raii() {
        flag = true;
        at = s.now();
      }
    } raii{cleaned, unwound_at, sim};
    p->delay(msec(100));
    after = true;
  });
  sim.schedule(msec(5), [&] { p->kill(); });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
  EXPECT_EQ(unwound_at, msec(100));
}

TEST(Process, SelfKillTakesEffectAtNextYield) {
  Simulation sim;
  bool cleaned = false;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("suicidal", [&] {
    struct Raii {
      bool& flag;
      ~Raii() { flag = true; }
    } raii{cleaned};
    p->kill();          // marks only; we are running
    EXPECT_TRUE(p->killed());
    p->delay(msec(1));  // ProcessKilled on resume
    after = true;
  });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
}

TEST(Process, KillAfterDoneIsANoop) {
  Simulation sim;
  auto& p = sim.spawn("quick", [] {});
  sim.run();
  EXPECT_TRUE(p.done());
  p.kill();
  p.wake();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(p.killed());  // kill() on a done process does not even mark
}

// ---- blockFor stale-timeout tokens: the direct regression tests ----
//
// block() promises it never wakes spuriously: every block()/blockFor()/
// wake() advances block_token_, and a timer only fires while its captured
// token is current. These tests pin the token mechanics that back the
// contract in process.hpp.

TEST(Process, StaleTimerCannotWakeALaterBlock) {
  Simulation sim;
  std::vector<double> block_woke_at;
  bool woken_early = false;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    woken_early = p->blockFor(msec(100));  // woken at t=10 by wake()
    p->block();  // the stale timer fires (as a queue no-op) at t=100
    block_woke_at.push_back(toMillis(sim.now()));
  });
  sim.schedule(msec(10), [&] { p->wake(); });
  sim.schedule(msec(200), [&] { p->wake(); });  // the only legitimate waker
  sim.run();
  EXPECT_TRUE(woken_early);
  ASSERT_EQ(block_woke_at.size(), 1u);
  EXPECT_EQ(block_woke_at[0], 200.0);
}

TEST(Process, StaleTimerCannotForgeTimeoutOfALaterBlockFor) {
  Simulation sim;
  bool first = false;
  bool second = true;
  double second_done_at = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    first = p->blockFor(msec(50));    // woken at t=10
    second = p->blockFor(msec(100));  // t=10..110; stale timer at t=50 must not fire
    second_done_at = toMillis(sim.now());
  });
  sim.schedule(msec(10), [&] { p->wake(); });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);                  // genuine timeout...
  EXPECT_EQ(second_done_at, 110.0);      // ...at its own deadline, not the stale one
}

TEST(Process, BackToBackBlockForsEachConsumeTheirOwnTimer) {
  Simulation sim;
  int timeouts = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      if (!p->blockFor(msec(10))) ++timeouts;
    }
  });
  sim.run();
  EXPECT_EQ(timeouts, 3);
  EXPECT_EQ(sim.now(), msec(30));
}

// ---- Nested creation ----

TEST(Process, NestedSpawnThreeGenerationsDeep) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&](Process& parent) {
    log.push_back("parent@" + std::to_string(toMillis(sim.now())));
    sim.spawn("child", [&](Process& child) {
      log.push_back("child@" + std::to_string(toMillis(sim.now())));
      child.delay(msec(2));
      sim.spawn("grandchild", [&](Process&) {
        log.push_back("grandchild@" + std::to_string(toMillis(sim.now())));
      });
      log.push_back("child-end@" + std::to_string(toMillis(sim.now())));
    });
    parent.delay(msec(1));
    log.push_back("parent-end@" + std::to_string(toMillis(sim.now())));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "parent@0.000000", "child@0.000000", "parent-end@1.000000",
                     "child-end@2.000000", "grandchild@2.000000"}));
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

// ---- Shutdown ----

TEST(Process, ShutdownKillsSelfBlockedProcesses) {
  bool cleaned = false;
  {
    Simulation sim;
    sim.spawn("blocked-forever", [&](Process& self) {
      struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
      } raii{cleaned};
      self.block();
    });
    sim.run();
    EXPECT_EQ(sim.liveProcessCount(), 1u);
  }  // destructor must tear the process down cleanly
  EXPECT_TRUE(cleaned);
}

// ---- Create/kill soak: 10k processes in waves ----
//
// Half of each wave runs to completion, half blocks and is killed while
// blocked. Exercises stack allocation/reclamation churn; under the ASan
// lane this is what catches fiber-stack leaks or use-after-free on the
// reclaimed stacks.

TEST(Process, TenThousandProcessCreateKillSoak) {
  Simulation sim;
  const int kWaves = 20;
  const int kPerWave = 500;  // 250 runners + 250 blockers
  int completed = 0;
  int unwound = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<Process*> blockers;
    for (int i = 0; i < kPerWave / 2; ++i) {
      sim.spawn("runner", [&](Process& self) {
        self.delay(usec(1));
        ++completed;
      });
      blockers.push_back(&sim.spawn("blocker", [&](Process& self) {
        struct Raii {
          int& n;
          ~Raii() { ++n; }
        } raii{unwound};
        self.block();
      }));
    }
    sim.run();  // runners finish, blockers block
    for (Process* b : blockers) b->kill();
    sim.run();  // kills unwind
    for (Process* b : blockers) EXPECT_TRUE(b->done());
  }
  EXPECT_EQ(completed, kWaves * kPerWave / 2);
  EXPECT_EQ(unwound, kWaves * kPerWave / 2);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

// ---- Typed events: one (at, seq) order across closures, resumes, timers ----

TEST(EventQueue, ClosuresResumesAndTimersAtOneTimestampFireInInsertionOrder) {
  Simulation sim;
  std::vector<std::string> log;
  auto note = [&](std::string what) {
    EXPECT_EQ(sim.now(), msec(10));
    log.push_back(std::move(what));
  };
  // Every t=10 event below is queued at t=0, in this order: fn-a (now),
  // then, as the t=0 events run, the delayer's resume, fn-b, the timer's
  // blockFor timeout, fn-c.
  sim.spawn("delayer", [&](Process& self) {
    self.delay(msec(10));
    note("resume");
  });
  sim.schedule(kZero, [&] { sim.schedule(msec(10), [&] { note("fn-b"); }); });
  sim.spawn("timer", [&](Process& self) {
    EXPECT_FALSE(self.blockFor(msec(10)));
    note("timeout");
  });
  sim.schedule(kZero, [&] { sim.schedule(msec(10), [&] { note("fn-c"); }); });
  sim.schedule(msec(10), [&] { note("fn-a"); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"fn-a", "resume", "fn-b", "timeout", "fn-c"}));
}

TEST(EventQueue, ReusedClosureSlotNeverRunsTheOldClosure) {
  Simulation sim;
  int first = 0;
  int second = 0;
  int third = 0;
  auto token = std::make_shared<int>(0);
  // The first closure's slot is free while it runs, so the closure it
  // schedules takes that same slot.
  sim.schedule(msec(1), [&, token] {
    ++first;
    sim.schedule(msec(1), [&] { ++second; });
  });
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(token.use_count(), 1);  // a fired closure's captures are released
  // A rejected schedule takes no slot; the next one reuses the freed slot.
  EXPECT_THROW(sim.schedule(-usec(1), [&] { ++third; }), std::invalid_argument);
  EXPECT_THROW(sim.scheduleDaemon(-usec(1), [&] { ++third; }), std::invalid_argument);
  sim.schedule(msec(1), [&] { ++third; });
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(third, 1);
}

TEST(EventQueue, NegativeProcessDelaysAreRejected) {
  Simulation sim;
  bool delay_threw = false;
  bool block_for_threw = false;
  sim.spawn("p", [&](Process& self) {
    try {
      self.delay(-usec(1));
    } catch (const std::invalid_argument&) {
      delay_threw = true;
    }
  });
  sim.spawn("q", [&](Process& self) {
    try {
      (void)self.blockFor(-usec(1));
    } catch (const std::invalid_argument&) {
      block_for_threw = true;
    }
  });
  sim.run();
  EXPECT_TRUE(delay_threw);
  EXPECT_TRUE(block_for_threw);
}

// ---- Pooled fiber stacks ----

TEST(FiberStackDeathTest, RecycledStackKeepsItsGuard) {
#if CLOUDS_SIM_ASAN
  GTEST_SKIP() << "ASan reports the guard fault itself";
#else
  // A fiber entry that hands control straight back for good.
  struct Hop {
    Fiber* from = nullptr;
    Fiber* self = nullptr;
  };
  Fiber::Entry exitAtOnce = [](void* arg) {
    auto* hop = static_cast<Hop*>(arg);
    hop->self->exitTo(*hop->from);
  };
  StackPool pool;
  Fiber host;
  Hop hop{&host, nullptr};
  const void* first_bottom = nullptr;
  {
    Fiber first(pool, 64u << 10, exitAtOnce, &hop);
    hop.self = &first;
    host.switchTo(first);
    first_bottom = first.stackBottom();
  }  // the region goes back to the pool
  Fiber second(pool, 64u << 10, exitAtOnce, &hop);
  ASSERT_EQ(second.stackBottom(), first_bottom);  // recycled, not mapped afresh
  volatile char* below = static_cast<char*>(const_cast<void*>(second.stackBottom())) - 1;
  EXPECT_DEATH(*below = 1, "");
  // The recycled stack itself still runs a fiber.
  hop.self = &second;
  host.switchTo(second);
#endif
}

}  // namespace
}  // namespace clouds::sim
