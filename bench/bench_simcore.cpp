// E10: simulation-core event throughput of the fiber engine.
//
// Unlike the other benches (which report *simulated* milliseconds), this
// one measures the engine itself: real wall-clock events/sec of the
// discrete-event core under the workloads that stress context switching —
// ping-pong wake chains (every event is a process switch), timer storms
// (blockFor timers expiring under churn), and a 10k-process fan-out
// (spawn/teardown cost). The "items" rate google-benchmark prints is
// executed simulation events per second; EXPERIMENTS.md §E10 records it
// against the thread-per-process engine the fibers replaced.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace clouds {
namespace {

using sim::Process;
using sim::Simulation;

// Each benchmark emits its universe's metrics snapshot once per process, on
// its first iteration: every iteration builds an identical universe, and
// google-benchmark calls each function a host-speed-dependent number of
// times, so a per-call flag would repeat the line a varying number of
// times. The "_fibers" tags keep the lines comparable with runs from when a
// second engine existed.

// Two processes alternately wake each other through semaphores: every
// single event resumes a process, so this is the pure context-switch path.
void BM_SimCore_PingPongWakeChain(benchmark::State& state) {
  constexpr int kRounds = 10000;
  std::size_t total_events = 0;
  static bool emitted = false;
  for (auto _ : state) {
    Simulation sim(42);
    sim::SimSemaphore ping(0);
    sim::SimSemaphore pong(0);
    sim.spawn("a", [&](Process& self) {
      for (int i = 0; i < kRounds; ++i) {
        ping.release();
        pong.acquire(self);
      }
    });
    sim.spawn("b", [&](Process& self) {
      for (int i = 0; i < kRounds; ++i) {
        ping.acquire(self);
        pong.release();
      }
    });
    const std::size_t events = sim.run();
    total_events += events;
    if (!emitted) { bench::emitMetrics("pingpong_fibers", sim); emitted = true; }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
}

// Many processes sitting in blockFor timeouts that expire and re-arm:
// stresses the tokenized-timer path and timer-driven resumes.
void BM_SimCore_TimerStorm(benchmark::State& state) {
  constexpr int kProcesses = 200;
  constexpr int kTimersEach = 50;
  std::size_t total_events = 0;
  static bool emitted = false;
  for (auto _ : state) {
    Simulation sim(42);
    for (int p = 0; p < kProcesses; ++p) {
      sim.spawn("t" + std::to_string(p), [&, p](Process& self) {
        for (int i = 0; i < kTimersEach; ++i) {
          // Staggered short timeouts; none is ever woken, all expire.
          (void)self.blockFor(sim::usec(1 + ((p + i) % 7)));
        }
      });
    }
    const std::size_t events = sim.run();
    total_events += events;
    if (!emitted) { bench::emitMetrics("timerstorm_fibers", sim); emitted = true; }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
}

// Spawn 10k short-lived processes: measures per-process setup/teardown
// (lazy fiber stack mmap and release) plus two delays each.
void BM_SimCore_FanOut10k(benchmark::State& state) {
  constexpr int kProcesses = 10000;
  std::size_t total_events = 0;
  static bool emitted = false;
  for (auto _ : state) {
    Simulation sim(42);
    for (int p = 0; p < kProcesses; ++p) {
      sim.spawn("w" + std::to_string(p), [](Process& self) {
        self.delay(sim::usec(1));
        self.delay(sim::usec(1));
      });
    }
    const std::size_t events = sim.run();
    total_events += events;
    if (!emitted) { bench::emitMetrics("fanout10k_fibers", sim); emitted = true; }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
}

BENCHMARK(BM_SimCore_PingPongWakeChain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimCore_TimerStorm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimCore_FanOut10k)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace clouds

BENCHMARK_MAIN();
