// The discrete-event simulation driving a Clouds cluster.
//
// One Simulation owns the virtual clock, the event queue, every Process,
// the seeded random stream, and the trace sink. Events at equal timestamps
// execute in insertion order, which — together with the one-runner process
// handshake — makes runs deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/fiber.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace clouds::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  explicit Simulation(const SimConfig& config);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const noexcept { return now_; }
  std::uint64_t seed() const noexcept { return config_.seed; }
  const SimConfig& config() const noexcept { return config_; }

  // Schedule fn to run in event context at now() + delay.
  void schedule(Duration delay, std::function<void()> fn);

  // Schedule a *daemon* event: background housekeeping (e.g. the load
  // gossip tick) that fires normally during bounded runs but does not keep
  // an unbounded run() alive — run() returns once only daemon events remain
  // queued, so "drain the cluster" loops still terminate.
  void scheduleDaemon(Duration delay, std::function<void()> fn);

  // Create a process; its body starts executing at now() (via the queue).
  // The returned reference stays valid for the simulation's lifetime. The
  // second form hands the body its own Process handle.
  Process& spawn(std::string name, std::function<void()> body);
  Process& spawn(std::string name, std::function<void(Process&)> body);

  // Run until the event queue drains, an optional deadline passes, or
  // stop() is called. Returns the number of events executed.
  std::size_t run();
  std::size_t runFor(Duration horizon);
  void stop() noexcept { stopped_ = true; }

  // True when nothing remains scheduled (blocked processes may still exist).
  bool idle() const noexcept { return queue_.empty(); }

  std::size_t liveProcessCount() const noexcept;

  // Deterministic per-simulation randomness (only consumer of the seed).
  std::mt19937_64& rng() noexcept { return rng_; }
  double uniform01() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }

  // Per-simulation metrics: part of the deterministic universe, like traces.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  TraceSink& tracer() noexcept { return trace_; }
  void trace(std::string source, std::string category, std::string message) {
    trace_.record(now_, std::move(source), std::move(category), std::move(message));
  }

 private:
  friend class Process;

  struct Event {
    TimePoint at;
    std::uint64_t seq;
    bool daemon;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::size_t runUntil(TimePoint horizon, bool bounded);
  void shutdownProcesses();

  SimConfig config_;
  // The scheduler side of every fiber context switch: adopts whichever host
  // stack is driving the event loop.
  Fiber sched_ctx_;
  TimePoint now_ = kZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_process_id_ = 0;
  bool stopped_ = false;
  bool running_ = false;
  std::size_t live_events_ = 0;  // queued non-daemon events
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::mt19937_64 rng_;
  TraceSink trace_;
  MetricsRegistry metrics_;
  // Simulation-core throughput counters (sim/*): cached references, bumped
  // on the hot path; bench_simcore reports them (E10).
  std::uint64_t* events_executed_ = nullptr;
  std::uint64_t* process_resumes_ = nullptr;
  std::uint64_t* processes_spawned_ = nullptr;
};

// Convenience: the simulation clock as milliseconds (for reports/benches).
inline double nowMillis(const Simulation& s) { return toMillis(s.now()); }

}  // namespace clouds::sim
