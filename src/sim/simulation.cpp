#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace clouds::sim {

Simulation::Simulation(std::uint64_t seed) : Simulation(SimConfig{.seed = seed}) {}

Simulation::Simulation(const SimConfig& config) : config_(config), rng_(config.seed) {
  events_executed_ = &metrics_.counter("sim/events_executed");
  process_resumes_ = &metrics_.counter("sim/process_resumes");
  processes_spawned_ = &metrics_.counter("sim/processes_spawned");
}

Simulation::~Simulation() { shutdownProcesses(); }

void Simulation::schedule(Duration delay, std::function<void()> fn) {
  pushClosure(delay, std::move(fn), false);
}

void Simulation::scheduleDaemon(Duration delay, std::function<void()> fn) {
  pushClosure(delay, std::move(fn), true);
}

void Simulation::push(Duration delay, Process* proc, std::uint64_t arg, EventKind kind,
                      bool daemon) {
  if (delay < kZero) throw std::invalid_argument("Simulation: negative event delay");
  queue_.push_back(Event{now_ + delay, next_seq_++, proc, arg, kind, daemon});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
  if (!daemon) ++live_events_;
}

void Simulation::pushClosure(Duration delay, std::function<void()> fn, bool daemon) {
  const auto slot = static_cast<std::uint32_t>(free_closures_.empty() ? closures_.size()
                                                                      : free_closures_.back());
  push(delay, nullptr, slot, EventKind::fn, daemon);  // throws before the slot is taken
  if (slot == closures_.size()) {
    closures_.push_back(std::move(fn));
  } else {
    free_closures_.pop_back();
    closures_[slot] = std::move(fn);
  }
}

void Simulation::dispatch(const Event& e) {
  switch (e.kind) {
    case EventKind::resume:
      e.proc->onResumeEvent();
      break;
    case EventKind::timeout:
      e.proc->onTimeoutEvent(e.arg);
      break;
    case EventKind::fn: {
      // Move the closure out and free its slot first: the closure may
      // schedule more, which can reuse the slot or grow closures_.
      auto fn = std::move(closures_[e.arg]);
      closures_[e.arg] = nullptr;
      free_closures_.push_back(static_cast<std::uint32_t>(e.arg));
      fn();
      break;
    }
  }
}

Process& Simulation::spawn(std::string name, std::function<void()> body) {
  return spawn(std::move(name), [body = std::move(body)](Process&) { body(); });
}

Process& Simulation::spawn(std::string name, std::function<void(Process&)> body) {
  auto p = std::unique_ptr<Process>(
      new Process(*this, next_process_id_++, std::move(name), std::move(body)));
  Process& ref = *p;
  processes_.push_back(std::move(p));
  ++*processes_spawned_;
  ref.scheduleResume();
  return ref;
}

std::size_t Simulation::run() {
  return runUntil(TimePoint(std::numeric_limits<std::int64_t>::max()), false);
}

std::size_t Simulation::runFor(Duration horizon) { return runUntil(now_ + horizon, true); }

std::size_t Simulation::runUntil(TimePoint horizon, bool bounded) {
  if (running_) throw std::logic_error("Simulation::run is not reentrant");
  running_ = true;
  stopped_ = false;
  std::size_t executed = 0;
  while (!queue_.empty() && !stopped_) {
    // An unbounded run drains real work; once only daemon housekeeping
    // (periodic gossip ticks, ...) remains, it would spin forever, so stop
    // and leave the daemon events queued for the next bounded run.
    if (!bounded && live_events_ == 0) break;
    if (bounded && queue_.front().at > horizon) break;
    std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
    const Event e = queue_.back();
    queue_.pop_back();
    assert(e.at >= now_);
    now_ = e.at;
    if (!e.daemon) --live_events_;
    dispatch(e);
    ++executed;
    ++*events_executed_;
  }
  if (bounded && !stopped_ && now_ < horizon) now_ = horizon;
  running_ = false;
  return executed;
}

std::size_t Simulation::liveProcessCount() const noexcept {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->done()) ++n;
  }
  return n;
}

void Simulation::shutdownProcesses() {
  // Kill in reverse creation order so dependents unwind before the services
  // they use. A killed process's unwinding may wake others; resume those via
  // direct handoff as well (events no longer run).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
      Process& p = **it;
      if (p.done()) continue;
      p.kill();
      if (p.state() == Process::State::blocked || p.state() == Process::State::ready ||
          p.state() == Process::State::created) {
        p.resumeNow();
        progressed = true;
      }
    }
  }
}

}  // namespace clouds::sim
