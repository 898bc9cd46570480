#include "sim/process.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "sim/simulation.hpp"

namespace clouds::sim {

Process::Process(Simulation& sim, std::uint64_t id, std::string name,
                 std::function<void(Process&)> body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {
  // The fiber and its stack are allocated lazily in resumeNow(): a spawn
  // wave only pays for processes that actually start running.
}

Process::~Process() {
  if (!done()) {
    kill();
    resumeNow();
  }
}

void Process::fiberMain() {
  if (!killed_) {
    try {
      body_(*this);
    } catch (const ProcessKilled&) {
      // Normal teardown path: node crash or simulation shutdown.
    } catch (const std::exception& e) {
      // An exception escaping a process body is a programming error in the
      // reproduction itself (expected failures travel as Result<T>).
      std::fprintf(stderr, "fatal: exception escaped sim process '%s': %s\n", name_.c_str(),
                   e.what());
      std::abort();
    }
  }
  body_ = nullptr;  // drop captured handles before announcing done
  yield(State::done);
  // Unreachable: yield(State::done) exits the fiber permanently.
  std::abort();
}

void Process::yield(State next) {
  assert(next == State::blocked || next == State::done);
  state_ = next;
  if (next == State::done) fiber_->exitTo(sim_.sched_ctx_);  // never returns
  fiber_->switchTo(sim_.sched_ctx_);
  throwIfKilled();
}

void Process::throwIfKilled() {
  if (!killed_) return;
  // Destructors running during kill-unwinding may reach here via release
  // paths; they must not block, and must not throw again.
  if (std::uncaught_exceptions() > 0) return;
  throw ProcessKilled{};
}

void Process::resumeNow() {
  assert(state_ != State::running);
  if (done()) return;
  ++*sim_.process_resumes_;
  if (!fiber_) {
    fiber_ = std::make_unique<Fiber>(
        sim_.config().fiber_stack_bytes,
        [](void* self) { static_cast<Process*>(self)->fiberMain(); }, this);
  }
  state_ = State::running;
  sim_.sched_ctx_.switchTo(*fiber_);  // returns once the process yields
  if (done()) fiber_.reset();         // free the stack as soon as it finishes
}

void Process::queueResume(Duration d) {
  resume_queued_ = true;
  sim_.schedule(d, [this] {
    resume_queued_ = false;
    if (!done()) resumeNow();
  });
}

void Process::scheduleResume() {
  if (done() || resume_queued_) return;
  if (state_ == State::blocked || state_ == State::created) state_ = State::ready;
  queueResume(kZero);
}

void Process::delay(Duration d) {
  throwIfKilled();
  assert(state_ == State::running);
  queueResume(d);
  yield(State::blocked);
}

void Process::block() {
  throwIfKilled();
  ++block_token_;  // invalidate any stale blockFor timer
  yield(State::blocked);
}

bool Process::blockFor(Duration timeout) {
  throwIfKilled();
  const std::uint64_t token = ++block_token_;
  timed_out_ = false;
  sim_.schedule(timeout, [this, token] {
    if (state_ != State::blocked || block_token_ != token || resume_queued_) return;
    timed_out_ = true;
    ++block_token_;  // a timer fires at most once
    resumeNow();
  });
  yield(State::blocked);
  const bool woken = !timed_out_;
  timed_out_ = false;
  return woken;
}

void Process::wake() {
  if (state_ != State::blocked || resume_queued_) return;
  ++block_token_;  // cancel any outstanding blockFor timeout
  scheduleResume();
}

void Process::kill() {
  if (killed_ || state_ == State::done) return;
  killed_ = true;
  if (state_ == State::blocked) scheduleResume();
}

}  // namespace clouds::sim
