// Stackful user-space fibers — the simulation's context-switch engine
// (docs/SIMCORE.md).
//
// A Fiber is either *adopted* (the default constructor captures nothing and
// stands for the host thread's own stack — the scheduler side) or *created*
// with its own mmap'd stack and an entry function. Control moves only via
// explicit switchTo()/exitTo() calls; there is no preemption, which is
// exactly what the simulation's one-runner-at-a-time handshake needs.
//
// The switch itself is ~a dozen instructions of hand-rolled assembly on
// x86-64 (callee-saved registers + stack pointer + FP control words, no
// syscalls); other architectures fall back to POSIX ucontext. Both paths
// carry AddressSanitizer fiber annotations so the ASan/UBSan chaos lane can
// run the simulation with detect_stack_use_after_return enabled.
//
// Stacks are reserved lazily (MAP_NORESERVE; pages commit on first touch)
// with a PROT_NONE guard region below, so overflow faults deterministically
// instead of corrupting a neighbour. A destroyed fiber's region, guard
// intact, goes back to the StackPool it came from, and the next fiber of
// that pool reuses it instead of mapping a fresh one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace clouds::sim {

// Free list of fiber stack regions (guard + stack), owned by one Simulation.
// It holds at most the owner's peak count of live fibers; destroying it
// unmaps every pooled region, so it must outlive the fibers it serves.
class StackPool {
 public:
  StackPool() = default;
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

 private:
  friend class Fiber;
  struct Region {
    void* base;
    std::size_t bytes;
  };
  std::vector<Region> free_;
};

class Fiber {
 public:
  using Entry = void (*)(void*);

  // Adopt the calling host thread's context (the scheduler side). Its stack
  // bounds are learned on the first switch away (needed only by ASan).
  Fiber() = default;

  // Create a suspended fiber that will run entry(arg) on its own stack the
  // first time something switches to it. entry must never return: it ends
  // by calling exitTo() (or suspends forever via switchTo()). The stack
  // comes from `pool` when it holds a region of the right size, and goes
  // back to it when the fiber is destroyed.
  Fiber(StackPool& pool, std::size_t stack_bytes, Entry entry, void* arg);

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Suspend this context (which must be the one currently running) and run
  // `to` until something switches back here.
  void switchTo(Fiber& to);

  // Final switch out of a created fiber: like switchTo, but this fiber is
  // never resumed again and its stack may be freed once `to` is running.
  [[noreturn]] void exitTo(Fiber& to);

  // Lowest usable byte of a created fiber's stack; the guard region ends
  // just below it. Null for an adopted context.
  const void* stackBottom() const noexcept { return alloc_ == nullptr ? nullptr : asan_bottom_; }

 private:
  static void finishEnter();
  [[noreturn]] static void launch();
  void beginSwitch(Fiber& to, bool exiting);

#if defined(__x86_64__)
  void* sp_ = nullptr;  // saved stack pointer while suspended
#else
  ucontext_t ctx_{};
#endif
  StackPool* pool_ = nullptr;    // where the region returns; null if adopted
  void* alloc_ = nullptr;        // region base (guard + stack); null if adopted
  std::size_t alloc_bytes_ = 0;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  // ASan bookkeeping: the stack extent announced to the sanitizer and the
  // fake-stack handle saved across suspension. Unused (but cheap) when the
  // sanitizer is off.
  const void* asan_bottom_ = nullptr;
  std::size_t asan_size_ = 0;
  void* asan_fake_stack_ = nullptr;
};

}  // namespace clouds::sim
