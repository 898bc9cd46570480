#include "sim/cpu.hpp"

#include <algorithm>

namespace clouds::sim {

namespace {
// Preemption quantum: a long computation is sliced so interrupt-level work
// (the NIC receive path, coherence callbacks) gets the CPU promptly — a
// non-preemptive burst would starve the node's protocol processing, which
// no real kernel allows. The quantum sits close to the per-packet protocol
// costs so interrupt-level work is delayed by at most ~1 ms, approximating
// interrupt priority without a full priority scheduler.
constexpr Duration kQuantum = msec(1);
}  // namespace

void CpuResource::attachMetrics(MetricsRegistry& metrics, const std::string& prefix) {
  m_switches_ = &metrics.counter(prefix + "/cpu/context_switches");
  m_busy_usec_ = &metrics.counter(prefix + "/cpu/busy_usec");
}

void CpuResource::compute(Process& self, Duration work) {
  Duration remaining = work;
  do {
    SimLockGuard guard(mu_, self);
    Duration slice = std::min(remaining, kQuantum);
    if (last_user_ != &self) {
      slice += switch_cost_;
      ++*m_switches_;
      last_user_ = &self;
    }
    *m_busy_usec_ += static_cast<std::uint64_t>(slice.count() / 1000);
    if (slice > kZero) self.delay(slice);
    remaining -= std::min(remaining, kQuantum);
  } while (remaining > kZero);
}

}  // namespace clouds::sim
