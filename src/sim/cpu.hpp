// A node's CPU as a schedulable resource.
//
// Ra's low-level scheduler multiplexes IsiBas over the processor (paper
// §4.1); here each simulated machine has one CpuResource, compute time is
// consumed through it FIFO, and the paper's 0.14 ms context-switch cost is
// charged whenever ownership changes hands.
#pragma once

#include <cstdint>
#include <string>

#include "sim/metrics.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace clouds::sim {

class CpuResource {
 public:
  CpuResource(Duration context_switch_cost) : switch_cost_(context_switch_cost) {
    attachMetrics(unattached_, "unattached");
  }
  // The counter handles may point into this object's own registry.
  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  // Count this CPU's scheduler metrics into "<prefix>/cpu/context_switches"
  // and "<prefix>/cpu/busy_usec"; call before the first compute(). The Ra
  // node layer attaches its CPU at construction; a bare CpuResource
  // (micro-benches) counts into a private registry nobody reads.
  void attachMetrics(MetricsRegistry& metrics, const std::string& prefix);

  // Consume `work` of CPU time (plus a context switch if the previous user
  // was a different process). Blocks while other processes occupy the CPU.
  void compute(Process& self, Duration work);

 private:
  Duration switch_cost_;
  SimMutex mu_;
  const Process* last_user_ = nullptr;
  MetricsRegistry unattached_;
  std::uint64_t* m_switches_;
  std::uint64_t* m_busy_usec_;
};

}  // namespace clouds::sim
