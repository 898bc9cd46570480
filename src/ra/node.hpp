// A machine running the Ra kernel.
//
// Clouds classifies machines as compute servers, data servers and user
// workstations (paper §3); a single physical node may play several roles.
// Each Node owns a CPU, a network interface + RaTP endpoint, its registered
// partitions, and the bookkeeping needed to crash and restart it (the PET
// experiments inject exactly such failures).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/ethernet.hpp"
#include "net/ratp.hpp"
#include "ra/partition.hpp"
#include "ra/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"

namespace clouds::ra {

enum class NodeRole : std::uint8_t {
  compute = 1 << 0,
  data = 1 << 1,
  workstation = 1 << 2,
};

inline int operator|(NodeRole a, NodeRole b) {
  return static_cast<int>(a) | static_cast<int>(b);
}

class Node {
 public:
  Node(sim::Simulation& sim, const sim::CostModel& cost, net::Ethernet& ether, net::NodeId id,
       std::string name, int roles);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  net::NodeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  bool hasRole(NodeRole r) const noexcept { return (roles_ & static_cast<int>(r)) != 0; }
  bool alive() const noexcept { return alive_; }

  sim::Simulation& simulation() noexcept { return sim_; }
  const sim::CostModel& cost() const noexcept { return cost_; }
  sim::CpuResource& cpu() noexcept { return cpu_; }
  net::Nic& nic() noexcept { return nic_; }
  net::RatpEndpoint& ratp() noexcept { return ratp_; }

  // Spawn a kernel-managed lightweight process (an IsiBa). It is killed if
  // this node crashes. Name is prefixed with the node name.
  sim::Process& spawnIsiBa(const std::string& name, std::function<void(sim::Process&)> body);

  // ---- Partitions ----
  void addPartition(std::unique_ptr<Partition> p);
  // The partition serving a segment (Errc::not_found if none claims it).
  Result<Partition*> partitionFor(const Sysname& segment);

  // ---- Failure injection ----
  // Crash: every IsiBa dies mid-flight (RAII unwinding), the NIC goes down,
  // all volatile kernel state (partitions' page caches) is lost. Durable
  // state (a data server's DiskStore) survives.
  void crash();
  // Restart after a crash: network back up, caches empty. Registered
  // services re-attach (they are configuration, not volatile state).
  void restart();

  // Subsystems register cleanup for volatile state lost on crash.
  void onCrashHook(std::function<void()> hook) { crash_hooks_.push_back(std::move(hook)); }
  // Subsystems register recovery work run after the node comes back up
  // (e.g. a data server scanning its durable 2PC log for in-doubt entries).
  void onRestartHook(std::function<void()> hook) { restart_hooks_.push_back(std::move(hook)); }

 private:
  sim::Simulation& sim_;
  const sim::CostModel& cost_;
  net::NodeId id_;
  std::string name_;
  int roles_;
  bool alive_ = true;
  sim::CpuResource cpu_;
  net::Nic& nic_;
  net::RatpEndpoint ratp_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<sim::Process*> isibas_;
  std::vector<std::function<void()>> crash_hooks_;
  std::vector<std::function<void()>> restart_hooks_;
  // Lifecycle fault metrics ("<name>/fault/..."), resolved at construction.
  std::uint64_t* m_fault_crashes_;
  std::uint64_t* m_fault_reboots_;
};

}  // namespace clouds::ra
