// Temporary diagnostic for the multi-worker sort failure.
#include <cstdio>
#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"
using namespace clouds;
int main() {
  ClusterConfig cfg; cfg.compute_servers = 2; cfg.data_servers = 1; cfg.workstations = 0;
  Cluster c(cfg);
  c.classes().registerClass(obj::samples::sorterClass());
  (void)c.create("sorter", "S");
  (void)c.call("S", "fill", {32768, 12345});
  auto sum0 = c.call("S", "checksum", {0, 32768}).value();
  auto w0 = c.start("S", "sort_range", {0, 16384}, 0);
  auto w1 = c.start("S", "sort_range", {16384, 32768}, 1);
  c.run();
  std::printf("w0 ok=%d w1 ok=%d\n", w0->result.ok(), w1->result.ok());
  auto s0 = c.call("S", "is_sorted", {0, 16384}).value();
  auto s1 = c.call("S", "is_sorted", {16384, 32768}).value();
  auto sum1 = c.call("S", "checksum", {0, 32768}).value();
  std::printf("half0 sorted=%s half1 sorted=%s sum match=%d\n", s0.toString().c_str(),
              s1.toString().c_str(), sum0 == sum1);
  int shown = 0;
  for (const auto& e : c.sim().tracer().entries()) {
    if (e.message.find("lost") != std::string::npos ||
        e.message.find("retransmit") != std::string::npos ||
        e.message.find("stale") != std::string::npos) {
      if (shown < 12) std::printf("TRACE %s\n", e.toString().c_str());
      ++shown;
    }
  }
  const sim::MetricsRegistry& m = c.sim().metrics();
  std::printf("%d suspicious trace entries; retransmits=%llu frames=%llu\n", shown,
              static_cast<unsigned long long>(m.sumCounters("ratp/retransmits")),
              static_cast<unsigned long long>(m.counterValue("net/eth/frames_on_wire")));
  return 0;
}
