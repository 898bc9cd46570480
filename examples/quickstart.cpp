// Quickstart: the paper's own walkthrough (§2.4).
//
//   clouds_class rectangle;
//     int x, y;              // persistent data
//     entry rectangle;       // constructor
//     entry size (int x, y);
//     entry int area ();
//   end_class
//
//   rect.bind("Rect01");
//   rect.size(5, 10);
//   printf("%d\n", rect.area());   // will print 50
//
// Build a 2-compute / 1-data / 1-workstation cluster, define the class,
// instantiate Rect01, and invoke it — including from the *other* compute
// server, which demand-pages the object over the simulated Ethernet.
#include <cstdio>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

int main() {
  using namespace clouds;

  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 1;
  cfg.workstations = 1;
  Cluster cluster(cfg);

  // "A class is a compiled program module": rectangleClass() is the CC++
  // module of the paper, with persistent ints x and y at offsets 0 and 8.
  cluster.classes().registerClass(obj::samples::rectangleClass());

  auto rect = cluster.create("rectangle", "Rect01");
  if (!rect.ok()) {
    std::fprintf(stderr, "create failed: %s\n", rect.error().toString().c_str());
    return 1;
  }
  std::printf("created Rect01 (sysname %s) on data server 100\n",
              rect.value().toString().c_str());

  if (auto r = cluster.call("Rect01", "size", {5, 10}); !r.ok()) {
    std::fprintf(stderr, "size failed: %s\n", r.error().toString().c_str());
    return 1;
  }

  auto area = cluster.call("Rect01", "area");
  std::printf("Rect01.area() from compute server 0 -> %s   (paper: will print 50)\n",
              area.value().toString().c_str());

  // Location transparency: the same object from the other compute server.
  auto area2 = cluster.call("Rect01", "area", {}, /*compute_idx=*/1);
  std::printf("Rect01.area() from compute server 1 -> %s\n",
              area2.value().toString().c_str());

  std::printf("simulated time: %.3f ms, frames on the wire: %llu\n",
              sim::toMillis(cluster.sim().now()),
              static_cast<unsigned long long>(
                  cluster.sim().metrics().counterValue("net/eth/frames_on_wire")));
  return area.value() == obj::Value{50} && area2.value() == obj::Value{50} ? 0 : 1;
}
