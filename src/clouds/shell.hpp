// The Clouds user shell (paper §3.1).
//
// "A user invokes a Clouds object by specifying the object, the entry point
//  and the arguments to the Clouds shell. The Clouds shell sends an
//  invocation request to a compute server and the invocation proceeds under
//  Clouds using a Clouds thread."
//
// Commands (one per line, executed from a workstation window):
//   create <class> <name> [data_idx]      instantiate a class
//   invoke <name>.<entry> [args...]       run an entry point (int / "str")
//   submit <name>.<entry> [args...]       like invoke, but the compute
//                                         server is chosen by the sched/
//                                         subsystem (load-aware placement)
//   names                                 list name-server bindings
//   classes                               list registered classes
//   help
//
// Output appears on the workstation terminal window, like everything else a
// thread prints.
#pragma once

#include <string>

#include "clouds/cluster.hpp"

namespace clouds {

class Shell {
 public:
  // `invoke` and `create` run on compute server 0; output goes to window 0
  // of workstation 0.
  explicit Shell(Cluster& cluster) : cluster_(cluster) {}

  // Execute one command line; output goes to the terminal window.
  // Returns false only for unknown commands / parse errors (also reported
  // to the terminal).
  bool execute(const std::string& line);

  // Convenience: run a whole script, one command per line.
  int executeScript(const std::string& script);

 private:
  void say(const std::string& text);

  Cluster& cluster_;
};

}  // namespace clouds
