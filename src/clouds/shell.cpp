#include "clouds/shell.hpp"

#include <sstream>

namespace clouds {

namespace {

// Splits on whitespace; a double-quoted token keeps a leading '"' marker so
// parseArg treats it as a string even when it looks numeric.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (char ch : line) {
    if (ch == '"') {
      if (!quoted) {
        quoted = true;
        cur = '"';
      } else {
        quoted = false;
        out.push_back(cur);
        cur.clear();
      }
      continue;
    }
    if (!quoted && (ch == ' ' || ch == '\t')) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

obj::Value parseArg(const std::string& token) {
  if (!token.empty() && token.front() == '"') return obj::Value{token.substr(1)};
  if (token == "true") return obj::Value{true};
  if (token == "false") return obj::Value{false};
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(token, &pos);
    if (pos == token.size()) return obj::Value{static_cast<std::int64_t>(v)};
  } catch (...) {
  }
  return obj::Value{token};
}

}  // namespace

void Shell::say(const std::string& text) {
  // The shell is a Unix-side program on the workstation: its own output
  // reaches the terminal through the same I/O manager threads use.
  cluster_.sim().trace("shell", "out", text);
  cluster_.runtime(0).spawnThread(
      "shell-echo",
      [this, text](obj::CloudsThread& t) {
        sysobj::IoClient io(cluster_.computeNode(0));
        (void)io.write(*t.process, cluster_.workstationId(0), 0, text);
      },
      cluster_.workstationId(0), 0);
  cluster_.run();
}

bool Shell::execute(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty() || tokens.front().front() == '#') return true;
  const std::string& cmd = tokens.front();

  if (cmd == "help") {
    say("commands: create <class> <name> [data_idx] | invoke <name>.<entry> [args] | "
        "submit <name>.<entry> [args] | names | classes | help");
    return true;
  }
  if (cmd == "classes") {
    std::string out = "classes:";
    for (const auto& n : cluster_.classes().names()) out += " " + n;
    say(out);
    return true;
  }
  if (cmd == "names") {
    std::string joined = "names:";
    for (const auto& n : cluster_.nameServer().list()) joined += " " + n;
    say(joined);
    return true;
  }
  if (cmd == "create") {
    if (tokens.size() < 3) {
      say("usage: create <class> <name> [data_idx]");
      return false;
    }
    const int data_idx = tokens.size() > 3 ? std::stoi(tokens[3]) : 0;
    auto r = cluster_.create(tokens[1], tokens[2], data_idx);
    say(r.ok() ? "created " + tokens[2] + " = " + r.value().toString()
               : "error: " + r.error().toString());
    return r.ok();
  }
  if (cmd == "invoke" || cmd == "submit") {
    const auto dot = tokens.size() < 2 ? std::string::npos : tokens[1].find('.');
    if (dot == std::string::npos) {
      say("usage: " + cmd + " <name>.<entry> [args...]");
      return false;
    }
    const std::string object = tokens[1].substr(0, dot);
    const std::string entry = tokens[1].substr(dot + 1);
    obj::ValueList args;
    for (std::size_t i = 2; i < tokens.size(); ++i) args.push_back(parseArg(tokens[i]));
    // submit: the compute server is picked by the scheduling subsystem
    // (gossip load view + configured policy) instead of server 0.
    const bool submit = cmd == "submit";
    const int idx = submit ? cluster_.scheduleComputeServer() : 0;
    auto r = cluster_.finish(cluster_.start(object, entry, std::move(args), idx));
    const std::string where = submit ? " (on " + cluster_.computeNode(idx).name() + ")" : "";
    say(r.ok() ? object + "." + entry + " -> " + r.value().toString() + where
               : "error: " + r.error().toString());
    return r.ok();
  }
  say("unknown command: " + cmd + " (try 'help')");
  return false;
}

int Shell::executeScript(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  int failures = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && !execute(line)) ++failures;
  }
  return failures;
}

}  // namespace clouds
