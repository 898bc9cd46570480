#include "sim/trace.hpp"

#include <cstdio>

namespace clouds::sim {

std::string TraceEntry::toString() const {
  char head[48];
  std::snprintf(head, sizeof(head), "[%12.3f ms] ", toMillis(at));
  return std::string(head) + source + " " + category + ": " + message;
}

void TraceSink::record(TimePoint at, std::string source, std::string category,
                       std::string message) {
  ++count_;
  digest_ = clouds::fnv1a(source, digest_);
  digest_ = clouds::fnv1a(category, digest_);
  digest_ = clouds::fnv1a(message, digest_);
  digest_ ^= static_cast<std::uint64_t>(at.count()) * 0x9e3779b97f4a7c15ULL;
  if (keep_entries_) {
    entries_.push_back(TraceEntry{at, std::move(source), std::move(category), std::move(message)});
  }
}

void TraceSink::clear() {
  entries_.clear();
  digest_ = 0xcbf29ce484222325ULL;
  count_ = 0;
}

}  // namespace clouds::sim
