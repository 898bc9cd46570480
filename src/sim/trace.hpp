// Event tracing.
//
// Every subsystem can emit (time, source, category, message) records. Traces
// serve two purposes: debugging protocol interactions, and the determinism
// test — two runs with the same seed must produce byte-identical traces, so
// the suite compares trace digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "sim/time.hpp"

namespace clouds::sim {

struct TraceEntry {
  TimePoint at;
  std::string source;    // node or subsystem name
  std::string category;  // e.g. "ratp", "dsm", "fault"
  std::string message;

  std::string toString() const;
};

class TraceSink {
 public:
  void record(TimePoint at, std::string source, std::string category, std::string message);

  // By default only the rolling digest is kept (runs trace millions of
  // events; the digest alone is enough for determinism checks). Callers
  // that read entries() opt in before the events they want are recorded.
  void setKeepEntries(bool keep) noexcept { keep_entries_ = keep; }

  const std::vector<TraceEntry>& entries() const noexcept { return entries_; }
  std::uint64_t digest() const noexcept { return digest_; }
  std::size_t count() const noexcept { return count_; }
  void clear();

 private:
  bool keep_entries_ = false;
  std::vector<TraceEntry> entries_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::size_t count_ = 0;
};

}  // namespace clouds::sim
