// One run of one benchmark workload, in its own process (run.py starts it,
// so a crash is contained to this run).
//
//   perfbench_workload --workload <social_read|social_write|store_commit>
//                      --seed <n> --out <result.json> [--spans <spans.json>]
//
// Every input comes from --seed. The run builds its universe, warms it up,
// runs the measured phase, checks the program's outputs, and writes one JSON
// object to --out: host CPU per phase, exact sim-clock latencies per op class
// (nearest rank over every completed op), op counts, the registry snapshots
// taken around the measured phase, and a digest of everything the simulated
// universe produced. With --spans the run also records spans at its own
// calls into the program and writes them out after the measured phase.
// NOTES.md defines each workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "app/social.hpp"
#include "clouds/cluster.hpp"
#include "load/generator.hpp"
#include "sim/simulation.hpp"
#include "store/disk_store.hpp"

namespace {

using namespace clouds;

// ---------------------------------------------------------------- host clocks

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t hostNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix(seed * 0x100000001b3ull + stream);
}

// FNV-1a over what the simulated universe produced (registry snapshots, and
// the generator transcript in social_*); run.py compares it, with every other
// sim-clock result, across same-seed runs.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  }
};

// ---------------------------------------------------------------- spans

// A span at one of the benchmark's own boundaries. `clock` is "host"
// (steady_clock ns) or "sim" (virtual ns); `key` is the transcript index for
// op spans and -1 elsewhere. A failed op's span has end = -1.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::string name;
  const char* clock = "host";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t key = -1;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  std::int64_t add(std::string name, const char* clock, std::int64_t start, std::int64_t end,
                   std::int64_t parent = -1, std::int64_t key = -1) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({id, parent, std::move(name), clock, start, end, key});
    return id;
  }
  void close(std::int64_t id, std::int64_t end) {
    if (enabled_) spans_[static_cast<std::size_t>(id)].end = end;
  }
  std::size_t size() const noexcept { return spans_.size(); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%" PRId64 ",\"parent\":%" PRId64
                   ",\"name\":\"%s\",\"clock\":\"%s\",\"start\":%" PRId64 ",\"end\":%" PRId64
                   ",\"key\":%" PRId64 "}%s\n",
                   s.id, s.parent, s.name.c_str(), s.clock, s.start, s.end, s.key,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- results

// Completed-op latencies of one op class, in sim microseconds.
struct OpClass {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::int64_t> lat_usec;
};

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it.
std::int64_t percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[rank - 1];
}

struct RunResult {
  std::map<std::string, OpClass> ops;      // by op class
  std::map<std::string, OpClass> derived;  // unions of op classes
  std::map<std::string, std::int64_t> sim;  // sim-clock results (integers)
  std::map<std::string, double> host;       // host-clock results
  std::map<std::string, double> trace;      // traced runs only
  std::string registry_before, registry_after;
  Digest digest;
  bool correct = true;
  std::string check;  // what the correctness check found
};

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void appendClasses(std::ostringstream& o, std::map<std::string, OpClass>& classes) {
  o << "{";
  bool first = true;
  for (auto& [name, c] : classes) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"attempted\":" << c.attempted
      << ",\"failed\":" << c.failed << ",\"lat_usec\":[";
    std::sort(c.lat_usec.begin(), c.lat_usec.end());
    for (std::size_t i = 0; i < c.lat_usec.size(); ++i) o << (i ? "," : "") << c.lat_usec[i];
    o << "]}";
    first = false;
  }
  o << "}";
}

template <typename V>
void appendValues(std::ostringstream& o, const std::map<std::string, V>& values) {
  o << "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    o << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  o << "}";
}

bool writeResult(const std::string& path, const std::string& workload, std::uint64_t seed,
                 RunResult& r) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << workload << "\",\"seed\":" << seed;
  o << ",\"correct\":" << (r.correct ? "true" : "false") << ",\"check\":\""
    << jsonEscape(r.check) << "\"";
  o << ",\"digest\":\"" << std::hex << r.digest.h << std::dec << "\"";
  o << ",\"ops\":";
  appendClasses(o, r.ops);
  o << ",\"derived\":";
  appendClasses(o, r.derived);
  o << ",\"sim\":";
  appendValues(o, r.sim);
  o << ",\"host\":";
  appendValues(o, r.host);
  o << ",\"trace\":";
  appendValues(o, r.trace);
  o << ",\"registry_before\":" << r.registry_before
    << ",\"registry_after\":" << r.registry_after << "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string s = o.str();
  std::fwrite(s.data(), 1, s.size(), f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- social_*

struct SocialShape {
  double rate;  // base arrivals per simulated second
  load::Mix mix;
  std::uint64_t warmup_ops;
  std::uint64_t measured_ops;
};

// One run's op counts. run.py pools several runs, so that every op class
// that feeds an end-to-end percentile keeps at least ten completed samples
// beyond its p99.
SocialShape socialShape(const std::string& workload) {
  if (workload == "social_read") return {30.0, load::Mix{0.80, 0.12, 0.06, 0.02}, 2000, 5000};
  return {10.0, load::Mix{0.50, 0.30, 0.15, 0.05}, 1000, 4000};
}

// One line of the generator's transcript: "<idx> t=<usec> <kind> u=<key>
// cs=<node> <ok|fail> lat=<usec>" (load/generator.hpp). Failed ops carry no
// latency.
struct TranscriptOp {
  std::int64_t idx = 0;
  std::int64_t t_usec = 0;
  std::string kind;
  bool ok = false;
  std::int64_t lat_usec = -1;
};

template <typename F>
bool forEachOp(const std::string& transcript, F&& f) {
  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    long long idx = 0, t = 0, lat = 0;
    char kind[16] = {0}, outcome[8] = {0};
    if (std::sscanf(line.c_str(), "%lld t=%lld %15s u=%*s cs=%*s %7s lat=%lld", &idx, &t, kind,
                    outcome, &lat) != 5) {
      return false;
    }
    f(TranscriptOp{idx, t, kind, std::string(outcome) == "ok", lat});
  }
  return true;
}

std::uint64_t socialPlannedOps(const std::string& workload) {
  return socialShape(workload).measured_ops;
}

int runSocial(const std::string& workload, std::uint64_t seed, Spans& spans, RunResult& r) {
  const SocialShape shape = socialShape(workload);
  const std::uint64_t kUsers = std::uint64_t{1} << 20;

  const double cpu0 = cpuSeconds();
  const std::int64_t h0 = hostNanos();
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 4;
  cfg.workstations = 1;
  cfg.seed = seed;
  cfg.store_engine = store::StoreEngine::wal;
  // The gossip cadence bench_social.cpp (E12) runs with.
  cfg.sched.gossip_interval = sim::msec(250);
  cfg.sched.stale_after = sim::msec(1000);
  cfg.sched.evict_after = sim::msec(4000);
  Cluster cluster(cfg);
  const double cpu1 = cpuSeconds();
  const std::int64_t h1 = hostNanos();
  const std::int64_t root = spans.add("run", "host", h0, 0);
  spans.add("cluster.construct", "host", h0, h1, root);

  app::SocialApp::Options opts;
  opts.shards = 16;
  opts.user_capacity = 2 * kUsers;
  opts.post_ring_slots = 1 << 12;
  opts.seed_users = kUsers;
  auto built = app::SocialApp::build(cluster, opts);
  if (!built.ok()) {
    r.correct = false;
    r.check = "SocialApp::build failed: " + built.error().toString();
    return 1;
  }
  app::SocialApp social = std::move(built).value();
  const double cpu2 = cpuSeconds();
  const std::int64_t h2 = hostNanos();
  spans.add("app.build", "host", h1, h2, root);

  load::GeneratorOptions gen;
  gen.theta = 0.99;
  gen.base_rate = shape.rate;
  gen.diurnal_amplitude = 0.6;
  gen.diurnal_period = sim::sec(40);
  gen.mix = shape.mix;

  // Unmeasured warm-up stream on the same cluster: fills the DSM caches and
  // grows the follow graph so the measured phase starts warm.
  load::GeneratorOptions warm = gen;
  warm.ops = shape.warmup_ops;
  warm.seed = subSeed(seed, 1);
  load::Generator warmup(cluster, social, warm);
  const sim::TimePoint w0 = cluster.sim().now();
  warmup.run();
  const sim::TimePoint w1 = cluster.sim().now();
  const double cpu3 = cpuSeconds();
  const std::int64_t h3 = hostNanos();
  spans.add("load.warmup", "host", h2, h3, root);
  spans.add("load.warmup", "sim", w0.count(), w1.count(), root);

  r.registry_before = cluster.sim().metrics().toJson();
  load::GeneratorOptions meas = gen;
  meas.ops = shape.measured_ops;
  meas.seed = subSeed(seed, 2);
  load::Generator measured(cluster, social, meas);
  const sim::TimePoint m0 = cluster.sim().now();
  measured.run();
  const sim::TimePoint m1 = cluster.sim().now();
  const std::int64_t h4 = hostNanos();
  const double cpu4 = cpuSeconds();

  const std::int64_t measured_span = spans.add("load.measured", "sim", m0.count(), m1.count(), root);
  spans.add("load.measured", "host", h3, h4, root);
  std::int64_t last_arrival_usec = 0;
  std::int64_t last_write_ack_usec = m0.count() / 1000;
  std::uint64_t writes_ok = 0;
  // Every post, follow and register is one consistency transaction.
  OpClass& commit = r.derived["commit"];
  const bool parsed = forEachOp(measured.transcript(), [&](const TranscriptOp& op) {
    const bool is_write = op.kind != "read";
    OpClass& c = r.ops[op.kind];
    c.attempted += 1;
    if (is_write) commit.attempted += 1;
    last_arrival_usec = std::max(last_arrival_usec, op.t_usec);
    if (op.ok) {
      c.lat_usec.push_back(op.lat_usec);
      if (is_write) {
        commit.lat_usec.push_back(op.lat_usec);
        ++writes_ok;
        last_write_ack_usec = std::max(last_write_ack_usec, op.t_usec + op.lat_usec);
      }
    } else {
      c.failed += 1;
      if (is_write) commit.failed += 1;
    }
    spans.add(op.kind, "sim", op.t_usec * 1000, op.ok ? (op.t_usec + op.lat_usec) * 1000 : -1,
              measured_span, op.idx);
  });
  if (!parsed) {
    r.correct = false;
    r.check = "unparsable generator transcript";
    return 1;
  }

  r.registry_after = cluster.sim().metrics().toJson();
  r.sim["measured_usec"] = (m1 - m0).count() / 1000;
  r.sim["drain_usec"] = m1.count() / 1000 - last_arrival_usec;
  r.sim["commit_window_usec"] = last_write_ack_usec - m0.count() / 1000;
  r.sim["commits_ok"] = static_cast<std::int64_t>(writes_ok);
  r.digest.add(measured.transcript());
  r.digest.add(r.registry_before);
  r.digest.add(r.registry_after);

  r.host["build_s"] = cpu2 - cpu1;
  r.host["warmup_s"] = cpu3 - cpu2;
  r.host["setup_s"] = cpu3 - cpu0;
  r.host["measured_s"] = cpu4 - cpu3;

  // Registration bounds: a register can commit and still report a timeout,
  // so the watermark total lies between seeded + succeeded and seeded +
  // attempted, over the warm-up and measured streams together.
  std::uint64_t warm_reg_ok = 0;
  forEachOp(warmup.transcript(), [&](const TranscriptOp& op) {
    if (op.kind == "register" && op.ok) ++warm_reg_ok;
  });
  const std::uint64_t warm_reg = warmup.summary().per_kind[3];
  const OpClass& reg = r.ops["register"];
  const std::uint64_t lo = kUsers + warm_reg_ok + (reg.attempted - reg.failed);
  const std::uint64_t hi = kUsers + warm_reg + reg.attempted;
  auto users = social.registeredUsers();
  if (!users.ok()) {
    r.correct = false;
    r.check = "registeredUsers failed: " + users.error().toString();
  } else {
    const auto n = static_cast<std::uint64_t>(users.value());
    r.correct = n >= lo && n <= hi;
    r.check = "registeredUsers=" + std::to_string(n) + " in [" + std::to_string(lo) + "," +
              std::to_string(hi) + "]";
    r.digest.add(std::to_string(n));
  }
  spans.close(root, hostNanos());
  return 0;
}

// ---------------------------------------------------------------- store_commit

// E11 scaled up, on one wal-engine DiskStore with E11's 64-page buffer cache,
// the default group-commit window and the flusher running:
//   32 committers  back-to-back single-page prepare + commitPrepared txns,
//                  each on its own page ("commit" class);
//   fan-out txns   kFanoutPages-page prepare + commitPrepared txns on the
//                  fan-out region, Poisson arrivals ("post" class);
//   cold reads     readPage of a random page of the cold region, Poisson
//                  arrivals ("read" class).
// The two open-loop streams stop when the last committer finishes. Their
// rates and the fan-out width are what one combined server's store sees in
// social_write; NOTES.md cites the registry figures they come from. The reads
// come at that store's whole read rate but all on cold pages: nearly all of
// its reads hit memory, which costs no simulated time.
constexpr std::uint32_t kCommitters = 32;
constexpr std::uint32_t kCommitTxns = 4000;
constexpr double kFanoutPerSec = 1.53;     // dsm/tx_prepares per node per sim s
constexpr std::uint32_t kFanoutPages = 3;  // wal/pages_written_back per dsm/tx_commits
constexpr double kReadsPerSec = 9.75;      // store/cache_{hits,misses} per node per sim s
// Pages the fan-out txns write, and pages only the reads touch. The cold
// region is 32x the cache, so a read almost always pays the disk.
constexpr std::uint32_t kFanoutRegion = 256;
constexpr std::uint32_t kColdPages = 2048;
constexpr std::size_t kStoreCachePages = 64;
constexpr std::uint32_t kSetupBatch = 64;  // pages per set-up txn

std::uint64_t storePlannedOps() {
  // The open-loop streams have no planned count; a lost run is charged its
  // planned single-page txns.
  return std::uint64_t{kCommitters} * kCommitTxns;
}

// A page image names its page and write sequence number in its first 16
// bytes and fills the rest from them, so any torn or misdirected page shows.
Bytes pageImage(std::uint64_t page, std::uint64_t seq, std::uint64_t salt) {
  Bytes b(ra::kPageSize);
  std::uint64_t x = splitmix(salt ^ (page << 40) ^ seq);
  std::memcpy(b.data(), &page, 8);
  std::memcpy(b.data() + 8, &seq, 8);
  for (std::size_t i = 16; i < b.size(); i += 8) {
    x = splitmix(x);
    std::memcpy(b.data() + i, &x, 8);
  }
  return b;
}

int runStore(std::uint64_t seed, Spans& spans, RunResult& r) {
  const std::uint64_t salt = subSeed(seed, 3);
  const std::uint32_t fanout_first = kCommitters;
  const std::uint32_t cold_first = fanout_first + kFanoutRegion;
  const std::uint32_t pages = cold_first + kColdPages;

  const double cpu0 = cpuSeconds();
  const std::int64_t h0 = hostNanos();
  sim::Simulation sim{seed};
  sim::CostModel cost;
  store::DiskStore store{100, cost, kStoreCachePages, store::StoreEngine::wal};
  store.attachMetrics(sim.metrics(), "ds0");
  store.startFlusher(sim);
  const Sysname seg = store.createSegment(std::uint64_t{pages} * ra::kPageSize).value();
  const double cpu1 = cpuSeconds();
  const std::int64_t h1 = hostNanos();
  const std::int64_t root = spans.add("run", "host", h0, 0);
  spans.add("store.construct", "host", h0, h1, root);

  // The image every page holds once its last commitPrepared has been called
  // (commitPrepared stages its pages before it blocks, so call order is the
  // page's history even when two fan-out txns share a page).
  std::vector<Bytes> expected(pages);
  std::vector<std::uint64_t> seq(pages, 0);

  // Warm-up (set-up): every page committed once, then the flusher drained,
  // so the cold pages are on disk.
  sim.spawn("warmup", [&](sim::Process& self) {
    for (std::uint32_t p = 0; p < pages; p += kSetupBatch) {
      std::vector<store::PageUpdate> ups;
      for (std::uint32_t i = p; i < std::min(pages, p + kSetupBatch); ++i) {
        expected[i] = pageImage(i, ++seq[i], salt);
        ups.push_back({{seg, i}, expected[i]});
      }
      const std::uint64_t txid = (std::uint64_t{1} << 62) | p;
      if (!store.prepare(self, txid, std::move(ups)).ok() ||
          !store.commitPrepared(self, txid).ok()) {
        r.correct = false;
        r.check = "warm-up txn failed";
        return;
      }
    }
    while (store.needsWriteBack()) self.delay(cost.wal_writeback_interval);
  });
  sim.run();
  if (!r.correct) return 1;
  const double cpu2 = cpuSeconds();
  const std::int64_t h2 = hostNanos();
  spans.add("store.warmup", "host", h1, h2, root);

  r.registry_before = sim.metrics().toJson();
  const sim::TimePoint m0 = sim.now();
  const std::int64_t measured_span = spans.add("store.measured", "sim", m0.count(), 0, root);
  sim::TimePoint last_commit = m0;
  std::uint32_t committers_left = kCommitters;
  OpClass& commit = r.ops["commit"];
  OpClass& post = r.ops["post"];
  OpClass& read = r.ops["read"];
  std::vector<std::int64_t> prepare_host, commit_host, prepare_sim;

  // One txn writing fresh images of `ps`: prepare + commitPrepared, timed on
  // both clocks when tracing. Appends its sim latency to `cls`.
  const auto txn = [&](sim::Process& self, OpClass& cls, std::uint64_t txid,
                       const std::vector<std::uint32_t>& ps) {
    std::vector<store::PageUpdate> ups;
    std::vector<Bytes> imgs;
    for (std::uint32_t p : ps) {
      imgs.push_back(pageImage(p, ++seq[p], salt));
      ups.push_back({{seg, p}, imgs.back()});
    }
    cls.attempted += 1;
    const std::int64_t s0 = sim.now().count();
    const std::int64_t a = spans.enabled() ? hostNanos() : 0;
    const bool prepared = store.prepare(self, txid, std::move(ups)).ok();
    const std::int64_t b = spans.enabled() ? hostNanos() : 0;
    const std::int64_t s1 = sim.now().count();
    if (!prepared) {
      cls.failed += 1;
      return;
    }
    for (std::size_t k = 0; k < ps.size(); ++k) expected[ps[k]] = std::move(imgs[k]);
    const bool committed = store.commitPrepared(self, txid).ok();
    const std::int64_t s2 = sim.now().count();
    if (spans.enabled()) {
      const std::int64_t c = hostNanos();
      const auto tid = static_cast<std::int64_t>(txid);
      spans.add("store.prepare", "host", a, b, measured_span, tid);
      spans.add("store.commitPrepared", "host", b, c, measured_span, tid);
      spans.add("store.prepare", "sim", s0, s1, measured_span, tid);
      spans.add("store.commitPrepared", "sim", s1, s2, measured_span, tid);
      prepare_host.push_back(b - a);
      commit_host.push_back(c - b);
      prepare_sim.push_back(s1 - s0);
    }
    if (!committed) {
      cls.failed += 1;
      return;
    }
    cls.lat_usec.push_back((s2 - s0) / 1000);
  };

  for (std::uint32_t w = 0; w < kCommitters; ++w) {
    sim.spawn("committer" + std::to_string(w), [&, w](sim::Process& self) {
      // Each txn starts after a pause drawn from one group-commit window.
      // Without it the committers move in lockstep with the force cycle and
      // their latencies fall on a few values that no seed moves.
      std::mt19937_64 rng(subSeed(seed, 100 + w));
      std::uniform_int_distribution<std::int64_t> jitter(0, cost.wal_group_commit_window.count());
      for (std::uint32_t i = 0; i < kCommitTxns; ++i) {
        self.delay(sim::Duration{jitter(rng)});
        txn(self, commit, (std::uint64_t{w} << 32) | i, {w});
      }
      if (--committers_left == 0) last_commit = sim.now();
    });
  }

  // Two streams of Poisson arrivals, each op its own process, until the last
  // committer finishes. Arrivals are daemon events, so a pending arrival does
  // not keep the simulation running once the committers are done: the run
  // ends when the ops in flight and the write-back sweep have finished.
  using Op = std::function<void(sim::Process&)>;
  struct Stream {
    const char* name;
    double per_sec;
    std::mt19937_64 rng;
    std::function<Op(std::mt19937_64&, std::uint64_t)> make;  // draws one op
    std::uint64_t next = 0;
  };
  Stream streams[] = {
      {"fanout", kFanoutPerSec, std::mt19937_64(subSeed(seed, 5)),
       [&](std::mt19937_64& rng, std::uint64_t i) -> Op {
         std::vector<std::uint32_t> ps;
         while (ps.size() < kFanoutPages) {
           const auto p = fanout_first + static_cast<std::uint32_t>(rng() % kFanoutRegion);
           if (std::find(ps.begin(), ps.end(), p) == ps.end()) ps.push_back(p);
         }
         return [&, ps, i](sim::Process& self) {
           txn(self, post, (std::uint64_t{1} << 48) | i, ps);
         };
       }},
      {"read", kReadsPerSec, std::mt19937_64(subSeed(seed, 6)),
       [&](std::mt19937_64& rng, std::uint64_t) -> Op {
         const auto p = cold_first + static_cast<std::uint32_t>(rng() % kColdPages);
         return [&, p](sim::Process& self) {
           Bytes buf(ra::kPageSize);
           const sim::TimePoint t0 = sim.now();
           read.attempted += 1;
           if (!store.readPage(self, {seg, p}, buf).ok()) {
             read.failed += 1;
             return;
           }
           read.lat_usec.push_back((sim.now() - t0).count() / 1000);
           if (buf != expected[p]) {
             r.correct = false;
             r.check = "read of page " + std::to_string(p) + " returned a wrong image";
           }
         };
       }},
  };
  std::function<void(Stream&)> arrive = [&](Stream& st) {
    std::exponential_distribution<double> gap(st.per_sec);
    sim.scheduleDaemon(sim::usec(1 + static_cast<std::int64_t>(gap(st.rng) * 1e6)), [&] {
      if (committers_left == 0) return;
      sim.spawn(st.name + std::to_string(st.next), st.make(st.rng, st.next));
      ++st.next;
      arrive(st);
    });
  };
  for (Stream& st : streams) arrive(st);
  sim.run();
  const sim::TimePoint m1 = sim.now();
  const double cpu3 = cpuSeconds();
  const std::int64_t h3 = hostNanos();
  spans.close(measured_span, m1.count());
  spans.add("store.measured", "host", h2, h3, root);
  r.registry_after = sim.metrics().toJson();

  r.sim["measured_usec"] = (m1 - m0).count() / 1000;
  // From the last committed single-page txn until the store is idle: the
  // fan-out txns and reads still in flight, and the write-back sweep.
  r.sim["drain_usec"] = (m1 - last_commit).count() / 1000;
  r.sim["commit_window_usec"] = (last_commit - m0).count() / 1000;
  r.sim["commits_ok"] = static_cast<std::int64_t>(commit.attempted - commit.failed);
  if (spans.enabled()) {
    r.trace["store.prepare_host_us"] = static_cast<double>(percentile(prepare_host, 0.5)) / 1e3;
    r.trace["store.commit_host_us"] = static_cast<double>(percentile(commit_host, 0.5)) / 1e3;
    double sum = 0;
    for (auto v : prepare_sim) sum += static_cast<double>(v);
    r.trace["store.prepare_sim_mean_ms"] = sum / 1e6 / static_cast<double>(prepare_sim.size());
  }

  r.host["build_s"] = cpu1 - cpu0;
  r.host["warmup_s"] = cpu2 - cpu1;
  r.host["setup_s"] = cpu2 - cpu0;
  r.host["measured_s"] = cpu3 - cpu2;

  // Read back every page through the public read path and compare bytes
  // with the last committed image.
  std::uint32_t mismatches = 0;
  sim.spawn("readback", [&](sim::Process& self) {
    Bytes buf(ra::kPageSize);
    for (std::uint32_t p = 0; p < pages; ++p) {
      if (!store.readPage(self, {seg, p}, buf).ok() || buf != expected[p]) ++mismatches;
    }
  });
  sim.run();
  r.check += (r.check.empty() ? "" : "; ") + std::string("readback: ") +
             std::to_string(pages - mismatches) + "/" + std::to_string(pages) + " pages match";
  if (mismatches != 0) r.correct = false;

  r.digest.add(r.registry_before);
  r.digest.add(r.registry_after);
  spans.close(root, hostNanos());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload <social_read|social_write|store_commit> "
               "--seed <n> --out <file> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out, spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--out") {
      out = argv[i + 1];
    } else if (flag == "--spans") {
      spans_path = argv[i + 1];
    } else {
      return usage();
    }
  }
  const bool social = workload == "social_read" || workload == "social_write";
  if ((!social && workload != "store_commit") || !have_seed || out.empty()) return usage();

  // The planned op count goes out first, so the parent can charge every op
  // of a run that dies before writing its result.
  std::printf("{\"planned_ops\":%llu}\n",
              static_cast<unsigned long long>(social ? socialPlannedOps(workload)
                                                     : storePlannedOps()));
  std::fflush(stdout);

  Spans spans(!spans_path.empty());
  RunResult r;
  const int rc = social ? runSocial(workload, seed, spans, r) : runStore(seed, spans, r);
  r.host["peak_rss_mb"] = peakRssMb();
  if (spans.enabled()) {
    r.trace["spans"] = static_cast<double>(spans.size());
    if (!spans.write(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  if (!writeResult(out, workload, seed, r)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  return rc;
}
