// perfbench — the repository's benchmark driver.
//
// Runs one of four closed-loop workloads against the simulated geo-replicated
// store, checks the run's outputs, and prints every metric by name with its
// unit, then one JSON result line. Each workload loads a different layer:
//
//   synth-hot      Synth-A hotspot, 180 clients, 1 thread: event queue,
//                  speculation and long version chains
//   rubis-sharded  RUBiS, 4000 clients, region-sharded scheduler (3 workers):
//                  epoch barriers, mailboxes and read-mostly traffic
//   tpcc-durable   TPC-C mix A, 2700 clients, wire codec + WAL + decision
//                  quorum 2, 1% drop/dup and a node crash/restart, history
//                  SPSI-checked: wire, storage, recovery and verify
//   tcp-loopback   Synth-A over loopback TCP, 3 nodes, 30 clients: the real
//                  transport and the realtime driver, in wall-clock time
//
// The benchmark drives the store only through its public entry points
// (Cluster, ClientPool, a delegating Workload, the network's frame handler
// around wire::dispatch_frame, the history recorder + SPSI checker, the
// merged metrics registry and the store/network/scheduler stats) and times
// its own calls into them; nothing under src/ is instrumented for it.
//
// Usage:
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             [--tiny] [--span-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload twice
// at the same seed — once untraced as the reference, once traced — prints the
// per-layer metrics, the tracing overhead and whether the deterministic
// counters of the two runs agree, and writes the traced run's spans as a
// Chrome trace under --span-dir. --tiny shrinks every workload to a tenth of
// its clients (self-test size).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "protocol/cluster.hpp"
#include "verify/history.hpp"
#include "verify/spsi_checker.hpp"
#include "wire/dispatch.hpp"
#include "workload/client.hpp"
#include "workload/rubis.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

// ---------------------------------------------------------------------------
// Interposing allocation counter. Thread-local tallies only (no shared
// atomics on the allocation path): the window total is the sum over the
// scheduler's worker threads, collected with ShardedScheduler::for_each_worker.
// Every replaceable form is replaced, nothrow ones included, so no block is
// allocated by one allocator and released by another.
namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

using namespace str;  // NOLINT

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Samples lying beyond quantile q of n. A tail percentile is reported only
/// when at least ten samples lie beyond it.
std::uint64_t beyond(std::uint64_t n, double q) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

// -- spans --------------------------------------------------------------------

/// Spans of the traced run, kept in memory and written out at exit as a
/// Chrome trace. Structural spans (setup phases, run_for slices, drain, the
/// checker) are always kept; the per-call kinds (Workload::next, frame
/// dispatch) are kept up to a cap each and otherwise only counted, so a
/// long run cannot grow the log without bound.
class SpanLog {
 public:
  enum Kind { kStructural = 0, kNext = 1, kDispatch = 2, kNumKinds = 3 };
  static constexpr std::uint64_t kPerCallCap = 100'000;

  std::uint32_t reserve_id() { return next_id_.fetch_add(1) + 1; }

  void add(Kind kind, std::uint32_t id, const char* name, std::uint32_t parent,
           std::int64_t start, std::int64_t end) {
    std::lock_guard<std::mutex> lk(mu_);
    if (kind != kStructural && kept_[kind] >= kPerCallCap) {
      ++dropped_;
      return;
    }
    ++kept_[kind];
    spans_.push_back({name, id, parent, thread_index(), start, end});
  }

  std::uint64_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u}}\n",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start - origin_) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, s.id, s.parent);
    }
    std::fprintf(f, "],\"otherData\":{\"spans_dropped\":%" PRIu64 "}}\n",
                 dropped_);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t tid;
    std::int64_t start;
    std::int64_t end;
  };

  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t idx = next.fetch_add(1);
    return idx;
  }

  std::atomic<std::uint32_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t kept_[kNumKinds] = {};
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ = now_ns();
};

/// Span that is open on this thread (frame dispatch), else the current
/// run_for slice: the parent of a per-call span.
thread_local std::uint32_t t_open_span = 0;
std::atomic<std::uint32_t> g_slice_span{0};

std::uint32_t current_parent() {
  return t_open_span != 0 ? t_open_span : g_slice_span.load();
}

/// Call count and summed wall time of one per-call span kind, from any
/// thread.
struct CallStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> bytes{0};

  void add(std::int64_t dt, std::uint64_t b = 0) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(dt), std::memory_order_relaxed);
    bytes.fetch_add(b, std::memory_order_relaxed);
  }
  double mean_ns() const {
    return ratio(static_cast<double>(ns.load()),
                 static_cast<double>(calls.load()));
  }
};

// -- delegating workload --------------------------------------------------------

/// Delegating program: remembers when the client drew it, so the benchmark
/// can time each logical transaction from issue to final commit.
class TimedProgram final : public workload::TxnProgram {
 public:
  TimedProgram(std::shared_ptr<workload::TxnProgram> inner, Timestamp issued)
      : inner_(std::move(inner)), issued_(issued) {}

  int type() const override { return inner_->type(); }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<workload::TxnProgram> /*self*/) override {
    // inner_ is what the body's frame must keep alive.
    return inner_->execute(tx, inner_);
  }

  Timestamp issued() const { return issued_; }

 private:
  std::shared_ptr<workload::TxnProgram> inner_;
  Timestamp issued_;
};

/// Commit latencies of the logical transactions that committed inside the
/// window: overall and per transaction type.
struct CommitLatency {
  Histogram all;
  std::map<int, Histogram> by_type;
};

/// Wraps the real workload. It times each logical transaction from the
/// moment the client draws it to its final commit (the client calls
/// think_time right at that instant), and in a traced run it also times
/// every Workload::next. At drain it parks each client that finishes a
/// transaction (a think time far past the end of the run), so every logical
/// transaction runs to its final commit and none is abandoned by the
/// benchmark stopping.
class BenchWorkload final : public workload::Workload {
 public:
  static constexpr Timestamp kPark = sec(1'000'000);

  BenchWorkload(protocol::Cluster& cluster,
                std::unique_ptr<workload::Workload> inner)
      : cluster_(cluster), inner_(std::move(inner)) {}

  void trace_into(SpanLog* log, CallStats* stats) {
    log_ = log;
    stats_ = stats;
  }

  void load(protocol::Cluster& cluster) override { inner_->load(cluster); }

  std::shared_ptr<workload::TxnProgram> next(NodeId node, Rng& rng) override {
    if (log_ == nullptr) {
      return std::make_shared<TimedProgram>(inner_->next(node, rng),
                                            cluster_.now());
    }
    const std::int64_t t0 = now_ns();
    auto program = inner_->next(node, rng);
    const std::int64_t t1 = now_ns();
    stats_->add(t1 - t0);
    log_->add(SpanLog::kNext, log_->reserve_id(), "workload.next",
              current_parent(), t0, t1);
    return std::make_shared<TimedProgram>(std::move(program), cluster_.now());
  }

  Timestamp think_time(const workload::TxnProgram& program,
                       Rng& rng) override {
    if (draining_.load(std::memory_order_relaxed)) {
      parked_.fetch_add(1, std::memory_order_relaxed);
      return kPark;
    }
    const Timestamp now = cluster_.now();
    if (now >= window_start_.load(std::memory_order_relaxed)) {
      const auto& p = static_cast<const TimedProgram&>(program);
      std::lock_guard<std::mutex> lk(mu_);
      latency_.all.record(now - p.issued());
      latency_.by_type[p.type()].record(now - p.issued());
    }
    return inner_->think_time(program, rng);
  }

  /// Commits at or after `t` count toward the window.
  void start_window(Timestamp t) { window_start_.store(t); }
  void begin_drain() { draining_.store(true); }
  std::uint64_t parked() const { return parked_.load(); }
  CommitLatency latency() {
    std::lock_guard<std::mutex> lk(mu_);
    return latency_;
  }

 private:
  protocol::Cluster& cluster_;
  std::unique_ptr<workload::Workload> inner_;
  SpanLog* log_ = nullptr;
  CallStats* stats_ = nullptr;
  std::atomic<Timestamp> window_start_{kTsInfinity};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> parked_{0};
  std::mutex mu_;  ///< think_time runs on every scheduler worker
  CommitLatency latency_;
};

// -- workloads ------------------------------------------------------------------

using WorkloadMaker =
    std::function<std::unique_ptr<workload::Workload>(protocol::Cluster&)>;

struct Scenario {
  std::string name;
  protocol::Cluster::Config cluster;
  std::uint32_t clients = 0;
  Timestamp warmup = 0;
  Timestamp window = 0;
  Timestamp drain_slice = sec(1);
  Timestamp drain_cap = sec(120);
  bool record_history = false;
  NodeId crash_node = kInvalidNode;
  Timestamp restart_at = 0;
  /// Virtual clock (DES). False for a real transport, where virtual time is
  /// paced to the wall clock.
  bool des = true;
  WorkloadMaker make;
};

const char* const kWorkloads[] = {"synth-hot", "rubis-sharded", "tpcc-durable",
                                  "tcp-loopback"};

Timestamp scaled(double virtual_seconds) {
  return static_cast<Timestamp>(std::llround(virtual_seconds * 1e6));
}

/// The four workloads. `seconds` sets each window: a fixed number of virtual
/// seconds per requested second (chosen so that at --seconds 10 a run takes
/// 5-30 s of wall time on a 4-core x86 VM), so a run at one seed is
/// deterministic. perfbench/NOTES.md records why each workload is shaped
/// the way it is.
bool make_scenario(const std::string& name, std::uint64_t seed, double seconds,
                   bool tiny, Scenario& sc) {
  sc = Scenario{};
  sc.name = name;
  protocol::Cluster::Config& c = sc.cluster;
  c.num_nodes = 9;
  c.partitions_per_node = 1;
  c.replication_factor = 6;
  c.topology = net::Topology::ec2_nine_regions();
  c.protocol = protocol::ProtocolConfig::str();
  c.seed = seed;
  const std::uint32_t shrink = tiny ? 10 : 1;
  if (name == "synth-hot") {
    sc.clients = 180 / shrink;
    sc.warmup = sec(1);
    sc.window = scaled(24.0 * seconds);
    sc.make = [](protocol::Cluster& cl) {
      return std::make_unique<workload::SyntheticWorkload>(
          cl, workload::SyntheticConfig::synth_a());
    };
    return true;
  }
  if (name == "rubis-sharded") {
    c.threads = 3;
    sc.clients = 4000 / shrink;
    sc.warmup = sec(10);
    sc.window = scaled(30.0 * seconds);
    sc.make = [](protocol::Cluster& cl) {
      return std::make_unique<workload::RubisWorkload>(
          cl, workload::RubisConfig{});
    };
    return true;
  }
  if (name == "tpcc-durable") {
    sc.clients = 2700 / shrink;
    sc.warmup = sec(4);
    sc.window = scaled(6.0 * seconds);
    c.wire_codec = true;
    auto& d = c.protocol.durability;
    d.wal_enabled = true;
    d.decision_quorum = 2;
    // A faulty network needs the timeout/retry/orphan machinery; the
    // harness enables it whenever a fault plan is present, and so do we.
    c.protocol.recovery.enabled = true;
    c.faults.link.drop_prob = 0.01;
    c.faults.link.dup_prob = 0.01;
    c.faults.link.heal_at = sc.warmup + sc.window;
    // Node 4 crashes 16/60 into the window and restarts 5/60 later (20 s
    // and 25 s of virtual time for a 60 s window after a 4 s warmup).
    sc.crash_node = 4;
    const Timestamp crash_at = sc.warmup + sc.window * 16 / 60;
    sc.restart_at = sc.warmup + sc.window * 21 / 60;
    c.faults.add_crash(sc.crash_node, crash_at, sc.restart_at);
    sc.record_history = true;
    sc.make = [](protocol::Cluster& cl) {
      return std::make_unique<workload::TpccWorkload>(
          cl, workload::TpccConfig::mix_a());
    };
    return true;
  }
  if (name == "tcp-loopback") {
    c.num_nodes = 3;
    c.replication_factor = 3;
    c.transport = net::TransportKind::kTcp;
    c.wire_codec = true;
    c.protocol.recovery.enabled = true;
    sc.clients = 30 / shrink;
    sc.warmup = sec(6);  // long enough to spread the set-up probes
    sc.window = scaled(2.0 * seconds);
    sc.drain_slice = msec(50);
    sc.drain_cap = sec(10);
    sc.des = false;
    sc.make = [](protocol::Cluster& cl) {
      return std::make_unique<workload::SyntheticWorkload>(
          cl, workload::SyntheticConfig::synth_a());
    };
    return true;
  }
  return false;
}

// -- one run --------------------------------------------------------------------

/// Everything one workload run builds. Members are destroyed in reverse
/// order: clients, then the workload they draw from, then the cluster, then
/// the history the cluster reports into.
struct Rig {
  std::unique_ptr<verify::HistoryRecorder> history;
  std::unique_ptr<protocol::Cluster> cluster;
  std::unique_ptr<BenchWorkload> wl;
  std::unique_ptr<workload::ClientPool> pool;

  /// Tear down in the same order as the destructor.
  void reset() {
    pool.reset();
    wl.reset();
    cluster.reset();
    history.reset();
  }
};

struct SetupTiming {
  double total_s = 0.0;
  double load_s = 0.0;
};

SetupTiming build_rig(const Scenario& sc, Rig& rig, SpanLog* log) {
  const std::uint32_t setup_id = log != nullptr ? log->reserve_id() : 0;
  const std::int64_t t0 = now_ns();
  if (sc.record_history) {
    rig.history = std::make_unique<verify::HistoryRecorder>();
  }
  rig.cluster = std::make_unique<protocol::Cluster>(sc.cluster);
  if (rig.history) rig.cluster->set_history(rig.history.get());
  const std::int64_t t1 = now_ns();
  rig.wl = std::make_unique<BenchWorkload>(*rig.cluster, sc.make(*rig.cluster));
  rig.wl->load(*rig.cluster);
  const std::int64_t t2 = now_ns();
  rig.pool = std::make_unique<workload::ClientPool>(
      workload::ClientPool::with_total(*rig.cluster, *rig.wl, sc.clients));
  rig.pool->enable_type_stats();
  rig.pool->start_all();
  const std::int64_t t3 = now_ns();
  if (log != nullptr) {
    log->add(SpanLog::kStructural, log->reserve_id(), "setup.cluster",
             setup_id, t0, t1);
    log->add(SpanLog::kStructural, log->reserve_id(), "setup.load", setup_id,
             t1, t2);
    log->add(SpanLog::kStructural, log->reserve_id(), "setup.clients",
             setup_id, t2, t3);
    log->add(SpanLog::kStructural, setup_id, "setup", 0, t0, t3);
  }
  return {static_cast<double>(t3 - t0) / 1e9,
          static_cast<double>(t2 - t1) / 1e9};
}

std::uint64_t counter(const obs::Registry& r, const std::string& name) {
  const obs::Counter* c = r.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

struct PhaseP50 {
  double p50_ms = 0.0;
  std::uint64_t count = 0;
};

PhaseP50 phase(const obs::Registry& r, const std::string& name) {
  const obs::Timer* t = r.find_timer("phase." + name);
  if (t == nullptr) return {};
  return {static_cast<double>(t->hist().p50()) / 1e3, t->count()};
}

/// Moves the calling thread round the CPUs it may use, one per window
/// slice. On a shared host the CPUs' speeds differ by up to a third and
/// change over seconds (their hyperthread siblings belong to other
/// tenants), and a single-threaded simulation left to the kernel stays on
/// one CPU for most of a run, so its speed was bimodal between runs. Each
/// slice on the next CPU gives every run the same mix of CPUs.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t worker_allocs(protocol::Cluster& cl) {
  std::mutex mu;
  std::uint64_t sum = 0;
  cl.sharded().for_each_worker([&](std::uint32_t) {
    std::lock_guard<std::mutex> lk(mu);
    sum += t_allocs;
  });
  return sum;
}

/// FNV-1a over the counters a deterministic run must repeat exactly.
std::uint64_t fingerprint(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : values) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Per-type transaction stats copied at a window edge.
using TypeSnapshot = std::map<int, workload::PerTypeStats::TypeStats>;

TypeSnapshot type_snapshot(const workload::ClientPool& pool) {
  return pool.type_stats() != nullptr ? pool.type_stats()->all()
                                      : TypeSnapshot{};
}

double types_p50_ms(const CommitLatency& s, int lo, int hi) {
  Histogram h;
  for (const auto& [type, hist] : s.by_type) {
    if (type >= lo && type <= hi) h.merge(hist);
  }
  return static_cast<double>(h.p50()) / 1e3;
}

struct RunResult {
  bool ok = true;
  std::vector<std::string> problems;

  // setup
  std::vector<double> setup_s;
  std::vector<double> load_s;

  // window
  double window_wall_s = 0.0;
  double window_virtual_s = 0.0;
  std::vector<double> slice_ms;
  // Commits per wall second and per second of process CPU time, per slice
  // of the window.
  std::vector<double> slice_wall_rate;
  std::vector<double> slice_cpu_rate;
  std::uint64_t commits = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t allocs = 0;
  double cpu_s = 0.0;
  Histogram final_latency;  ///< the store's own, first activation to commit
  CommitLatency latency;     ///< the benchmark's, issue to final commit
  double abort_rate = 0.0;
  double misspec_rate = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t spec_reads = 0;
  std::map<std::string, std::uint64_t> counters;  ///< merged, window only
  std::map<std::string, PhaseP50> phases;
  std::uint64_t logical_committed = 0;
  std::uint64_t logical_gave_up = 0;
  std::uint64_t logical_attempts = 0;
  std::uint64_t fingerprint = 0;

  // after the drain
  double drain_virtual_s = 0.0;
  protocol::Cluster::QuiesceReport quiesce;
  std::uint64_t orphan_aborts = 0;
  std::uint64_t lost_commits = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::uint64_t history_txns = 0;
  double check_s = 0.0;
  double recovery_ms = 0.0;
  std::uint64_t store_keys = 0;
  std::uint64_t peak_chain = 0;
  double peak_rss_mb = 0.0;

  // traced run only
  double next_ns = 0.0;
  std::uint64_t frames = 0;
  double frame_bytes = 0.0;
  double dispatch_ns = 0.0;
};

const char* const kWindowCounters[] = {
    "net.messages",          "net.wan_messages",
    "net.bytes",             "net.dropped",
    "net.duplicated",        "rpc.timeouts",
    "rpc.retries",           "transport.frames_sent",
    "transport.bytes_sent",  "transport.reconnects",
    "transport.frames_resent", "transport.frames_dropped",
    "wire.msgs.prepare_request", "wire.msgs.decision_replicate",
    "store.read.committed",  "store.read.speculative",
    "store.read.blocked",    "store.read.notfound",
    "store.prepare_conflicts", "store.versions_inserted",
    "store.gc_removed",      "wal.flushed_bytes",
    "wal.flushes",           "wal.records",
    "wal.checkpoints",       "wal.replayed_records",
    "wal.torn_truncations",
};

const char* const kPhases[] = {"gate_stall", "dep_wait", "wan_prepare",
                               "lock_hold_total", "read_block"};

/// Set-ups an untraced pass times besides the one that runs. A set-up takes
/// a few milliseconds, and on a shared host the CPU's speed changes in
/// phases lasting from tens of milliseconds to seconds, so the probes are
/// spread over many seconds: a few after every slice of the window (DES),
/// or of the warmup when the store runs on the wall clock, where a probe
/// would stall the measured traffic.
constexpr std::size_t kSetupProbes = 240;
/// Slice of the warmup between set-up probes on the wall clock.
constexpr Timestamp kWarmupSlice = msec(100);

void record_setup(const SetupTiming& t, RunResult& r) {
  r.setup_s.push_back(t.total_s);
  r.load_s.push_back(t.load_s);
}

std::size_t slices_of(Timestamp span, Timestamp slice) {
  return static_cast<std::size_t>((span + slice - 1) / slice);
}

/// One pass over the workload. With `probe_setup`, kSetupProbes more rigs
/// are built (and torn down at once) between slices.
RunResult run_once(const Scenario& sc, bool probe_setup, SpanLog* log) {
  RunResult r;
  // Declared before the rig: the traced run's handlers point at these.
  CallStats next_stats;
  CallStats dispatch_stats;
  Rig rig;
  record_setup(build_rig(sc, rig, log), r);
  protocol::Cluster& cl = *rig.cluster;
  auto probe_setups = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Rig probe;
      record_setup(build_rig(sc, probe, nullptr), r);
    }
  };
  // run_for granularity inside the window, the unit over which per-second
  // figures are taken as medians: one period of the store's version GC, so
  // that every slice holds one sweep. With 1 s slices the rates alternate
  // between slices with and without a sweep, and a median lands between
  // the two levels.
  const Timestamp slice = sc.cluster.protocol.gc_interval;
  const std::size_t probed_slices = sc.des
                                        ? slices_of(sc.window, slice)
                                        : slices_of(sc.warmup, kWarmupSlice);
  const std::size_t probes_per_slice =
      probe_setup ? (kSetupProbes + probed_slices - 1) / probed_slices : 0;

  if (log != nullptr) {
    rig.wl->trace_into(log, &next_stats);
    if (cl.wire_mode()) {
      // Same routing the cluster installs (decode + dispatch), timed.
      cl.network().set_frame_handler(
          [&cl, log, &dispatch_stats](NodeId to, const std::uint8_t* data,
                                      std::size_t size) {
            const std::uint32_t id = log->reserve_id();
            const std::uint32_t parent = current_parent();
            const std::uint32_t outer = t_open_span;
            t_open_span = id;
            const std::int64_t t0 = now_ns();
            const bool ok =
                wire::dispatch_frame(cl, to, data, size) ==
                wire::DecodeStatus::kOk;
            const std::int64_t t1 = now_ns();
            t_open_span = outer;
            dispatch_stats.add(t1 - t0, size);
            log->add(SpanLog::kDispatch, id, "wire.dispatch", parent, t0, t1);
            return ok;
          });
    }
  }

  // Warmup, then the window starts: aggregates and registries are zeroed.
  if (sc.des) {
    cl.run_for(sc.warmup);
  } else {
    for (Timestamp done = 0; done < sc.warmup; done += kWarmupSlice) {
      cl.run_for(std::min(kWarmupSlice, sc.warmup - done));
      probe_setups(probes_per_slice);
    }
  }
  cl.metrics().set_measurement_start(cl.now());
  rig.wl->start_window(cl.now());
  cl.reset_obs();
  const TypeSnapshot types0 = type_snapshot(*rig.pool);
  const std::uint64_t events0 = cl.sharded().executed();
  const std::uint64_t epochs0 = cl.sharded().epochs();
  const std::uint64_t cross0 = cl.sharded().cross_posts();
  const std::uint64_t allocs0 = worker_allocs(cl);
  const double cpu0 = cpu_seconds();
  const Timestamp v0 = cl.now();

  const std::uint32_t window_id = log != nullptr ? log->reserve_id() : 0;
  const std::int64_t w0 = now_ns();
  std::optional<CpuRotation> rotation(std::in_place);
  for (Timestamp done = 0; done < sc.window; done += slice) {
    rotation->next();
    const Timestamp step = std::min(slice, sc.window - done);
    const std::uint32_t slice_id = log != nullptr ? log->reserve_id() : 0;
    g_slice_span.store(slice_id);
    const std::uint64_t c0 = cl.metrics().commits();
    const double cpu_s0 = cpu_seconds();
    const std::int64_t s0 = now_ns();
    cl.run_for(step);
    const std::int64_t s1 = now_ns();
    const double slice_cpu_s = cpu_seconds() - cpu_s0;
    const double dc = static_cast<double>(cl.metrics().commits() - c0);
    r.slice_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
    r.slice_wall_rate.push_back(ratio(dc, static_cast<double>(s1 - s0) / 1e9));
    r.slice_cpu_rate.push_back(ratio(dc, slice_cpu_s));
    if (log != nullptr) {
      log->add(SpanLog::kStructural, slice_id, "run_for", window_id, s0, s1);
    }
    if (sc.des) probe_setups(probes_per_slice);
  }
  rotation.reset();  // back to every allowed CPU
  const std::int64_t w1 = now_ns();
  g_slice_span.store(0);
  if (log != nullptr) {
    log->add(SpanLog::kStructural, window_id, "window", 0, w0, w1);
  }

  // Window snapshot: everything below is measured over [v0, v0 + window].
  // The slices only: set-up probes between them are not part of the run.
  for (double ms : r.slice_ms) r.window_wall_s += ms / 1e3;
  r.window_virtual_s = static_cast<double>(cl.now() - v0) / 1e6;
  r.cpu_s = cpu_seconds() - cpu0;
  r.allocs = worker_allocs(cl) - allocs0;
  r.events = cl.sharded().executed() - events0;
  r.epochs = cl.sharded().epochs() - epochs0;
  r.cross_posts = cl.sharded().cross_posts() - cross0;
  const harness::Metrics& m = cl.metrics();
  r.commits = m.commits();
  r.final_latency = m.final_latency();
  r.latency = rig.wl->latency();
  r.abort_rate = m.abort_rate();
  r.misspec_rate = m.misspeculation_rate();
  r.reads = m.reads();
  r.spec_reads = m.speculative_reads();
  {
    const obs::Registry merged = cl.merged_obs();
    for (const char* name : kWindowCounters) {
      r.counters[name] = counter(merged, name);
    }
    for (const char* name : kPhases) r.phases[name] = phase(merged, name);
  }
  r.logical_committed = r.latency.all.count();
  for (const auto& [type, st] : type_snapshot(*rig.pool)) {
    const auto it = types0.find(type);
    const workload::PerTypeStats::TypeStats zero;
    const auto& before = it != types0.end() ? it->second : zero;
    r.logical_gave_up += st.failed - before.failed;
    r.logical_attempts += st.attempts - before.attempts;
  }
  r.fingerprint = fingerprint(
      {r.events, r.commits, m.aborts(), r.counters["net.bytes"],
       r.counters["store.read.committed"], r.counters["store.read.speculative"],
       r.counters["store.read.blocked"], r.counters["store.read.notfound"]});
  if (log != nullptr) {
    r.next_ns = next_stats.mean_ns();
    r.frames = dispatch_stats.calls.load();
    r.frame_bytes = ratio(static_cast<double>(dispatch_stats.bytes.load()),
                          static_cast<double>(r.frames));
    r.dispatch_ns = dispatch_stats.mean_ns();
  }

  // Drain: every client finishes its transaction (retrying as usual) and
  // parks; the run is over when all are parked and nothing is left over.
  const std::uint32_t drain_id = log != nullptr ? log->reserve_id() : 0;
  const std::int64_t d0 = now_ns();
  rig.wl->begin_drain();
  const Timestamp drain_start = cl.now();
  while (true) {
    cl.run_for(sc.drain_slice);
    r.quiesce = cl.quiesce_report();
    if (rig.wl->parked() >= rig.pool->size() && r.quiesce.clean()) break;
    if (cl.now() - drain_start >= sc.drain_cap) break;
  }
  r.drain_virtual_s = static_cast<double>(cl.now() - drain_start) / 1e6;
  if (log != nullptr) {
    log->add(SpanLog::kStructural, drain_id, "drain", 0, d0, now_ns());
  }
  if (rig.wl->parked() < rig.pool->size()) {
    r.ok = false;
    r.problems.push_back(
        "drain: " + std::to_string(rig.pool->size() - rig.wl->parked()) +
        " client(s) never finished their transaction");
  }
  if (!r.quiesce.clean()) {
    r.ok = false;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "quiesce residue: live=%zu parked=%zu locks=%zu "
                  "orphans=%zu in_doubt=%zu",
                  r.quiesce.live_txns, r.quiesce.parked_reads,
                  r.quiesce.uncommitted_txns, r.quiesce.orphans,
                  r.quiesce.in_doubt);
    r.problems.push_back(buf);
  }
  {
    const obs::Registry merged = cl.merged_obs();
    r.orphan_aborts = counter(merged, "txn.orphan_aborts");
    r.lost_commits = counter(merged, "recovery.lost_commits");
  }

  if (rig.history) {
    verify::HistoryRecorder& h = *rig.history;
    if (sc.cluster.threads > 1) h.canonicalize();
    r.history_txns = h.begins().size();
    const std::uint32_t check_id = log != nullptr ? log->reserve_id() : 0;
    const std::int64_t c0 = now_ns();
    verify::SpsiChecker checker(h);
    const std::vector<std::string> violations = checker.check_all();
    const std::int64_t c1 = now_ns();
    if (log != nullptr) {
      log->add(SpanLog::kStructural, check_id, "verify.check_all", 0, c0, c1);
    }
    r.check_s = static_cast<double>(c1 - c0) / 1e9;
    r.violations = violations.size();
    if (!violations.empty()) r.first_violation = violations.front();
    if (sc.crash_node != kInvalidNode) {
      Timestamp first = kTsInfinity;
      for (const verify::WriteSetEvent& e : h.final_commits()) {
        if (e.tx.node == sc.crash_node && e.at >= sc.restart_at) {
          first = std::min(first, e.at);
        }
      }
      if (first == kTsInfinity) {
        r.ok = false;
        r.problems.push_back("recovery: the restarted node never committed");
      } else {
        r.recovery_ms = static_cast<double>(first - sc.restart_at) / 1e3;
      }
    }
  }

  std::vector<bool> seen(cl.num_nodes() * sc.cluster.partitions_per_node,
                         false);
  for (NodeId n = 0; n < cl.num_nodes(); ++n) {
    for (const auto& [pid, actor] : cl.node(n).replicas()) {
      const store::StoreStats st = actor->store().stats();
      r.peak_chain = std::max(r.peak_chain, st.peak_chain);
      if (pid < seen.size() && !seen[pid]) {
        seen[pid] = true;
        r.store_keys += st.keys;
      }
    }
  }
  r.peak_rss_mb = peak_rss_mb();

  if (r.commits == 0 || r.logical_committed == 0) {
    r.ok = false;
    r.problems.push_back("no transaction committed in the window");
  }
  return r;
}

// -- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool withheld = false;  ///< not enough samples: printed, not reported
  std::string note;
};

std::uint64_t failed_of(const RunResult& r) {
  return r.logical_gave_up + r.violations + r.lost_commits;
}

/// End-to-end metrics, as reported in the JSON result. Throughput and the
/// latency percentiles are whole-window values: on the virtual clock they
/// are deterministic for a seed, and on the wall clock (tcp-loopback) the
/// per-second figures alternate between two levels, so a median over slices
/// would jump between them. The simulator's speed is the median over slices
/// of commits per second of process CPU time, which a busy neighbour on a
/// shared host moves far less than wall time.
std::vector<Metric> end_to_end(const Scenario& sc, const RunResult& r) {
  std::vector<Metric> out;
  const Histogram& lat = r.latency.all;
  const std::uint64_t n = lat.count();
  const std::uint64_t failed = failed_of(r);
  const double attempted =
      static_cast<double>(r.logical_committed + r.logical_gave_up);
  const std::string slices = std::to_string(r.slice_ms.size()) + " slices";
  out.push_back({"setup_s", median(r.setup_s), "s", false,
                 "median of " + std::to_string(r.setup_s.size()) +
                     " set-ups; min " +
                     std::to_string(*std::min_element(r.setup_s.begin(),
                                                      r.setup_s.end())) +
                     ", max " +
                     std::to_string(*std::max_element(r.setup_s.begin(),
                                                      r.setup_s.end()))});
  out.push_back({"sim_commits_per_cpu_s", median(r.slice_cpu_rate), "1/s",
                 false, "median of " + slices + "; process CPU time"});
  out.push_back({"throughput_tps",
                 ratio(static_cast<double>(r.commits), r.window_virtual_s),
                 "1/s", false,
                 sc.des ? "virtual clock, whole window"
                        : "wall clock, whole window"});
  out.push_back({"commit_p50_ms", static_cast<double>(lat.p50()) / 1e3, "ms",
                 n == 0, "n=" + std::to_string(n)});
  out.push_back({"commit_p99_ms", static_cast<double>(lat.p99()) / 1e3, "ms",
                 beyond(n, 0.99) < 10,
                 "n=" + std::to_string(n) + ", " +
                     std::to_string(beyond(n, 0.99)) + " beyond"});
  out.push_back({"committed_share",
                 1.0 - ratio(static_cast<double>(failed), attempted), "ratio",
                 false, "1 - failed_share"});
  out.push_back({"peak_rss_mb", r.peak_rss_mb, "MB", false, "getrusage"});
  return out;
}

/// End-to-end numbers shown in the table beside the metrics above but
/// reported in the JSON among the per-layer metrics: the wall-clock
/// simulation speed swings with the load of a shared host, and the other
/// two read zero on most workloads, so none can carry a relative bound.
std::vector<Metric> end_to_end_unbounded(const RunResult& r) {
  const double attempted =
      static_cast<double>(r.logical_committed + r.logical_gave_up);
  return {
      {"sim_commits_per_s", median(r.slice_wall_rate), "1/s", false,
       "median of " + std::to_string(r.slice_ms.size()) + " slices; " +
           std::to_string(r.commits) + " commits in " +
           std::to_string(r.window_wall_s) + " s wall"},
      {"failed_share", ratio(static_cast<double>(failed_of(r)), attempted),
       "ratio", false,
       std::to_string(r.logical_gave_up) + " gave up + " +
           std::to_string(r.violations) + " SPSI violations + " +
           std::to_string(r.lost_commits) + " lost commits"},
      {"recovery_ms", r.recovery_ms, "ms", false,
       "restart to first commit it coordinates (0: no crash)"},
  };
}

std::vector<Metric> per_layer(const Scenario& sc, const RunResult& ref,
                              const RunResult& t) {
  const double commits = static_cast<double>(t.commits);
  auto per_commit = [&](const char* c) {
    return ratio(static_cast<double>(t.counters.at(c)), commits);
  };
  auto cnt = [&](const char* c) {
    return static_cast<double>(t.counters.at(c));
  };
  const double events = static_cast<double>(t.events);
  const double reads_total =
      cnt("store.read.committed") + cnt("store.read.speculative") +
      cnt("store.read.blocked") + cnt("store.read.notfound");
  std::vector<double> slices = t.slice_ms;
  const double slice_max =
      slices.empty() ? 0.0 : *std::max_element(slices.begin(), slices.end());
  std::vector<Metric> out;
  auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit, false, ""});
  };
  // sim
  add("sim.events", events, "count");
  add("sim.events_per_commit", ratio(events, commits), "events/commit");
  add("sim.ns_per_event", ratio(t.window_wall_s * 1e9, events), "ns");
  add("sim.allocs_per_event", ratio(static_cast<double>(t.allocs), events),
      "allocs/event");
  add("sim.epochs", static_cast<double>(t.epochs), "count");
  add("sim.ns_per_epoch",
      ratio(t.window_wall_s * 1e9, static_cast<double>(t.epochs)), "ns");
  add("sim.cross_shard_posts_per_event",
      ratio(static_cast<double>(t.cross_posts), events), "posts/event");
  add("sim.slice_ms_p50", median(slices), "ms");
  add("sim.slice_ms_max", slice_max, "ms");
  // workload
  add("workload.next_ns", t.next_ns, "ns");
  add("workload.load_s", median(t.load_s), "s");
  add("workload.attempts_per_commit",
      ratio(static_cast<double>(t.logical_attempts),
            static_cast<double>(t.logical_committed)),
      "attempts/commit");
  const bool tpcc = sc.name == "tpcc-durable";
  const bool rubis = sc.name == "rubis-sharded";
  auto type_p50 = [&](bool on, int lo, int hi) {
    return on ? types_p50_ms(t.latency, lo, hi) : 0.0;
  };
  add("workload.tpcc.new_order.commit_p50_ms", type_p50(tpcc, 1, 1), "ms");
  add("workload.tpcc.payment.commit_p50_ms", type_p50(tpcc, 2, 2), "ms");
  add("workload.tpcc.order_status.commit_p50_ms", type_p50(tpcc, 3, 3), "ms");
  add("workload.rubis.update.commit_p50_ms", type_p50(rubis, 1, 5), "ms");
  add("workload.rubis.browse.commit_p50_ms", type_p50(rubis, 6, 1000), "ms");
  // net
  add("net.msgs_per_commit", per_commit("net.messages"), "msgs/commit");
  add("net.wan_msgs_per_commit", per_commit("net.wan_messages"), "msgs/commit");
  add("net.bytes_per_commit", per_commit("net.bytes"), "B/commit");
  add("rpc.timeouts_per_commit", per_commit("rpc.timeouts"), "1/commit");
  add("rpc.retries_per_commit", per_commit("rpc.retries"), "1/commit");
  add("net.dropped", cnt("net.dropped"), "count");
  add("net.duplicated", cnt("net.duplicated"), "count");
  // net/transport and sim/realtime
  add("transport.frames_per_commit", per_commit("transport.frames_sent"),
      "frames/commit");
  add("transport.bytes_per_commit", per_commit("transport.bytes_sent"),
      "B/commit");
  add("process.cpu_us_per_commit", ratio(t.cpu_s * 1e6, commits), "us/commit");
  add("transport.reconnects", cnt("transport.reconnects"), "count");
  add("transport.frames_resent", cnt("transport.frames_resent"), "count");
  add("transport.frames_dropped", cnt("transport.frames_dropped"), "count");
  // wire
  add("wire.frames", static_cast<double>(t.frames), "count");
  add("wire.bytes_per_frame", t.frame_bytes, "B");
  add("wire.dispatch_ns", t.dispatch_ns, "ns");
  add("wire.msgs.prepare_per_commit", per_commit("wire.msgs.prepare_request"),
      "msgs/commit");
  add("wire.msgs.decision_replicate_per_commit",
      per_commit("wire.msgs.decision_replicate"), "msgs/commit");
  // protocol and txn
  add("protocol.abort_rate", t.abort_rate, "ratio");
  add("protocol.misspec_rate", t.misspec_rate, "ratio");
  add("protocol.spec_read_share",
      ratio(static_cast<double>(t.spec_reads), static_cast<double>(t.reads)),
      "ratio");
  for (const char* p : kPhases) {
    const PhaseP50& ph = t.phases.at(p);
    const std::string base = std::string("protocol.") + p;
    out.push_back({base + "_ms_p50", ph.p50_ms, "ms", false, ""});
    out.push_back({base + ".count", static_cast<double>(ph.count), "count",
                   false, ""});
  }
  add("protocol.orphan_aborts", static_cast<double>(t.orphan_aborts), "count");
  // store
  add("store.peak_versions_per_key", static_cast<double>(t.peak_chain),
      "versions");
  add("store.keys", static_cast<double>(t.store_keys), "count");
  add("store.versions_per_commit", per_commit("store.versions_inserted"),
      "versions/commit");
  add("store.gc_removed_per_commit", per_commit("store.gc_removed"),
      "versions/commit");
  add("store.read_blocked_share", ratio(cnt("store.read.blocked"), reads_total),
      "ratio");
  add("store.prepare_conflicts_per_commit",
      per_commit("store.prepare_conflicts"), "1/commit");
  // storage
  add("wal.bytes_per_commit", per_commit("wal.flushed_bytes"), "B/commit");
  add("wal.flushes_per_commit", per_commit("wal.flushes"), "flushes/commit");
  add("wal.records_per_flush", ratio(cnt("wal.records"), cnt("wal.flushes")),
      "records/flush");
  add("wal.checkpoints", cnt("wal.checkpoints"), "count");
  add("wal.replayed_records", cnt("wal.replayed_records"), "count");
  add("wal.torn_truncations", cnt("wal.torn_truncations"), "count");
  // verify
  add("verify.history_txns", static_cast<double>(t.history_txns), "count");
  add("verify.check_s", t.check_s, "s");
  add("verify.violations", static_cast<double>(t.violations), "count");
  add("recovery.lost_commits", static_cast<double>(t.lost_commits), "count");
  // end-to-end numbers that cannot carry a bound, and the sample count
  // behind the latency percentiles
  for (Metric& m : end_to_end_unbounded(t)) out.push_back(std::move(m));
  add("commit.samples", static_cast<double>(t.latency.all.count()), "count");
  add("protocol.final_latency_p50_ms",
      static_cast<double>(t.final_latency.p50()) / 1e3, "ms");
  // obs: tracing overhead and determinism of the traced run
  add("obs.tracing_overhead",
      ratio(median(t.slice_wall_rate), median(ref.slice_wall_rate)),
      "ratio");
  add("determinism.drift",
      sc.des && t.fingerprint != ref.fingerprint ? 1.0 : 0.0, "flag");
  return out;
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : ms) {
    if (m.withheld) {
      std::printf("  %-44s %16s %-16s %s\n", m.name.c_str(), "withheld",
                  m.unit.c_str(), m.note.c_str());
    } else {
      std::printf("  %-44s %16.6g %-16s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
}

void print_run_notes(const Scenario& sc, const RunResult& r, const char* tag) {
  if (sc.des) {
    std::printf("fingerprint %s %s seed=%" PRIu64 " %016" PRIx64 "\n", tag,
                sc.name.c_str(), sc.cluster.seed, r.fingerprint);
  }
  std::printf("window %s: %.3f s virtual, %.3f s wall; drain %.1f s virtual; "
              "%" PRIu64 " logical txns, %" PRIu64 " gave up\n",
              tag, r.window_virtual_s, r.window_wall_s, r.drain_virtual_s,
              r.logical_committed + r.logical_gave_up, r.logical_gave_up);
  if (r.violations != 0) {
    std::printf("SPSI: %" PRIu64 " violation(s), first: %s\n", r.violations,
                r.first_violation.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("CHECK FAILED (%s): %s\n", tag, p.c_str());
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string span_dir;
};

Outcome run_workload(const Args& a, const std::string& name) {
  Scenario sc;
  make_scenario(name, a.seed, a.seconds, a.tiny, sc);
  Outcome o;
  if (a.trace == 0) {
    const RunResult r = run_once(sc, true, nullptr);
    print_run_notes(sc, r, "untraced");
    o.correct = r.ok;
    o.attempted = r.logical_committed + r.logical_gave_up;
    o.failed = failed_of(r);
    o.metrics = end_to_end(sc, r);
    std::vector<Metric> shown = o.metrics;
    for (Metric& m : end_to_end_unbounded(r)) shown.push_back(std::move(m));
    print_table("end-to-end metrics: " + name, shown);
    return o;
  }
  // Traced: an untraced reference run first, then the traced run at the
  // same seed. Their deterministic counters must agree.
  const RunResult ref = run_once(sc, false, nullptr);
  print_run_notes(sc, ref, "untraced");
  SpanLog log;
  const RunResult t = run_once(sc, false, &log);
  print_run_notes(sc, t, "traced");
  o.correct = ref.ok && t.ok;
  o.attempted = t.logical_committed + t.logical_gave_up;
  o.failed = failed_of(t);
  o.metrics = per_layer(sc, ref, t);
  if (sc.des && ref.fingerprint != t.fingerprint) {
    std::printf("FINGERPRINT DRIFT %s seed=%" PRIu64
                ": untraced %016" PRIx64 " traced %016" PRIx64 "\n",
                name.c_str(), a.seed, ref.fingerprint, t.fingerprint);
  }
  print_table("per-layer metrics: " + name, o.metrics);
  std::printf("spans: %" PRIu64 " kept, %" PRIu64 " dropped past the cap\n",
              log.size(), log.dropped());
  if (!a.span_dir.empty()) {
    const std::string path = a.span_dir + "/spans-" + name + "-seed" +
                             std::to_string(a.seed) + ".json";
    if (log.write_chrome(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::printf("CHECK FAILED: cannot write %s\n", path.c_str());
      o.correct = false;
    }
  }
  return o;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload synth-hot|rubis-sharded|"
               "tpcc-durable|tcp-loopback|all --seed N --seconds S "
               "--trace 0|1 [--tiny] [--span-dir DIR]\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else if (arg == "--span-dir") {
      a.span_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && a.trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 1;
  }
  std::vector<std::string> names;
  if (a.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    Scenario probe;
    if (!make_scenario(a.workload, a.seed, a.seconds, a.tiny, probe)) {
      std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
      usage();
      return 1;
    }
    names.push_back(a.workload);
  }

  Outcome total;
  const bool all = names.size() > 1;
  for (const std::string& name : names) {
    Outcome o = run_workload(a, name);
    total.correct &= o.correct;
    total.attempted += o.attempted;
    total.failed += o.failed;
    for (Metric& m : o.metrics) {
      if (all) m.name = name + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
    std::fflush(stdout);
  }
  if (all) {
    std::printf("peak_rss_mb is the process high-water mark up to each "
                "workload (one process ran all four)\n");
  }

  std::string json = "{\"correct\": ";
  json += total.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : total.metrics) {
    if (m.withheld) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
