// str_sim — command-line driver for the STR simulator.
//
// Runs any workload/protocol combination on a configurable cluster and
// prints (and optionally CSV-exports) the paper's metrics. Examples:
//
//   str_sim --workload synth-a --protocol str --clients 80
//   str_sim --workload tpcc-a --protocol clocksi --clients 3600 --duration 30
//   str_sim --workload rubis --protocol str --tuner --reps 3 --csv out.csv
//
// Run with --help for the full option list.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include <vector>

#include "harness/csv.hpp"
#include "harness/replicated.hpp"
#include "harness/report.hpp"
#include "net/fault.hpp"
#include "workload/rubis.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

using namespace str;  // NOLINT

namespace {

struct Options {
  std::string workload = "synth-a";
  std::string protocol = "str";
  std::uint32_t nodes = 9;
  std::uint32_t rf = 6;
  std::uint32_t clients = 90;
  std::uint64_t seed = 42;
  std::uint32_t threads = 1;
  double duration_s = 20;
  double warmup_s = 4;
  bool tuner = false;
  unsigned reps = 1;
  std::string csv;
  std::string trace_out;
  std::string metrics_out;
  bool summary_percentiles = false;
  std::size_t trace_capacity = 0;  ///< 0 = default ring size
  bool uniform_topology = false;
  double wan_rtt_ms = 100;
  bool wire = false;
  // Real transport mode (docs/TRANSPORT.md).
  std::string transport = "des";
  int transport_port = 0;
  // Chaos mode (see docs/FAULTS.md).
  std::string fault_plan_path;
  net::FaultPlan faults;
  bool verify = false;
  double drain_s = 3;
  // Durability (see docs/DURABILITY.md).
  bool wal = false;
  std::string wal_dir;
  double fsync_ms = 2;
  std::uint32_t wal_batch = 8;
  std::uint32_t decision_quorum = 0;
  std::uint32_t replica_group = 0;
};

void usage() {
  std::puts(
      "str_sim: STR / SPSI geo-replication simulator\n"
      "  --workload W   synth-a | synth-b | tpcc-a | tpcc-b | tpcc-c | rubis\n"
      "  --protocol P   str | clocksi | ext-spec | str-no-sr | physical-sr\n"
      "  --clients N    total clients (round-robin over nodes)     [90]\n"
      "  --nodes N      cluster size                               [9]\n"
      "  --rf N         replication factor                         [6]\n"
      "  --duration S   measured seconds of virtual time           [20]\n"
      "  --warmup S     warmup seconds                             [4]\n"
      "  --seed N       deterministic seed                         [42]\n"
      "  --threads N    worker threads for region-sharded parallel\n"
      "                 simulation (docs/PERFORMANCE.md). 1 = the classic\n"
      "                 single queue, bit-identical to earlier releases;\n"
      "                 >1 shards the event queue by region. The parallel\n"
      "                 trajectory depends only on (seed, topology) — the\n"
      "                 same for 2 threads or 8                    [1]\n"
      "  --tuner        enable the self-tuning controller (threads=1 only)\n"
      "  --reps N       repetitions (mean/std across seeds)        [1]\n"
      "  --uniform MS   symmetric topology with the given WAN RTT\n"
      "  --wire         encode every message into a checksummed binary\n"
      "                 frame and decode it at delivery (wire codec mode,\n"
      "                 docs/WIRE.md); bit-identical to the default\n"
      "                 closure transport\n"
      "  --transport T  des | tcp (docs/TRANSPORT.md). des (the default) is\n"
      "                 the deterministic simulator; tcp runs the same\n"
      "                 cluster logic over loopback TCP sockets, served by\n"
      "                 one poll loop on the protocol thread, pacing virtual\n"
      "                 time to the wall clock (implies --wire; requires\n"
      "                 --threads 1 and no fault directives)        [des]\n"
      "  --transport-port N  tcp only: node i listens on 127.0.0.1:(N+i)\n"
      "                 instead of ephemeral ports; N+nodes-1 <= 65535\n"
      "  --csv PATH     append per-run metrics to a CSV file\n"
      "  --trace-out PATH    write a Chrome trace-event JSON (Perfetto /\n"
      "                      chrome://tracing loadable; first rep only;\n"
      "                      \"-\" = stdout, report moves to stderr)\n"
      "  --metrics-out PATH  write the merged metrics registry as JSON\n"
      "                      (or CSV when PATH ends in .csv; first rep only;\n"
      "                      \"-\" = stdout, report moves to stderr)\n"
      "  --summary-percentiles  add p95 to the per-phase table and print\n"
      "                      final-latency p50/p95/p99\n"
      "  --trace-capacity N  trace ring size (events and spans each; older\n"
      "                      records drop when full)\n"
      "chaos mode (docs/FAULTS.md; any fault flag enables recovery):\n"
      "  --fault-plan PATH   load a fault-plan spec file\n"
      "  --drop-prob P       per-message drop probability, every link\n"
      "  --dup-prob P        per-message duplication probability\n"
      "  --corrupt-prob P    per-message single-bit-flip probability; the\n"
      "                      receiver rejects the frame via checksum\n"
      "                      (counted as net.corrupted)\n"
      "  --partition A:B:S:E cut regions A <-> B from S to E seconds\n"
      "  --crash-node N:T[:R] crash node N at T s (restart at R s)\n"
      "  --heal S            stop drops/dups at S seconds; defaults to the\n"
      "                      end of the measurement window so the drain is\n"
      "                      a fault-free recovery period\n"
      "  --verify            record the history and run the SPSI checker\n"
      "                      (exit 2 on violations, 3 on leaked state,\n"
      "                       4 on lost client-acked commits)\n"
      "  --drain S           drain seconds after the window              [3]\n"
      "durability (docs/DURABILITY.md):\n"
      "  --wal               write-ahead log every commit decision; crashed\n"
      "                      nodes replay their logs on restart instead of\n"
      "                      keeping state by assumption\n"
      "  --wal-dir PATH      mirror each log to a file under PATH (implies\n"
      "                      --wal; PATH must exist and be writable)\n"
      "  --fsync-ms MS       modeled fsync latency                      [2]\n"
      "  --wal-batch N       group-commit batch size                    [8]\n"
      "  --torn-write P      probability a crash mid-fsync leaves a torn\n"
      "                      record at the log tail (replay truncates it)\n"
      "  --decision-quorum N replicate every commit decision across the\n"
      "                      coordinator's replica group and delay the commit\n"
      "                      point until N copies (incl. the local one) are\n"
      "                      durable; the decision then survives permanent\n"
      "                      coordinator loss (implies --wal)        [off]\n"
      "  --replica-group N   decision replica-group size; defaults to the\n"
      "                      quorum size when smaller\n");
}

/// Split "a:b:c" into its numeric fields; false on count or parse errors.
bool split_fields(const std::string& s, std::vector<double>& out,
                  std::size_t min_fields, std::size_t max_fields) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t colon = s.find(':', pos);
    const std::string field =
        s.substr(pos, colon == std::string::npos ? colon : colon - pos);
    if (field.empty()) return false;
    char* end = nullptr;
    out.push_back(std::strtod(field.c_str(), &end));
    if (end == nullptr || *end != '\0') return false;
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  return out.size() >= min_fields && out.size() <= max_fields;
}

/// Whole-string count in [min, 2^32-1]; false on junk, overflow, or a value
/// below `min` (atoi would wrap "-3" into four billion clients).
bool parse_count(const char* v, long long min, std::uint32_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < min ||
      n > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(n);
  return true;
}

/// Whole-string duration: a finite, non-negative number of seconds.
bool parse_seconds(const char* v, double& out) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(d) || d < 0) return false;
  out = d;
  return true;
}

/// Report a flag value that failed its parse; always false.
bool bad_value(const std::string& flag, const char* wants, const char* v) {
  std::fprintf(stderr, "%s wants %s, got %s\n", flag.c_str(), wants, v);
  return false;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Value of a value-taking flag. Reports a usage error (and returns
    // nullptr) when the flag is the last argument — every use below must
    // check before dereferencing.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option %s requires a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--workload") {
      if ((v = next()) == nullptr) return false;
      opt.workload = v;
    } else if (arg == "--protocol") {
      if ((v = next()) == nullptr) return false;
      opt.protocol = v;
    } else if (arg == "--clients") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 0, opt.clients)) {
        return bad_value(arg, "a non-negative count", v);
      }
    } else if (arg == "--nodes") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 1, opt.nodes)) {
        return bad_value(arg, "a positive count", v);
      }
    } else if (arg == "--rf") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 1, opt.rf)) {
        return bad_value(arg, "a positive count", v);
      }
    } else if (arg == "--duration") {
      if ((v = next()) == nullptr) return false;
      if (!parse_seconds(v, opt.duration_s)) {
        return bad_value(arg, "a finite, non-negative number of seconds", v);
      }
    } else if (arg == "--warmup") {
      if ((v = next()) == nullptr) return false;
      if (!parse_seconds(v, opt.warmup_s)) {
        return bad_value(arg, "a finite, non-negative number of seconds", v);
      }
    } else if (arg == "--seed") {
      if ((v = next()) == nullptr) return false;
      opt.seed = std::atoll(v);
    } else if (arg == "--threads") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 1, opt.threads)) {
        return bad_value(arg, "a positive count", v);
      }
    } else if (arg == "--tuner") {
      opt.tuner = true;
    } else if (arg == "--reps") {
      if ((v = next()) == nullptr) return false;
      std::uint32_t reps = 0;
      if (!parse_count(v, 1, reps)) return bad_value(arg, "a positive count", v);
      opt.reps = reps;
    } else if (arg == "--csv") {
      if ((v = next()) == nullptr) return false;
      opt.csv = v;
    } else if (arg == "--trace-out") {
      if ((v = next()) == nullptr) return false;
      opt.trace_out = v;
    } else if (arg == "--metrics-out") {
      if ((v = next()) == nullptr) return false;
      opt.metrics_out = v;
    } else if (arg == "--summary-percentiles") {
      opt.summary_percentiles = true;
    } else if (arg == "--trace-capacity") {
      if ((v = next()) == nullptr) return false;
      opt.trace_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--uniform") {
      if ((v = next()) == nullptr) return false;
      opt.uniform_topology = true;
      opt.wan_rtt_ms = std::atof(v);
    } else if (arg == "--fault-plan") {
      if ((v = next()) == nullptr) return false;
      opt.fault_plan_path = v;
      std::string error;
      if (!net::FaultPlan::load(opt.fault_plan_path, opt.faults, error)) {
        std::fprintf(stderr, "--fault-plan %s: %s\n", v, error.c_str());
        return false;
      }
    } else if (arg == "--drop-prob") {
      if ((v = next()) == nullptr) return false;
      opt.faults.link.drop_prob = std::atof(v);
    } else if (arg == "--dup-prob") {
      if ((v = next()) == nullptr) return false;
      opt.faults.link.dup_prob = std::atof(v);
    } else if (arg == "--corrupt-prob") {
      if ((v = next()) == nullptr) return false;
      opt.faults.link.corrupt_prob = std::atof(v);
    } else if (arg == "--wire") {
      opt.wire = true;
    } else if (arg == "--transport") {
      if ((v = next()) == nullptr) return false;
      opt.transport = v;
    } else if (arg == "--transport-port") {
      if ((v = next()) == nullptr) return false;
      std::uint32_t port = 0;
      if (!parse_count(v, 1, port) || port > 65535) {
        return bad_value(arg, "a port in [1,65535]", v);
      }
      opt.transport_port = static_cast<int>(port);
    } else if (arg == "--partition") {
      if ((v = next()) == nullptr) return false;
      std::vector<double> f;
      if (!split_fields(v, f, 4, 4)) {
        std::fprintf(stderr, "--partition wants A:B:START:END, got %s\n", v);
        return false;
      }
      opt.faults.add_partition(static_cast<RegionId>(f[0]),
                               static_cast<RegionId>(f[1]),
                               static_cast<Timestamp>(f[2] * 1e6),
                               static_cast<Timestamp>(f[3] * 1e6));
    } else if (arg == "--crash-node") {
      if ((v = next()) == nullptr) return false;
      std::vector<double> f;
      if (!split_fields(v, f, 2, 3)) {
        std::fprintf(stderr, "--crash-node wants NODE:AT[:RESTART], got %s\n",
                     v);
        return false;
      }
      // Same ordering rule the fault-plan parser enforces: a restart that
      // does not strictly follow its crash would trip an assertion deep in
      // cluster construction instead of a usage error here.
      if (f.size() == 3 && f[2] <= f[1]) {
        std::fprintf(stderr,
                     "--crash-node %s: RESTART must be after the crash time\n",
                     v);
        return false;
      }
      opt.faults.add_crash(static_cast<NodeId>(f[0]),
                           static_cast<Timestamp>(f[1] * 1e6),
                           f.size() == 3
                               ? static_cast<Timestamp>(f[2] * 1e6)
                               : kTsInfinity);
    } else if (arg == "--heal") {
      if ((v = next()) == nullptr) return false;
      opt.faults.link.heal_at = static_cast<Timestamp>(std::atof(v) * 1e6);
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--drain") {
      if ((v = next()) == nullptr) return false;
      if (!parse_seconds(v, opt.drain_s)) {
        return bad_value(arg, "a finite, non-negative number of seconds", v);
      }
    } else if (arg == "--wal") {
      opt.wal = true;
    } else if (arg == "--wal-dir") {
      if ((v = next()) == nullptr) return false;
      opt.wal_dir = v;
      opt.wal = true;
    } else if (arg == "--fsync-ms") {
      if ((v = next()) == nullptr) return false;
      opt.fsync_ms = std::atof(v);
      if (opt.fsync_ms < 0) {
        std::fprintf(stderr, "--fsync-ms wants a non-negative value\n");
        return false;
      }
    } else if (arg == "--wal-batch") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 1, opt.wal_batch)) {
        return bad_value(arg, "a positive count", v);
      }
    } else if (arg == "--decision-quorum") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 1, opt.decision_quorum)) {
        return bad_value(arg, "a positive count", v);
      }
      opt.wal = true;
    } else if (arg == "--replica-group") {
      if ((v = next()) == nullptr) return false;
      if (!parse_count(v, 1, opt.replica_group)) {
        return bad_value(arg, "a positive count", v);
      }
    } else if (arg == "--torn-write") {
      if ((v = next()) == nullptr) return false;
      const double p = std::atof(v);
      if (p < 0.0 || p > 1.0) {
        std::fprintf(stderr, "--torn-write wants a probability in [0,1]\n");
        return false;
      }
      opt.faults.storage.torn_write_prob = p;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

protocol::ProtocolConfig protocol_config(const std::string& name, bool& ok) {
  ok = true;
  if (name == "str") return protocol::ProtocolConfig::str();
  if (name == "clocksi") return protocol::ProtocolConfig::clocksi_rep();
  if (name == "ext-spec") return protocol::ProtocolConfig::ext_spec();
  if (name == "str-no-sr") {
    auto c = protocol::ProtocolConfig::str();
    c.speculative_reads = false;
    return c;
  }
  if (name == "physical-sr") {
    protocol::ProtocolConfig c;
    c.speculative_reads = true;
    c.precise_clocks = false;
    return c;
  }
  ok = false;
  return {};
}

harness::WorkloadFactory workload_factory(const std::string& name, bool& ok) {
  ok = true;
  if (name == "synth-a" || name == "synth-b") {
    auto wcfg = name == "synth-a" ? workload::SyntheticConfig::synth_a()
                                  : workload::SyntheticConfig::synth_b();
    return [wcfg](protocol::Cluster& c) {
      return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
    };
  }
  if (name == "tpcc-a" || name == "tpcc-b" || name == "tpcc-c") {
    auto wcfg = name == "tpcc-a"   ? workload::TpccConfig::mix_a()
                : name == "tpcc-b" ? workload::TpccConfig::mix_b()
                                   : workload::TpccConfig::mix_c();
    return [wcfg](protocol::Cluster& c) {
      return std::make_unique<workload::TpccWorkload>(c, wcfg);
    };
  }
  if (name == "rubis") {
    workload::RubisConfig wcfg;
    return [wcfg](protocol::Cluster& c) {
      return std::make_unique<workload::RubisWorkload>(c, wcfg);
    };
  }
  ok = false;
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 1;
  }
  // Validate --wal-dir before spending minutes of simulation on a run whose
  // logs cannot be written (the same fail-fast contract as --trace-out).
  if (!opt.wal_dir.empty()) {
    const std::string probe = opt.wal_dir + "/.wal_probe";
    std::FILE* f = std::fopen(probe.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "--wal-dir %s: not a writable directory\n",
                   opt.wal_dir.c_str());
      return 1;
    }
    std::fclose(f);
    std::remove(probe.c_str());
  }
  // Validate --transport combinations up front, like --wal-dir: a real
  // transport binds sockets, so misconfigurations must die as usage errors
  // before any of that exists.
  net::TransportKind tkind = net::TransportKind::kDes;
  if (!net::parse_transport(opt.transport, tkind)) {
    std::fprintf(stderr, "--transport wants des | tcp, got %s\n",
                 opt.transport.c_str());
    return 1;
  }
  if (tkind != net::TransportKind::kDes) {
    if (opt.threads > 1) {
      std::fprintf(stderr,
                   "--transport %s requires --threads 1 (the protocol "
                   "thread drives the sockets itself; the region-sharded "
                   "scheduler's workers cannot share that loop)\n",
                   opt.transport.c_str());
      return 1;
    }
    if (!opt.faults.empty()) {
      std::fprintf(stderr,
                   "--transport %s is incompatible with fault directives "
                   "(--drop-prob, --partition, --crash-node, ...): the DES "
                   "owns deterministic fault injection; the tcp transport gets "
                   "its faults from real sockets\n",
                   opt.transport.c_str());
      return 1;
    }
  }
  if (opt.transport_port != 0 && tkind != net::TransportKind::kTcp) {
    std::fprintf(stderr, "--transport-port requires --transport tcp\n");
    return 1;
  }
  if (opt.transport_port != 0 &&
      static_cast<std::uint64_t>(opt.transport_port) + opt.nodes - 1 > 65535) {
    std::fprintf(stderr,
                 "--transport-port %d puts node %u past port 65535 (node i "
                 "listens on N+i)\n",
                 opt.transport_port, opt.nodes - 1);
    return 1;
  }
  bool ok = false;
  harness::ExperimentConfig cfg;
  cfg.cluster.num_nodes = opt.nodes;
  cfg.cluster.replication_factor = std::min(opt.rf, opt.nodes);
  cfg.cluster.topology =
      opt.uniform_topology
          ? net::Topology::symmetric(opt.nodes,
                                     msec(static_cast<std::uint64_t>(
                                         opt.wan_rtt_ms)))
          : (opt.nodes == 9 ? net::Topology::ec2_nine_regions()
                            : net::Topology::symmetric(opt.nodes, msec(100)));
  cfg.cluster.protocol = protocol_config(opt.protocol, ok);
  if (!ok) {
    std::fprintf(stderr, "unknown protocol: %s\n", opt.protocol.c_str());
    return 1;
  }
  cfg.cluster.seed = opt.seed;
  cfg.cluster.threads = opt.threads;
  // The self-tuner samples the raw commit meter in arrival order, which is
  // wall-clock-dependent across worker threads; its decisions would not be
  // reproducible. Fail as a usage error, not an assertion mid-run.
  if (opt.tuner && opt.threads > 1) {
    std::fprintf(stderr, "--tuner requires --threads 1\n");
    return 1;
  }
  cfg.cluster.faults = opt.faults;
  cfg.cluster.wire_codec = opt.wire;
  cfg.cluster.transport = tkind;
  cfg.cluster.transport_opts.base_port =
      static_cast<std::uint16_t>(opt.transport_port);
  if (opt.wal) {
    auto& d = cfg.cluster.protocol.durability;
    d.wal_enabled = true;
    d.wal_dir = opt.wal_dir;
    d.fsync_latency = static_cast<Timestamp>(opt.fsync_ms * 1e3);
    d.group_commit_batch = opt.wal_batch;
    d.decision_quorum = opt.decision_quorum;
    d.replica_group = opt.replica_group;
    if (d.decision_quorum > opt.nodes) {
      std::fprintf(stderr, "--decision-quorum %u exceeds the cluster size\n",
                   d.decision_quorum);
      return 1;
    }
  }
  if (opt.replica_group != 0 && opt.decision_quorum == 0) {
    std::fprintf(stderr, "--replica-group requires --decision-quorum\n");
    return 1;
  }
  cfg.total_clients = opt.clients;
  cfg.warmup = static_cast<Timestamp>(opt.warmup_s * 1e6);
  cfg.duration = static_cast<Timestamp>(opt.duration_s * 1e6);
  cfg.drain = static_cast<Timestamp>(opt.drain_s * 1e6);
  cfg.self_tuning = opt.tuner;
  cfg.trace_out = opt.trace_out;
  cfg.metrics_out = opt.metrics_out;
  if (opt.trace_capacity != 0) cfg.trace_capacity = opt.trace_capacity;
  cfg.verify = opt.verify;

  auto factory = workload_factory(opt.workload, ok);
  if (!ok) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 1;
  }

  // "-" sends an export to stdout; the human-readable report then moves to
  // stderr so piping into trace_analyze (or jq) sees pure JSON.
  std::FILE* rpt =
      opt.trace_out == "-" || opt.metrics_out == "-" ? stderr : stdout;
  const std::string threads_note =
      opt.threads > 1 ? " threads=" + std::to_string(opt.threads) : "";
  const std::string transport_note =
      tkind != net::TransportKind::kDes
          ? " transport=" + std::string(net::to_string(tkind))
          : "";
  std::fprintf(
      rpt,
      "workload=%s protocol=%s nodes=%u rf=%u clients=%u reps=%u%s%s%s%s\n",
      opt.workload.c_str(), opt.protocol.c_str(), opt.nodes,
      cfg.cluster.replication_factor, opt.clients, opt.reps,
      opt.tuner ? " tuner=on" : "", opt.wire ? " wire=on" : "",
      threads_note.c_str(), transport_note.c_str());
  if (opt.wal) {
    const std::string quorum_note =
        opt.decision_quorum != 0
            ? " quorum=" + std::to_string(opt.decision_quorum) + " group=" +
                  std::to_string(
                      cfg.cluster.protocol.durability.group_size())
            : "";
    std::fprintf(rpt, "wal: fsync=%.1fms batch=%u%s%s%s\n", opt.fsync_ms,
                 opt.wal_batch,
                 opt.wal_dir.empty() ? "" : (" dir=" + opt.wal_dir).c_str(),
                 quorum_note.c_str(),
                 opt.faults.storage.any() ? " (torn-write faults on)" : "");
  }
  if (!opt.faults.empty()) {
    std::fprintf(rpt, "faults: %s%s\n", opt.faults.describe().c_str(),
                 opt.verify ? " (verify on)" : "");
  }

  harness::ReplicatedResult agg;
  try {
    agg = harness::run_replicated(cfg, factory, opt.reps);
  } catch (const std::exception& e) {
    // Real transports can fail at the OS level (a busy --transport-port,
    // fd exhaustion); report it as a run failure, not a crash.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  std::fprintf(
      rpt,
      "throughput    %10.1f tps   (std %.1f, cv %.1f%%)\n"
      "final latency %10.1f ms\n"
      "spec latency  %10.1f ms\n"
      "abort rate    %10.1f %%\n"
      "misspec rate  %10.1f %%  ext-misspec %0.1f %%\n",
      agg.throughput.mean(), agg.throughput.stddev(),
      agg.throughput_cv() * 100.0, agg.final_latency_mean.mean() / 1000.0,
      agg.speculative_latency_mean.mean() / 1000.0,
      agg.abort_rate.mean() * 100.0, agg.misspeculation_rate.mean() * 100.0,
      agg.external_misspeculation_rate.mean() * 100.0);
  if (opt.summary_percentiles && !agg.runs.empty()) {
    const auto& res = agg.runs.front();
    std::fprintf(rpt, "final latency percentiles %.1f / %.1f / %.1f ms (p50/p95/p99)\n",
                 static_cast<double>(res.final_latency_p50) / 1000.0,
                 static_cast<double>(res.final_latency_p95) / 1000.0,
                 static_cast<double>(res.final_latency_p99) / 1000.0);
  }
  if (opt.tuner && !agg.runs.empty()) {
    std::fprintf(rpt, "tuner: speculation %s\n",
                 agg.runs.front().speculation_enabled_at_end ? "on" : "off");
  }
  if (!agg.runs.empty()) {
    std::fputc('\n', rpt);
    harness::print_phase_table(opt.workload + " / " + opt.protocol,
                               agg.runs.front().phases, rpt,
                               opt.summary_percentiles);
  }
  const bool exports_ok = agg.runs.empty() || agg.runs.front().exports_ok;
  if (!exports_ok) {
    std::fprintf(stderr, "failed to write trace/metrics output\n");
    return 1;
  }
  if (!opt.trace_out.empty() && opt.trace_out != "-") {
    std::fprintf(rpt, "wrote trace to %s\n", opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty() && opt.metrics_out != "-") {
    std::fprintf(rpt, "wrote metrics to %s\n", opt.metrics_out.c_str());
  }
  if (!agg.runs.empty() && agg.runs.front().trace_dropped != 0) {
    std::fprintf(stderr,
                 "WARNING: trace.dropped=%llu — raise --trace-capacity or "
                 "shorten the run for complete causal analysis\n",
                 static_cast<unsigned long long>(agg.runs.front().trace_dropped));
  }

  if (!opt.csv.empty()) {
    harness::CsvWriter csv(opt.csv,
                           {"workload", "protocol", "clients", "seed",
                            "throughput_tps", "abort_rate", "misspec_rate",
                            "final_latency_ms", "spec_latency_ms"});
    for (std::size_t r = 0; r < agg.runs.size(); ++r) {
      const auto& res = agg.runs[r];
      csv.write_row({opt.workload, opt.protocol, std::to_string(opt.clients),
                     std::to_string(opt.seed + 7919 * r),
                     std::to_string(res.throughput),
                     std::to_string(res.abort_rate),
                     std::to_string(res.misspeculation_rate),
                     std::to_string(res.final_latency_mean / 1000.0),
                     std::to_string(res.speculative_latency_mean / 1000.0)});
    }
    std::fprintf(rpt, "wrote %zu rows to %s\n", agg.runs.size(),
                 opt.csv.c_str());
  }

  // Chaos-mode verdicts: safety (the SPSI checker) and cleanup (no state
  // leaked past the drain) must both hold under every fault plan.
  int rc = 0;
  if ((!opt.faults.empty() || opt.verify) && !agg.runs.empty()) {
    std::uint64_t violations = 0, leaks = 0;
    for (const auto& res : agg.runs) {
      violations += res.violations.size();
      if (!res.quiesce.clean()) ++leaks;
    }
    const auto& first = agg.runs.front();
    // Transport-level retransmits are a different animal from protocol-level
    // rpc_retries: surface both side by side so a chaos verdict can tell
    // socket recovery from timeout machinery.
    const std::string transport_verdict =
        tkind != net::TransportKind::kDes
            ? " transport_resent=" + std::to_string(first.transport_resent) +
                  " reconnects=" + std::to_string(first.transport_reconnects)
            : "";
    std::fprintf(
        rpt,
        "\nfaults: dropped=%llu duplicated=%llu corrupted=%llu "
        "inversions=%llu\n"
        "recovery: rpc_timeouts=%llu rpc_retries=%llu orphan_aborts=%llu"
        "%s%s\n"
        "quiesce: live=%zu parked=%zu locks=%zu orphans=%zu in_doubt=%zu "
        "down=%zu (perm=%zu)\n",
        static_cast<unsigned long long>(first.net_dropped),
        static_cast<unsigned long long>(first.net_duplicated),
        static_cast<unsigned long long>(first.net_corrupted),
        static_cast<unsigned long long>(first.net_inversions),
        static_cast<unsigned long long>(first.rpc_timeouts),
        static_cast<unsigned long long>(first.rpc_retries),
        static_cast<unsigned long long>(first.orphan_aborts),
        opt.decision_quorum != 0
            ? (" lost_commits=" + std::to_string(first.lost_commits)).c_str()
            : "",
        transport_verdict.c_str(),
        first.quiesce.live_txns, first.quiesce.parked_reads,
        first.quiesce.uncommitted_txns, first.quiesce.orphans,
        first.quiesce.in_doubt, first.quiesce.down_nodes,
        first.quiesce.permanently_down);
    if (first.lost_commits != 0) {
      std::fprintf(stderr,
                   "LOST COMMITS: %llu client-acked commit(s) were aborted "
                   "by recovery\n",
                   static_cast<unsigned long long>(first.lost_commits));
    }
    if (opt.verify) {
      std::fprintf(rpt, "spsi: %llu violation(s)\n",
                   static_cast<unsigned long long>(violations));
      for (const auto& res : agg.runs) {
        for (const std::string& viol : res.violations) {
          std::fprintf(stderr, "SPSI VIOLATION: %s\n", viol.c_str());
        }
      }
    }
    if (leaks != 0) {
      std::fprintf(stderr, "LEAK: %llu run(s) did not quiesce clean\n",
                   static_cast<unsigned long long>(leaks));
    }
    if (violations != 0) {
      rc = 2;
    } else if (leaks != 0) {
      rc = 3;
    } else if (opt.verify && first.lost_commits != 0) {
      // A lost acked commit is a durability-contract violation even when
      // the surviving history is SPSI-clean.
      rc = 4;
    }
  }
  return rc;
}
