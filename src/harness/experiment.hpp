// Experiment runner: builds a cluster, loads a workload, drives clients for
// warmup + measurement + drain, and extracts the metrics the paper reports
// (throughput, final/speculative latency, abort and misspeculation rates).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "protocol/cluster.hpp"
#include "tuning/self_tuner.hpp"
#include "workload/workload.hpp"

namespace str::harness {

/// Builds the workload against a constructed cluster (workloads need the
/// partition map to place their data).
using WorkloadFactory = std::function<std::unique_ptr<workload::Workload>(
    protocol::Cluster& cluster)>;

struct ExperimentConfig {
  protocol::Cluster::Config cluster;
  std::uint32_t clients_per_node = 10;
  /// When non-zero, overrides clients_per_node: this many clients total,
  /// distributed round-robin over the nodes.
  std::uint32_t total_clients = 0;
  Timestamp warmup = sec(3);
  Timestamp duration = sec(20);
  Timestamp drain = sec(3);
  /// Run the §5.5 self-tuning controller during warmup. Warmup is extended
  /// to cover the trial automatically.
  bool self_tuning = false;
  tuning::SelfTunerConfig tuner;

  // -- observability -------------------------------------------------------
  /// Enable the transaction-lifecycle tracer for the measurement window.
  /// Implied by a non-empty trace_out.
  bool tracing = false;
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
  /// When non-empty, write the Chrome trace-event JSON / metrics JSON there.
  std::string trace_out;
  std::string metrics_out;

  // -- verification (chaos mode) -------------------------------------------
  /// Record the full history (warmup through drain) and run the SPSI
  /// checker over it after the drain. Safety must hold under every fault
  /// plan, so chaos runs should always set this.
  bool verify = false;
};

/// Floor on the drain under a fault plan: the drain must also cover orphan
/// recovery, since a coordinator crash near the end of the window leaves
/// prepared participants probing on second-scale timers.
inline constexpr Timestamp kFaultDrainFloor = sec(10);

/// The drain run_experiment actually runs: config.drain, raised to
/// kFaultDrainFloor when the cluster has a fault plan.
Timestamp effective_drain(const ExperimentConfig& config);

/// One "phase.*" timer from the merged registry, for the per-phase latency
/// breakdown table (virtual microseconds).
struct PhaseStat {
  std::string name;  ///< registry name without the "phase." prefix
  std::uint64_t count = 0;
  double mean_us = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
};

struct ExperimentResult {
  double throughput = 0.0;  ///< committed txns per virtual second
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  double abort_rate = 0.0;
  double misspeculation_rate = 0.0;           ///< internal (STR)
  double external_misspeculation_rate = 0.0;  ///< Ext-Spec
  // Latencies in microseconds of virtual time.
  double final_latency_mean = 0.0;
  std::uint64_t final_latency_p50 = 0;
  std::uint64_t final_latency_p95 = 0;
  std::uint64_t final_latency_p99 = 0;
  double speculative_latency_mean = 0.0;
  std::uint64_t speculative_latency_p50 = 0;
  std::uint64_t speculative_reads = 0;
  std::uint64_t total_reads = 0;
  std::uint64_t messages = 0;
  std::uint64_t wan_messages = 0;
  /// Final state of the speculation flag (self-tuning outcome).
  bool speculation_enabled_at_end = true;
  bool tuner_decided = false;
  /// Per-phase latency breakdown from the merged "phase.*" timers
  /// (measurement window only).
  std::vector<PhaseStat> phases;
  /// Mean FC - RS over committed transactions (how far a commit lands past
  /// its snapshot; Precise Clocks shrinks this).
  double commit_snapshot_distance_mean = 0.0;
  /// False when a requested trace_out / metrics_out file could not be written.
  bool exports_ok = true;
  /// Trace records (events + spans) lost to ring overflow; nonzero means
  /// downstream trace analysis sees a truncated causal history. Also
  /// surfaced as the "trace.dropped" counter in the merged metrics.
  std::uint64_t trace_dropped = 0;

  // -- fault / recovery accounting (zero on fault-free runs) ---------------
  std::uint64_t net_dropped = 0;
  std::uint64_t net_duplicated = 0;
  std::uint64_t net_corrupted = 0;  ///< deliveries rejected by the frame
                                    ///< integrity check (bit-flip faults)
  std::uint64_t net_inversions = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t orphan_aborts = 0;
  /// Client-acked commits that recovery later aborted (quorum mode; any
  /// nonzero value is a durability contract violation).
  std::uint64_t lost_commits = 0;
  /// Transactions recovery settled both ways (quorum mode; any nonzero
  /// value means two replicas hold different outcomes).
  std::uint64_t split_outcomes = 0;
  /// Transport-level retransmits (sum of "wire.resent.*") and connection
  /// re-establishments — zero except in real-transport runs, where they
  /// distinguish socket-layer recovery from protocol-level rpc_retries.
  std::uint64_t transport_resent = 0;
  std::uint64_t transport_reconnects = 0;
  /// End-of-run residue (live txns / parked reads / held locks / orphans).
  protocol::Cluster::QuiesceReport quiesce;
  /// SPSI violations found by the checker (empty unless config.verify and
  /// something is actually wrong).
  std::vector<std::string> violations;
};

/// Run one experiment to completion (one DES instance, one thread).
ExperimentResult run_experiment(const ExperimentConfig& config,
                                const WorkloadFactory& factory);

}  // namespace str::harness
