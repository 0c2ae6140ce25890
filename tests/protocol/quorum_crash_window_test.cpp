// Quorum commit point under coordinator loss (docs/DURABILITY.md §8).
//
// The tentpole invariant, swept across every millisecond of the commit
// window: if the client saw Commit, the outcome survives — even when the
// coordinator dies PERMANENTLY right after the ack. With the decision
// replicated to a quorum before the ack, the surviving replica-group
// members answer the participants' census and the transaction resolves;
// recovery.lost_commits must stay zero at every crash offset. The sweep
// also layers a second replica-member crash and torn-write faults on the
// replica decision appends, and pins the motivating failure: quorum=1
// (the single-copy commit point) CAN lose client-acked commits under a
// permanent kill, quorum=2 cannot.
#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "protocol/cluster.hpp"
#include "tests/protocol/test_util.hpp"
#include "workload/synthetic.hpp"

namespace str::protocol {
namespace {

using test::key_at;
using test::small_config;
using test::TxProbe;

std::uint64_t counter_value(const Cluster& cluster, const std::string& name) {
  const obs::Registry merged = cluster.merged_obs();
  const obs::Counter* c = merged.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

Cluster::Config quorum_config(std::uint32_t quorum, std::uint64_t seed = 1) {
  Cluster::Config cfg =
      small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  cfg.protocol.durability.decision_quorum = quorum;
  return cfg;
}

/// One scripted write at t=100ms across two partitions (one mastered at the
/// crashing coordinator, one remote — the remote participant is what runs
/// the census). Returns after the cluster has fully settled.
struct SweepRun {
  TxProbe w;
  std::string remote_value;       ///< key_at(1,1) read via node 1
  std::string remote_value_n2;    ///< key_at(1,1) read via node 2
  bool reads_done = false;
  std::uint64_t lost_commits = 0;
  Cluster::QuiesceReport quiesce;
};

SweepRun sweep_once(Cluster::Config cfg) {
  Cluster cluster(cfg);
  SweepRun out;
  cluster.load(key_at(0, 1), "old");
  cluster.load(key_at(1, 1), "old");
  cluster.run_for(msec(100));
  test::run_write(cluster, cluster.node(0).coordinator(),
                  {key_at(0, 1), key_at(1, 1)}, "new", out.w);
  // Census resolution paces on the orphan timer (1s initial, 2s cap) and
  // needs up to orphan_down_probes complete rounds; 20s settles everything.
  cluster.run_for(sec(20));
  out.lost_commits = counter_value(cluster, "recovery.lost_commits");
  out.quiesce = cluster.quiesce_report();
  // Key 1 is mastered at the surviving node 1: readable regardless of the
  // coordinator's fate. Read it through two different nodes — atomicity
  // means they agree, and an acked commit means they both say "new".
  TxProbe r1, r2;
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(1, 1)}, r1);
  test::run_reads(cluster, cluster.node(2).coordinator(), {key_at(1, 1)}, r2);
  cluster.run_for(sec(2));
  out.reads_done = r1.done && r2.done && r1.reads.size() == 1 &&
                   r2.reads.size() == 1 && r1.reads[0].found &&
                   r2.reads[0].found;
  if (out.reads_done) {
    out.remote_value = r1.reads[0].value;
    out.remote_value_n2 = r2.reads[0].value;
  }
  return out;
}

void check_sweep_invariants(const SweepRun& run, std::uint32_t quorum,
                            Timestamp offset) {
  const std::string at = "quorum=" + std::to_string(quorum) + " offset=" +
                         std::to_string(offset) + "us";
  ASSERT_TRUE(run.w.done) << at;
  // THE invariant: a client that saw Commit never loses it.
  EXPECT_EQ(run.lost_commits, 0u) << at;
  ASSERT_TRUE(run.reads_done) << at;
  EXPECT_EQ(run.remote_value, run.remote_value_n2) << at;
  if (run.w.result.outcome == TxOutcome::Committed) {
    EXPECT_EQ(run.remote_value, "new") << at;
  } else {
    // Unacked: either outcome is legal (the census may resolve a durable
    // quorum decision to Commit after the client saw NodeCrash), but it
    // must be one of the two values, settled identically everywhere.
    EXPECT_TRUE(run.remote_value == "old" || run.remote_value == "new") << at;
  }
  // No 2PC state parked forever: every orphan and in-doubt registration
  // resolved; only the dead node itself remains.
  EXPECT_EQ(run.quiesce.live_txns, 0u) << at;
  EXPECT_EQ(run.quiesce.parked_reads, 0u) << at;
  EXPECT_EQ(run.quiesce.uncommitted_txns, 0u) << at;
  EXPECT_EQ(run.quiesce.orphans, 0u) << at;
  EXPECT_EQ(run.quiesce.in_doubt, 0u) << at;
}

TEST(QuorumCrashWindow, PermanentCoordinatorKillSweepNeverLosesAckedCommits) {
  // Crash the coordinator at every 10ms offset across the whole commit
  // window (prepare RTT ~100ms, decision fsync, quorum fan-out RTT, apply:
  // the client ack lands around 220ms; sweeping to 400ms covers well past
  // it). The crash is PERMANENT — the node never comes back, so only the
  // quorum copies can save an acked decision.
  for (const std::uint32_t quorum : {2u, 3u}) {
    for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
      Cluster::Config cfg = quorum_config(quorum);
      cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off);
      const SweepRun run = sweep_once(std::move(cfg));
      check_sweep_invariants(run, quorum, off);
    }
  }
}

TEST(QuorumCrashWindow, SecondMemberCrashAndTornWritesStillResolve) {
  // Layer a second failure on the sweep: a replica-group member (node 1)
  // crashes 20ms after the coordinator and restarts 1.5s later, with
  // torn-write faults forced on — every crash that catches a decision
  // append mid-fsync leaves a torn tail for replay to truncate. The member
  // replays its decision log on restart, so copies that reached its durable
  // prefix re-seed the census; the invariant is unchanged.
  for (Timestamp off = 0; off <= msec(400); off += msec(25)) {
    Cluster::Config cfg = quorum_config(2);
    cfg.faults.storage.torn_write_prob = 1.0;
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off);
    cfg.faults.add_crash(/*node=*/1, /*at=*/msec(120) + off,
                         /*restart_at=*/msec(1620) + off);
    const SweepRun run = sweep_once(std::move(cfg));
    check_sweep_invariants(run, 2, off);
  }
}

TEST(QuorumCrashWindow, QuorumOneCrashRestartSweepReplaysEveryOffset) {
  // quorum=1 degenerates to the single-copy commit point (the pre-quorum
  // behaviour, but routed through the in-doubt registry). With a RESTART
  // the local decision log replays and re-resolves everything; the ack
  // rule holds at every offset.
  for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
    Cluster::Config cfg = quorum_config(1);
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off,
                         /*restart_at=*/msec(2100) + off);
    const SweepRun run = sweep_once(std::move(cfg));
    check_sweep_invariants(run, 1, off);
  }
}

// ---------------------------------------------------------------------------
// The restarted origin runs the census too. Crash the coordinator inside the
// commit window and bring it back only after the participants' census has
// long concluded (~8s later): where the decision was durable at the origin
// but reached no member, the participants presumed abort, and the origin's
// own copy must not install the write on its replica alone. Every replica
// of both keys — including key_at(0,1), mastered at the restarted origin —
// must read the same value, through every node.

struct RestartRun {
  TxProbe w;
  std::vector<std::string> values;  ///< both keys, read via nodes 0, 1, 2
  bool reads_done = false;
  std::uint64_t lost_commits = 0;
  std::uint64_t split_outcomes = 0;
  std::uint64_t census_decisions = 0;  ///< own decisions the origin censused
  Cluster::QuiesceReport quiesce;
};

RestartRun restart_sweep_once(Cluster::Config cfg, Timestamp settle_for,
                              Timestamp write_at = msec(100)) {
  Cluster cluster(cfg);
  RestartRun out;
  cluster.load(key_at(0, 1), "old");
  cluster.load(key_at(1, 1), "old");
  cluster.run_for(write_at);
  test::run_write(cluster, cluster.node(0).coordinator(),
                  {key_at(0, 1), key_at(1, 1)}, "new", out.w);
  cluster.run_for(settle_for);
  out.lost_commits = counter_value(cluster, "recovery.lost_commits");
  out.split_outcomes = counter_value(cluster, "recovery.split_outcomes");
  out.census_decisions = counter_value(cluster, "recovery.census_decisions");
  out.quiesce = cluster.quiesce_report();
  TxProbe r[3];
  for (NodeId n = 0; n < 3; ++n) {
    test::run_reads(cluster, cluster.node(n).coordinator(),
                    {key_at(0, 1), key_at(1, 1)}, r[n]);
  }
  cluster.run_for(sec(2));
  out.reads_done = true;
  for (const TxProbe& p : r) {
    out.reads_done = out.reads_done && p.done && p.reads.size() == 2;
    for (const txn::ReadResult& rr : p.reads) {
      out.reads_done = out.reads_done && rr.found;
      out.values.push_back(rr.value);
    }
  }
  return out;
}

void check_restart_invariants(const RestartRun& run, Timestamp offset) {
  const std::string at = "offset=" + std::to_string(offset) + "us";
  ASSERT_TRUE(run.w.done) << at;
  EXPECT_EQ(run.lost_commits, 0u) << at;
  EXPECT_EQ(run.split_outcomes, 0u) << at;
  ASSERT_TRUE(run.reads_done) << at;
  const std::string& v = run.values.front();
  EXPECT_TRUE(v == "old" || v == "new") << at;
  for (const std::string& other : run.values) EXPECT_EQ(other, v) << at;
  if (run.w.result.outcome == TxOutcome::Committed) {
    EXPECT_EQ(v, "new") << at;
  }
  EXPECT_EQ(run.quiesce.live_txns, 0u) << at;
  EXPECT_EQ(run.quiesce.parked_reads, 0u) << at;
  EXPECT_EQ(run.quiesce.uncommitted_txns, 0u) << at;
  EXPECT_EQ(run.quiesce.orphans, 0u) << at;
  EXPECT_EQ(run.quiesce.in_doubt, 0u) << at;
}

TEST(QuorumCrashWindow, QuorumTwoLateRestartSettlesLikeTheCensus) {
  std::size_t censused_aborts = 0;
  for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
    Cluster::Config cfg = quorum_config(2);
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off,
                         /*restart_at=*/msec(8100) + off);
    const RestartRun run = restart_sweep_once(std::move(cfg), sec(20));
    check_restart_invariants(run, off);
    if (run.census_decisions > 0 && run.values.front() == "old") {
      ++censused_aborts;
    }
  }
  // The sweep did reach offsets where the census, not the origin's own
  // copy, decides: the durable decision reached no member.
  EXPECT_GT(censused_aborts, 0u);
}

TEST(QuorumCrashWindow, SettledAbortSurvivesASecondCrash) {
  // As above, then the origin crashes again 4s after its restart (its
  // census settled by then) and comes back at 26s — past the restart
  // census's window, where a decision record alone would read as settled
  // commit. A settled abort is durable: the second replay must not
  // re-derive the commit, so the write stays absent everywhere.
  std::size_t censused_aborts = 0;
  for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
    Cluster::Config cfg = quorum_config(2);
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off,
                         /*restart_at=*/msec(8100) + off);
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(12100) + off,
                         /*restart_at=*/msec(26100) + off);
    const RestartRun run = restart_sweep_once(std::move(cfg), sec(30));
    check_restart_invariants(run, off);
    if (run.census_decisions > 0 && run.values.front() == "old") {
      ++censused_aborts;
    }
  }
  EXPECT_GT(censused_aborts, 0u);
}

TEST(QuorumCrashWindow, DecisionLogCompactionKeepsBarrierDecisions) {
  // Compact the decision log at every maintenance tick (2s) and start the
  // write so the tick falls inside its quorum barrier: the decision is
  // durable but not yet settled when the log is rewritten. The rewrite must
  // carry it over — a crash after it (before or after the barrier
  // completes) must neither lose the origin's copy of an acked commit nor
  // leave the origin out of step with the members' copies.
  for (Timestamp start = msec(1700); start <= msec(2000); start += msec(10)) {
    for (const Timestamp crash : {msec(2060), msec(2400)}) {
      Cluster::Config cfg = quorum_config(2);
      cfg.protocol.durability.decision_log_max_bytes = 1;
      cfg.faults.add_crash(/*node=*/0, crash, /*restart_at=*/msec(10000));
      const RestartRun run = restart_sweep_once(std::move(cfg), sec(20), start);
      check_restart_invariants(run, start);
    }
  }
}

/// Read `keys` through each of `via`, give the reads 2s, and return the
/// values in order — or fewer than keys × via when a read is still blocked.
/// A blocked read keeps writing into its probe, so `probes` must outlive
/// the cluster.
std::vector<std::string> read_through(Cluster& cluster,
                                      const std::vector<Key>& keys,
                                      const std::vector<NodeId>& via,
                                      std::deque<TxProbe>& probes) {
  const std::size_t first = probes.size();
  for (NodeId n : via) {
    test::run_reads(cluster, cluster.node(n).coordinator(), keys,
                    probes.emplace_back());
  }
  cluster.run_for(sec(2));
  std::vector<std::string> values;
  for (std::size_t i = first; i < probes.size(); ++i) {
    if (!probes[i].done) continue;
    for (const txn::ReadResult& rr : probes[i].reads) {
      if (rr.found) values.push_back(rr.value);
    }
  }
  return values;
}

TEST(QuorumCrashWindow, OriginRestartSettlesWhileAMemberIsDownForGood) {
  // Four nodes, quorum 2: node 0's decision group is {0, 1, 2}. Member 1
  // dies for good before the write, so every copy the barrier collects is
  // node 2's. Crash the origin across the commit window and restart it 2s
  // later. Its census cannot hear from node 1, yet node 2's copy settles
  // commit: an acked write is readable everywhere soon after the restart.
  // key_at(3,1) is replicated at the origin, so its restart staged the
  // write there. Where no member holds a copy the census gives way to the
  // origin's copy once members could have pruned theirs, so by 40s every
  // outcome is settled and the same on every live replica.
  const std::vector<Key> keys = {key_at(2, 1), key_at(3, 1)};
  const std::vector<NodeId> live = {0, 2, 3};
  std::size_t acked = 0;
  for (Timestamp off = 0; off <= msec(400); off += msec(10)) {
    const std::string at = "offset=" + std::to_string(off) + "us";
    Cluster::Config cfg =
        small_config(4, 2, ProtocolConfig::str(), msec(100), 1);
    cfg.protocol.recovery.enabled = true;
    cfg.protocol.durability.wal_enabled = true;
    cfg.protocol.durability.decision_quorum = 2;
    cfg.faults.add_crash(/*node=*/1, /*at=*/msec(50));
    cfg.faults.add_crash(/*node=*/0, /*at=*/msec(100) + off,
                         /*restart_at=*/msec(2100) + off);
    std::deque<TxProbe> probes;
    Cluster cluster(cfg);
    for (const Key& k : keys) cluster.load(k, "old");
    cluster.run_for(msec(100));
    TxProbe w;
    test::run_write(cluster, cluster.node(0).coordinator(), keys, "new", w);
    cluster.run_for(sec(6));
    ASSERT_TRUE(w.done) << at;
    if (w.result.outcome == TxOutcome::Committed) {
      ++acked;
      const std::vector<std::string> early =
          read_through(cluster, keys, live, probes);
      EXPECT_EQ(early, std::vector<std::string>(6, "new")) << at;
    }
    cluster.run_for(sec(34));
    EXPECT_EQ(counter_value(cluster, "recovery.lost_commits"), 0u) << at;
    EXPECT_EQ(counter_value(cluster, "recovery.split_outcomes"), 0u) << at;
    const Cluster::QuiesceReport q = cluster.quiesce_report();
    EXPECT_EQ(q.live_txns, 0u) << at;
    EXPECT_EQ(q.parked_reads, 0u) << at;
    EXPECT_EQ(q.uncommitted_txns, 0u) << at;
    EXPECT_EQ(q.orphans, 0u) << at;
    EXPECT_EQ(q.in_doubt, 0u) << at;
    const std::vector<std::string> values =
        read_through(cluster, keys, live, probes);
    ASSERT_EQ(values.size(), 6u) << at;
    EXPECT_TRUE(values.front() == "old" || values.front() == "new") << at;
    for (const std::string& v : values) EXPECT_EQ(v, values.front()) << at;
    if (w.result.outcome == TxOutcome::Committed) {
      EXPECT_EQ(values.front(), "new") << at;
    }
  }
  // The sweep reached crashes after the client ack.
  EXPECT_GT(acked, 0u);
}

// ---------------------------------------------------------------------------
// The settle ledger: every verdict applies the one rule, so two settles of
// one transaction agree. One that does not is a split outcome, and counted.

TEST(QuorumCrashWindow, OppositeSettlesCountAsASplitOutcome) {
  Cluster cluster(quorum_config(2));
  const TxId tx{0, 4242};
  PartitionActor* p1 =
      cluster.node(1).replica(cluster.pmap().partitions_at(1)[0]);
  PartitionActor* p2 =
      cluster.node(2).replica(cluster.pmap().partitions_at(2)[0]);
  cluster.node(1).coordinator().settle(tx, true, msec(5), *p1);
  cluster.node(2).coordinator().settle(tx, true, msec(5), *p2);
  EXPECT_EQ(counter_value(cluster, "recovery.split_outcomes"), 0u);
  cluster.node(2).coordinator().settle(tx, false, 0, *p2);
  EXPECT_EQ(counter_value(cluster, "recovery.split_outcomes"), 1u);

  // Quorum off: no ledger, and no counter to move the metric surface.
  Cluster::Config off = quorum_config(2);
  off.protocol.durability.decision_quorum = 0;
  Cluster plain(off);
  EXPECT_EQ(plain.merged_obs().find_counter("recovery.split_outcomes"),
            nullptr);
}

// ---------------------------------------------------------------------------
// The motivating failure, as a differential pair: under message drops plus
// a PERMANENT coordinator kill, the single-copy commit point (quorum=1)
// loses client-acked commits — the Commit fan-out dies on the wire and the
// decision log dies with the node, so participants can only presume abort.
// quorum=2 on the same seed and fault schedule loses nothing.

harness::ExperimentConfig lossy_kill_config(std::uint32_t quorum) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(9, 6, ProtocolConfig::str(), msec(100), 7);
  cfg.cluster.topology = net::Topology::ec2_nine_regions();
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.protocol.durability.decision_quorum = quorum;
  cfg.cluster.faults.link.drop_prob = 0.15;
  cfg.cluster.faults.link.heal_at = usec(4'500'000);
  cfg.cluster.faults.add_crash(/*node=*/3, /*at=*/sec(4));  // permanent
  cfg.total_clients = 60;
  cfg.warmup = sec(2);
  cfg.duration = sec(4);
  cfg.drain = sec(8);
  cfg.verify = true;
  return cfg;
}

harness::WorkloadFactory synth_factory() {
  return [](Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(
        c, workload::SyntheticConfig::synth_a());
  };
}

TEST(QuorumCrashWindow, QuorumOneLosesAckedCommitsWhereQuorumTwoDoesNot) {
  const harness::ExperimentResult q1 =
      run_experiment(lossy_kill_config(1), synth_factory());
  const harness::ExperimentResult q2 =
      run_experiment(lossy_kill_config(2), synth_factory());

  // quorum=1: the loss is real and detected. (The SPSI checker cannot see
  // it — the lost writes simply never become visible — which is exactly
  // why the acked-commit ledger exists.)
  EXPECT_GT(q1.lost_commits, 0u);

  // quorum=2: same seed, same drops, same permanent kill — nothing lost,
  // nothing left in doubt, zero violations.
  EXPECT_EQ(q2.lost_commits, 0u);
  EXPECT_GT(q2.commits, 0u);
  EXPECT_TRUE(q2.violations.empty()) << q2.violations.front();
  EXPECT_EQ(q2.quiesce.live_txns, 0u);
  EXPECT_EQ(q2.quiesce.orphans, 0u);
  EXPECT_EQ(q2.quiesce.in_doubt, 0u);
  EXPECT_EQ(q2.quiesce.down_nodes, 1u);
  EXPECT_EQ(q2.quiesce.permanently_down, 1u);
}

// ---------------------------------------------------------------------------
// Chaos acceptance with the quorum on: drops + dups + torn writes + a
// permanent coordinator kill, SPSI-verified and bit-identical across reps.

harness::ExperimentConfig quorum_chaos_config(std::uint64_t seed,
                                              const std::string& metrics_out) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.cluster.jitter_frac = 0.05;
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.protocol.durability.decision_quorum = 2;
  cfg.cluster.faults.link.drop_prob = 0.05;
  cfg.cluster.faults.link.dup_prob = 0.02;
  cfg.cluster.faults.storage.torn_write_prob = 0.5;
  cfg.cluster.faults.add_crash(2, sec(4));  // permanent
  cfg.total_clients = 12;
  cfg.warmup = sec(1);
  cfg.duration = sec(8);
  cfg.drain = sec(6);
  cfg.verify = true;
  cfg.metrics_out = metrics_out;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(QuorumCrashWindow, QuorumChaosIsSafeLiveAndDeterministic) {
  const std::string out1 = testing::TempDir() + "quorum_chaos_metrics_1.json";
  const std::string out2 = testing::TempDir() + "quorum_chaos_metrics_2.json";

  const harness::ExperimentResult r1 =
      run_experiment(quorum_chaos_config(4242, out1), synth_factory());
  EXPECT_GT(r1.commits, 0u);
  EXPECT_GT(r1.net_dropped, 0u);
  EXPECT_EQ(r1.lost_commits, 0u);
  EXPECT_TRUE(r1.violations.empty()) << r1.violations.front();
  EXPECT_EQ(r1.quiesce.live_txns, 0u);
  EXPECT_EQ(r1.quiesce.parked_reads, 0u);
  EXPECT_EQ(r1.quiesce.uncommitted_txns, 0u);
  EXPECT_EQ(r1.quiesce.orphans, 0u);
  EXPECT_EQ(r1.quiesce.in_doubt, 0u);

  const harness::ExperimentResult r2 =
      run_experiment(quorum_chaos_config(4242, out2), synth_factory());
  ASSERT_TRUE(r1.exports_ok && r2.exports_ok);
  const std::string m1 = slurp(out1);
  ASSERT_FALSE(m1.empty());
  EXPECT_EQ(m1, slurp(out2));
  // The quorum machinery actually ran (fan-out counters in the export).
  EXPECT_NE(m1.find("wire.msgs.decision_replicate"), std::string::npos);
}

}  // namespace
}  // namespace str::protocol
