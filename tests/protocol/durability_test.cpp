// End-to-end durability (docs/DURABILITY.md): with the WAL enabled a crash
// wipes node state for real, restart replays the logs, and the ack rule
// holds on both sides — every acknowledged commit survives a crash/restart,
// and nothing a client could have seen acknowledged is lost when the
// decision record missed the durable prefix. Plus checkpoint truncation,
// double-crash idempotence, WAL-off neutrality, and the chaos acceptance
// plan run with durability + torn-write faults on.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "protocol/cluster.hpp"
#include "protocol/node.hpp"
#include "protocol/partition_actor.hpp"
#include "protocol/partition_map.hpp"
#include "storage/wal.hpp"
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

Cluster::Config wal_config(std::uint32_t nodes, std::uint32_t rf,
                           std::uint64_t seed = 1) {
  Cluster::Config cfg = small_config(nodes, rf, ProtocolConfig::str(),
                                     msec(100), seed);
  cfg.protocol.recovery.enabled = true;
  cfg.protocol.durability.wal_enabled = true;
  return cfg;
}

TEST(Durability, AcknowledgedCommitSurvivesCrashAndReplay) {
  Cluster::Config cfg = wal_config(2, 2);
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);

  // Crash the coordinator node AFTER the ack: its store is wiped (the WAL
  // earns what used to be assumed), then rebuilt from the log on restart.
  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  EXPECT_GT(counter_value(cluster, "wal.replayed_records"), 0u);

  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "new");
  EXPECT_EQ(r1.reads[0].value, "new");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, UndurableDecisionIsPresumedAbortedEverywhere) {
  // Crash inside the commit-durability window: the participant acks landed,
  // the partition log's commit record is durable, but the decision record
  // is still unsynced. The client must see a NodeCrash abort (nothing was
  // acknowledged), the restarted node's replay must NOT install the commit
  // record (no replayed decision validates it), and the slave's orphaned
  // pre-commit must resolve to abort — the old value everywhere.
  Cluster::Config cfg = wal_config(2, 2);
  cfg.faults.add_crash(/*node=*/0, /*at=*/msec(119), /*restart_at=*/msec(400));
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Aborted);
  EXPECT_EQ(w.result.abort_reason, AbortReason::NodeCrash);

  // Orphan probe hits the restarted coordinator; no decision => abort.
  cluster.run_for(sec(5));
  EXPECT_TRUE(cluster.quiesce_report().clean());

  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "old");
  EXPECT_EQ(r1.reads[0].value, "old");
}

TEST(Durability, DoubleCrashDoubleRestartReplaysIdempotently) {
  Cluster::Config cfg = wal_config(2, 2);
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v0");
  cluster.run_for(msec(10));

  TxProbe w1;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "v1", w1);
  cluster.run_for(sec(1));
  ASSERT_EQ(w1.result.outcome, TxOutcome::Committed);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  const std::uint64_t replayed_once =
      counter_value(cluster, "wal.replayed_records");
  EXPECT_GT(replayed_once, 0u);

  // Write again on the replayed store, then crash/restart twice in a row
  // with no traffic in between: the second replay walks the identical log
  // (plus the records the first replay may have re-appended) and must land
  // in the same state.
  TxProbe w2;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "v2", w2);
  cluster.run_for(sec(1));
  ASSERT_EQ(w2.result.outcome, TxOutcome::Committed);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(msec(50));
  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  EXPECT_GT(counter_value(cluster, "wal.replayed_records"), replayed_once);

  TxProbe r0, r1;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r0);
  test::run_reads(cluster, cluster.node(1).coordinator(), {key_at(0, 1)}, r1);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r0.done && r1.done);
  EXPECT_EQ(r0.reads[0].value, "v2");
  EXPECT_EQ(r1.reads[0].value, "v2");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, CheckpointTruncatesTheLogAndReplayStartsFromIt) {
  Cluster::Config cfg = wal_config(2, 2);
  // A 1-byte floor: a log is checkpointed at the first tick after it has
  // grown by its last checkpoint, however small that was.
  cfg.protocol.durability.checkpoint_min_bytes = 1;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  for (int i = 0; i < 4; ++i) {
    TxProbe w;
    test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                    "g" + std::to_string(i), w);
    cluster.run_for(sec(1));
    ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  }
  // Maintenance runs on gc_interval; with the 1-byte floor every idle log
  // that grew since its last rewrite becomes a single checkpoint record.
  cluster.run_for(sec(5));
  EXPECT_GT(counter_value(cluster, "wal.checkpoints"), 0u);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "g3");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

/// Records in partition `pid`'s durable log on `node`, front to back.
std::vector<storage::WalRecord> durable_records(Cluster& cluster, NodeId node,
                                                PartitionId pid) {
  std::vector<storage::WalRecord> out;
  storage::scan_wal(cluster.node(node).replica(pid)->wal()->medium().durable(),
                    [&](const storage::WalRecord& rec) { out.push_back(rec); });
  return out;
}

bool has_commit_record(const std::vector<storage::WalRecord>& records,
                       const TxId& tx) {
  for (const storage::WalRecord& rec : records) {
    if (rec.type == storage::WalRecordType::kCommit && rec.tx == tx) {
      return true;
    }
  }
  return false;
}

TEST(Durability, CheckpointInsideTheCommitWindowKeepsTheLoggedCommit) {
  // With a decision quorum of 2 the coordinator's commit record is durable
  // a whole replica-group round trip before the decision is applied. A
  // checkpoint taken in that window snapshots the write as this node's own
  // uncommitted speculation, which replay presumes aborted: the rewrite must
  // carry the commit record forward, or the acknowledged write is lost at
  // the next crash.
  Cluster::Config cfg = wal_config(3, 2);
  cfg.protocol.durability.decision_quorum = 2;
  cfg.protocol.durability.checkpoint_min_bytes = 1;
  Cluster cluster(cfg);
  const Key key = key_at(0, 1);
  const PartitionId pid = PartitionMap::partition_of(key);
  cluster.load(key, "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key}, "new", w);
  storage::Wal& wal = *cluster.node(0).replica(pid)->wal();
  bool checkpointed = false;
  for (int ms = 0; ms < 1000 && !w.done; ++ms) {
    cluster.run_for(msec(1));
    if (!wal.idle() || !has_commit_record(durable_records(cluster, 0, pid),
                                          w.tx)) {
      continue;
    }
    // The commit record is durable, the decision not yet applied.
    ASSERT_FALSE(w.done);
    ASSERT_TRUE(cluster.node(0).replica(pid)->store().has_uncommitted(w.tx));
    cluster.node(0).replica(pid)->maintain(0, 0);
    checkpointed = true;
    break;
  }
  ASSERT_TRUE(checkpointed);
  const auto after = durable_records(cluster, 0, pid);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front().type, storage::WalRecordType::kCheckpoint);

  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);

  // Crash before the next maintenance tick could snapshot the applied
  // commit.
  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_EQ(r.reads[0].value, "new");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, CommitDecisionOutlivesItsRetentionWhileALogNeedsIt) {
  // Replay installs an own transaction's commit record only if its decision
  // survived. Here the partition log is never checkpointed (its floor is
  // out of reach) while the decision log is compacted every tick with a
  // 3 s retention: the decision must stay until the record is absorbed.
  Cluster::Config cfg = wal_config(2, 2);
  cfg.protocol.recovery.decision_log_retention = sec(3);
  cfg.protocol.durability.decision_log_max_bytes = 1;
  cfg.protocol.durability.checkpoint_min_bytes = 1 << 20;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "old");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
  // Later decisions keep the decision log growing, so it is compacted well
  // past the first decision's retention.
  for (int i = 0; i < 10; ++i) {
    TxProbe later;
    test::run_write(cluster, cluster.node(0).coordinator(),
                    {key_at(0, 2 + static_cast<Key>(i))}, "x", later);
    cluster.run_for(sec(1));
    ASSERT_EQ(later.result.outcome, TxOutcome::Committed);
  }
  EXPECT_GT(counter_value(cluster, "wal.checkpoints"), 1u);
  const auto records = durable_records(cluster, 0, 0);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().type,
            storage::WalRecordType::kCommit);  // never checkpointed

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  ASSERT_EQ(r.reads.size(), 1u);
  EXPECT_EQ(r.reads[0].value, "new");
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, CommitDecisionIsForgottenOnceRetentionPassesUnpinned) {
  // The other side of the rule above: a decision younger than the
  // retention always answers, and one past it is forgotten unless a
  // partition log still holds its commit record. Decisions are made once
  // a second; each is checked every second until well past the retention.
  // The preloaded rows make each checkpoint large, so the amortised rule
  // leaves commit records in the log for several seconds: some decisions
  // are still pinned when they cross the retention and must go later.
  Cluster::Config cfg = wal_config(2, 2);
  const Timestamp retention = sec(3);
  cfg.protocol.recovery.decision_log_retention = retention;
  cfg.protocol.durability.checkpoint_min_bytes = 1;
  Cluster cluster(cfg);
  const std::string value(200, 'v');
  for (Key row = 1; row <= 10; ++row) cluster.load(key_at(0, row), value);
  cluster.run_for(msec(10));
  Coordinator& coord = cluster.node(0).coordinator();
  auto pinned = [&](const TxId& tx) {
    for (const auto& [pid, actor] : cluster.node(0).replicas()) {
      for (const auto& [logged, ct] : actor->own_commit_records()) {
        if (logged == tx) return true;
      }
    }
    return false;
  };

  std::vector<TxProbe> probes(20);
  std::size_t forgotten = 0;
  std::size_t forgotten_after_pin = 0;
  std::vector<bool> was_pinned_past_retention(probes.size(), false);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    test::run_write(cluster, coord, {key_at(0, 1 + i % 3)}, value, probes[i]);
    cluster.run_for(sec(1));
    ASSERT_EQ(probes[i].result.outcome, TxOutcome::Committed);
    for (std::size_t j = 0; j <= i; ++j) {
      // finished_at trails the decision by at most the client hop; a
      // second of slack on either side absorbs it and the tick period.
      const Timestamp age = cluster.now() - probes[j].finished_at;
      const bool known = coord.find_decision(probes[j].tx, nullptr, nullptr);
      if (age + sec(1) < retention) {
        EXPECT_TRUE(known) << "decision " << j << " at step " << i;
      } else if (age > retention + sec(1)) {
        if (pinned(probes[j].tx)) {
          EXPECT_TRUE(known) << "pinned decision " << j << " at step " << i;
          was_pinned_past_retention[j] = true;
          continue;
        }
        EXPECT_FALSE(known) << "decision " << j << " at step " << i;
        forgotten += known ? 0 : 1;
        forgotten_after_pin += was_pinned_past_retention[j] && !known ? 1 : 0;
      }
    }
  }
  // The run did reach both kinds of expired decision.
  EXPECT_GT(forgotten, 0u);
  EXPECT_GT(forgotten_after_pin, 0u);
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

/// A 2-node cluster whose partition 0 holds `rows` preloaded rows of
/// `value_bytes` each, so its first checkpoint is far above `floor`.
Cluster::Config cadence_config(std::uint64_t floor) {
  Cluster::Config cfg = wal_config(2, 2);
  cfg.protocol.durability.checkpoint_min_bytes = floor;
  return cfg;
}

void load_rows(Cluster& cluster, std::uint64_t rows, std::size_t value_bytes) {
  for (std::uint64_t row = 1; row <= rows; ++row) {
    cluster.load(key_at(0, row), std::string(value_bytes, 'a'));
  }
}

/// One committed blind write of `value` to each of `keys` via node 0.
void commit_write(Cluster& cluster, std::vector<Key> keys, const Value& value) {
  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), std::move(keys),
                  value, w);
  cluster.run_for(sec(1));
  ASSERT_TRUE(w.done);
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);
}

TEST(Durability, CheckpointsGrowWithBytesAppendedNotWithTicks) {
  // Partition 0's snapshot (~40 KB) is far above the 1 KiB floor. Light
  // steady traffic appends a few hundred bytes per tick: the log is
  // checkpointed once, after the load, and not again until it has grown by
  // that snapshot — however many maintenance ticks pass.
  Cluster cluster(cadence_config(1024));
  load_rows(cluster, 400, 100);
  cluster.run_for(sec(3));  // one maintenance tick checkpoints the load
  const std::uint64_t after_load = counter_value(cluster, "wal.checkpoints");
  EXPECT_EQ(after_load, 2u);  // partition 0's master and slave logs

  for (int i = 0; i < 20; ++i) {  // 20 s: ten maintenance ticks
    commit_write(cluster, {key_at(0, 1 + static_cast<Key>(i))},
                 "light" + std::to_string(i));
  }
  EXPECT_EQ(counter_value(cluster, "wal.checkpoints"), after_load);

  // Rewriting every row appends more than a snapshot's worth of commit
  // records: now each log is checkpointed again.
  for (std::uint64_t base = 1; base <= 400; base += 50) {
    std::vector<Key> keys;
    for (std::uint64_t row = base; row < base + 50; ++row) {
      keys.push_back(key_at(0, row));
    }
    commit_write(cluster, keys, std::string(150, 'b'));
  }
  cluster.run_for(sec(3));
  EXPECT_GE(counter_value(cluster, "wal.checkpoints"), after_load + 2);
}

TEST(Durability, RestartedLogCountsFromItsLeadingCheckpoint) {
  // After a restart the log begins with the checkpoint it had before the
  // crash. Replay must pick up that checkpoint's size: otherwise the whole
  // log counts as appended and the idle node re-checkpoints at once.
  Cluster cluster(cadence_config(1024));
  load_rows(cluster, 400, 100);
  cluster.run_for(sec(3));
  const std::uint64_t before = counter_value(cluster, "wal.checkpoints");
  ASSERT_EQ(before, 2u);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(10));  // five idle maintenance ticks
  EXPECT_EQ(counter_value(cluster, "wal.checkpoints"), before);
  const auto records = durable_records(cluster, 0, 0);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().type, storage::WalRecordType::kCheckpoint);
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, ReplayOfACheckpointAndALongTailRestoresTheLiveStore) {
  // A checkpoint followed by dozens of commit records (the tail stays below
  // the snapshot's size, so no rewrite absorbs it): the restarted node must
  // serve exactly what it served before the crash.
  Cluster cluster(cadence_config(1024));
  constexpr std::uint64_t kRows = 200;
  load_rows(cluster, kRows, 100);
  cluster.run_for(sec(3));
  ASSERT_EQ(counter_value(cluster, "wal.checkpoints"), 2u);

  for (int i = 0; i < 40; ++i) {
    const std::uint64_t row = 1 + (static_cast<std::uint64_t>(i) * 7) % kRows;
    const std::uint64_t next = row % kRows + 1;
    commit_write(cluster, {key_at(0, row), key_at(0, next)},
                 "tail" + std::to_string(i));
  }
  const auto records = durable_records(cluster, 0, 0);
  ASSERT_GE(records.size(), 41u);
  EXPECT_EQ(records.front().type, storage::WalRecordType::kCheckpoint);

  std::vector<Key> keys;
  for (std::uint64_t row = 1; row <= kRows; ++row) {
    keys.push_back(key_at(0, row));
  }
  TxProbe live;
  test::run_reads(cluster, cluster.node(0).coordinator(), keys, live);
  cluster.run_for(sec(1));
  ASSERT_TRUE(live.done);
  ASSERT_EQ(live.reads.size(), kRows);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe replayed;
  test::run_reads(cluster, cluster.node(0).coordinator(), keys, replayed);
  cluster.run_for(sec(1));
  ASSERT_TRUE(replayed.done);
  ASSERT_EQ(replayed.reads.size(), kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(replayed.reads[i].value, live.reads[i].value) << "row " << i + 1;
  }
  EXPECT_TRUE(cluster.quiesce_report().clean());
}

TEST(Durability, WalOffRegistersNoWalCountersAndKeepsMagicDurability) {
  // The golden-determinism suite pins WAL-off byte-identity; this guards
  // the mechanism behind it — with durability off, no wal.* metric exists
  // (lazy registration) and a crashed node's store still "survives".
  Cluster::Config cfg = small_config(2, 2, ProtocolConfig::str());
  cfg.protocol.recovery.enabled = true;
  Cluster cluster(cfg);
  cluster.load(key_at(0, 1), "v");
  cluster.run_for(msec(10));

  TxProbe w;
  test::run_write(cluster, cluster.node(0).coordinator(), {key_at(0, 1)},
                  "new", w);
  cluster.run_for(sec(1));
  ASSERT_EQ(w.result.outcome, TxOutcome::Committed);

  const obs::Registry merged = cluster.merged_obs();
  EXPECT_EQ(merged.find_counter("wal.records"), nullptr);
  EXPECT_EQ(merged.find_counter("wal.replayed_records"), nullptr);

  cluster.crash_node(0);
  cluster.restart_node(0);
  cluster.run_for(sec(1));
  TxProbe r;
  test::run_reads(cluster, cluster.node(0).coordinator(), {key_at(0, 1)}, r);
  cluster.run_for(sec(1));
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.reads[0].value, "new");  // magic durability, as before
}

// ---------------------------------------------------------------------------
// Chaos acceptance with durability on: drops + dups + a partition window +
// a mid-run crash/restart + torn-write faults. Safety, liveness, replay
// actually running, and bit-identical determinism.

harness::ExperimentConfig wal_chaos_config(std::uint64_t seed,
                                           const std::string& metrics_out) {
  harness::ExperimentConfig cfg;
  cfg.cluster = small_config(3, 2, ProtocolConfig::str(), msec(100), seed);
  cfg.cluster.jitter_frac = 0.05;
  cfg.cluster.protocol.durability.wal_enabled = true;
  cfg.cluster.faults.link.drop_prob = 0.05;
  cfg.cluster.faults.link.dup_prob = 0.02;
  cfg.cluster.faults.storage.torn_write_prob = 0.5;
  cfg.cluster.faults.add_partition(0, 1, sec(3), sec(13));
  cfg.cluster.faults.add_crash(2, sec(4), sec(6));
  cfg.total_clients = 12;
  cfg.warmup = sec(1);
  cfg.duration = sec(8);
  cfg.drain = sec(3);
  cfg.verify = true;
  cfg.metrics_out = metrics_out;
  return cfg;
}

harness::WorkloadFactory synth_factory() {
  return [](Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(
        c, workload::SyntheticConfig::synth_a());
  };
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Durability, ChaosWithWalIsSafeLiveAndDeterministic) {
  const std::string out1 = testing::TempDir() + "wal_chaos_metrics_1.json";
  const std::string out2 = testing::TempDir() + "wal_chaos_metrics_2.json";

  const harness::ExperimentResult r1 =
      run_experiment(wal_chaos_config(4242, out1), synth_factory());
  EXPECT_GT(r1.commits, 0u);
  EXPECT_GT(r1.net_dropped, 0u);
  EXPECT_TRUE(r1.violations.empty()) << r1.violations.front();
  EXPECT_TRUE(r1.quiesce.clean())
      << "live=" << r1.quiesce.live_txns
      << " parked=" << r1.quiesce.parked_reads
      << " locks=" << r1.quiesce.uncommitted_txns
      << " orphans=" << r1.quiesce.orphans;

  const harness::ExperimentResult r2 =
      run_experiment(wal_chaos_config(4242, out2), synth_factory());
  ASSERT_TRUE(r1.exports_ok && r2.exports_ok);
  const std::string m1 = slurp(out1);
  ASSERT_FALSE(m1.empty());
  EXPECT_EQ(m1, slurp(out2));
  // The replay actually exercised the WAL (visible in the exported
  // metrics; both runs identical, so checking the bytes covers both).
  EXPECT_NE(m1.find("wal.records"), std::string::npos);
}

}  // namespace
}  // namespace str::protocol
