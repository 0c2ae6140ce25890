// Version pruning: the store-level GC contract and the cluster-wide
// stable-snapshot watermark that drives it.
//
// The store half pins down exactly what gc(horizon) may and may not remove:
// the newest committed version at or below the horizon survives (so any
// snapshot at or above the horizon still reads correctly), while
// speculative (pre-/local-committed) versions are never touched no matter
// how old — they are still subject to in-flight certification. The cluster
// half checks the safety invariant that makes watermark pruning
// behaviour-neutral: the published watermark never passes the snapshot of
// any live transaction or any parked/in-flight reader, and it is monotonic.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.hpp"
#include "protocol/cluster.hpp"
#include "store/mvstore.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

namespace str::store {
namespace {

const TxId kTx1{0, 1};
const TxId kTx2{0, 2};
const TxId kTx3{1, 1};

std::vector<std::pair<Key, SharedValue>> upd(Key k, Value v) {
  return {{k, std::make_shared<Value>(std::move(v))}};
}

/// load() + three committed writes: chain ts {0, 100, 200, 300}.
PartitionStore committed_chain() {
  PartitionStore s;
  s.load(1, "a");
  const TxId txs[] = {kTx1, kTx2, kTx3};
  const Timestamp ts[] = {100, 200, 300};
  const Value vals[] = {"b", "c", "d"};
  for (int i = 0; i < 3; ++i) {
    auto pr = s.prepare(txs[i], ts[i] - 50, upd(1, vals[i]),
                        /*precise=*/false, ts[i]);
    EXPECT_TRUE(pr.ok);
    s.final_commit(txs[i], ts[i]);
  }
  return s;
}

TEST(Pruning, GcKeepsNewestCommittedAtOrBelowHorizon) {
  PartitionStore s = committed_chain();
  ASSERT_EQ(s.stats().versions, 4u);

  s.gc(250);  // newest committed <= 250 is ts 200; ts 0 and 100 go
  EXPECT_EQ(s.stats().versions, 2u);
  EXPECT_EQ(s.stats().gc_removed, 2u);
  EXPECT_EQ(s.newest_committed_at_or_below(1, 250), 200u);

  // Any snapshot at or above the horizon reads exactly what it would have
  // read before pruning.
  EXPECT_EQ(s.peek(1, 250).value_str(), "c");
  EXPECT_EQ(s.peek(1, 299).value_str(), "c");
  EXPECT_EQ(s.peek(1, 300).value_str(), "d");
}

TEST(Pruning, ReadsBelowHorizonAreForfeit) {
  // The flip side of the contract — and the reason the watermark must never
  // pass a live reader: snapshots below the horizon lose their versions.
  PartitionStore s = committed_chain();
  ASSERT_EQ(s.peek(1, 150).value_str(), "b");
  s.gc(250);
  EXPECT_EQ(s.peek(1, 150).kind, ReadKind::NotFound);
}

TEST(Pruning, GcIsIdempotentAndKeepsSoleVersion) {
  PartitionStore s = committed_chain();
  s.gc(1000);  // only the newest committed version (ts 300) remains
  EXPECT_EQ(s.stats().versions, 1u);
  s.gc(1000);
  EXPECT_EQ(s.stats().versions, 1u);
  EXPECT_EQ(s.peek(1, 5000).value_str(), "d");
}

TEST(Pruning, UncommittedVersionsSurviveAnyHorizon) {
  PartitionStore s;
  s.load(1, "a");
  auto pr1 = s.prepare(kTx1, 50, upd(1, "b"), /*precise=*/false, 100);
  ASSERT_TRUE(pr1.ok);
  s.final_commit(kTx1, 100);

  // tx2 pre-commits at ts 200 and stays undecided; tx3 then replicates and
  // final-commits *above* it at ts 300, so gc sees a committed version
  // newer than the pre-commit.
  auto pr2 = s.prepare(kTx2, 150, upd(1, "c"), /*precise=*/false, 200);
  ASSERT_TRUE(pr2.ok);
  auto rr = s.replicate_insert(kTx3, upd(1, "d"), /*precise=*/false, 300);
  EXPECT_TRUE(rr.evicted.empty());  // pre-commits are never evicted
  s.replicate_finish(kTx3, upd(1, "d"), rr.proposed_ts);
  s.final_commit(kTx3, rr.proposed_ts);

  // Horizon far past everything: committed ts 0 and 100 are dominated and
  // go; the undecided pre-commit at ts 200 must survive.
  s.gc(100000);
  EXPECT_TRUE(s.has_uncommitted(kTx2));
  EXPECT_EQ(s.uncommitted_ts(kTx2), 200u);
  EXPECT_EQ(s.stats().versions, 2u);

  // It is still certifiable/decidable: committing it works as if no GC ran.
  s.final_commit(kTx2, 350);
  EXPECT_EQ(s.peek(1, 400).value_str(), "c");
}

TEST(Pruning, SpeculativeVersionsSurviveAnyHorizon) {
  PartitionStore s;
  s.load(1, "a");
  auto pr1 = s.prepare(kTx1, 50, upd(1, "b"), /*precise=*/false, 100);
  ASSERT_TRUE(pr1.ok);
  s.final_commit(kTx1, 100);

  auto pr2 = s.prepare(kTx2, 150, upd(1, "c"), /*precise=*/false, 200);
  ASSERT_TRUE(pr2.ok);
  s.local_commit(kTx2, 200);  // speculative: LocalCommitted, not final

  s.gc(100000);
  EXPECT_TRUE(s.has_uncommitted(kTx2));
  // A speculative reader above it still sees the local-committed value.
  auto r = s.peek(1, 250);
  EXPECT_EQ(r.kind, ReadKind::Speculative);
  EXPECT_EQ(r.value_str(), "c");
}

// -- candidate-list sweep vs the full-table sweep ----------------------------

/// The full-table GC, on a dump_versions() snapshot: every chain compacted
/// exactly as gc(horizon) specifies, whether or not it is on the store's
/// candidate list. Returns the number of versions removed.
std::uint64_t full_table_gc(std::vector<std::pair<Key, Version>>& dump,
                            Timestamp horizon) {
  std::vector<std::pair<Key, Version>> kept;
  std::uint64_t removed = 0;
  for (std::size_t begin = 0; begin < dump.size();) {
    std::size_t end = begin;
    while (end < dump.size() && dump[end].first == dump[begin].first) ++end;
    std::size_t keep_from = begin;
    for (std::size_t i = end; i-- > begin;) {
      const Version& v = dump[i].second;
      if (v.state == VersionState::Committed && v.ts <= horizon) {
        keep_from = i;
        break;
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (i < keep_from && dump[i].second.state == VersionState::Committed) {
        ++removed;
      } else {
        kept.push_back(dump[i]);
      }
    }
    begin = end;
  }
  dump = std::move(kept);
  return removed;
}

void expect_same_versions(const std::vector<std::pair<Key, Version>>& got,
                          const std::vector<std::pair<Key, Version>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "at " << i;
    EXPECT_EQ(got[i].second.ts, want[i].second.ts) << "at " << i;
    EXPECT_EQ(got[i].second.state, want[i].second.state) << "at " << i;
    EXPECT_EQ(got[i].second.writer, want[i].second.writer) << "at " << i;
    EXPECT_EQ(got[i].second.value, want[i].second.value) << "at " << i;
  }
}

/// Run gc(horizon) on `s` and check it against the full-table sweep.
void expect_gc_matches_full_sweep(PartitionStore& s, Timestamp horizon) {
  auto want = s.dump_versions();
  const std::uint64_t want_removed = full_table_gc(want, horizon);
  const std::uint64_t removed_before = s.stats().gc_removed;
  s.gc(horizon);
  EXPECT_EQ(s.stats().gc_removed - removed_before, want_removed);
  expect_same_versions(s.dump_versions(), want);
}

TEST(Pruning, CandidateListSweepMatchesFullTableSweep) {
  constexpr Key kKeys = 24;
  struct Live {
    TxId tx;
    bool local_committed;
  };
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    PartitionStore s;
    for (Key k = 0; k < kKeys; ++k) {
      if (rng.chance(0.7)) s.load(k, "init");  // the rest appear on write
    }
    std::vector<Live> live;
    std::uint64_t next_seq = 1;
    Timestamp clock = 10;
    auto random_updates = [&]() {
      std::vector<std::pair<Key, SharedValue>> updates;
      for (std::uint64_t n = rng.uniform_range(1, 3); n > 0; --n) {
        const Key k = rng.uniform(kKeys);
        if (std::none_of(updates.begin(), updates.end(),
                         [k](const auto& u) { return u.first == k; })) {
          updates.emplace_back(k, std::make_shared<Value>("v"));
        }
      }
      return updates;
    };
    auto pick_live = [&]() -> Live& { return live[rng.uniform(live.size())]; };
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      clock += rng.uniform_range(1, 20);
      switch (rng.uniform(9)) {
        case 0:
        case 1: {  // master prepare, sometimes chained on live speculation
          const TxId tx{0, next_seq++};
          FlatSet<TxId> chain;
          for (const Live& l : live) {
            if (l.local_committed && rng.chance(0.5)) chain.insert(l.tx);
          }
          const auto pr = s.prepare(
              tx, clock - rng.uniform(30), random_updates(), rng.chance(0.5),
              clock, chain.empty() ? nullptr : &chain);
          if (pr.ok) live.push_back({tx, false});
          break;
        }
        case 2: {  // slave replicate, evicting local speculation
          const TxId tx{1, next_seq++};
          const auto updates = random_updates();
          const auto rr =
              s.replicate_insert(tx, updates, rng.chance(0.5), clock);
          for (const TxId& evicted : rr.evicted) s.abort_tx(evicted);
          s.replicate_finish(tx, updates, rr.proposed_ts);
          live.push_back({tx, false});
          break;
        }
        case 3:
          if (!live.empty()) {
            Live& l = pick_live();
            if (!l.local_committed) {
              s.local_commit(l.tx, s.uncommitted_ts(l.tx) + rng.uniform(5));
              l.local_committed = true;
            }
          }
          break;
        case 4:
          if (!live.empty()) {
            const TxId tx = pick_live().tx;
            s.final_commit(tx, std::max(clock, s.uncommitted_ts(tx)));
          }
          break;
        case 5:
          if (!live.empty()) s.abort_tx(pick_live().tx);
          break;
        case 6: {  // replayed version, any state
          const auto state = static_cast<VersionState>(rng.uniform(3));
          const TxId tx{2, next_seq++};
          s.replay_insert(rng.uniform(kKeys),
                          Version{clock, state, tx,
                                  std::make_shared<Value>("r")});
          if (state != VersionState::Committed) {
            live.push_back({tx, state == VersionState::LocalCommitted});
          }
          break;
        }
        case 7:
          if (rng.chance(0.05)) {
            s.clear_all();
            live.clear();
          }
          break;
        case 8:
          expect_gc_matches_full_sweep(s, rng.uniform(clock + 10));
          break;
      }
      // Commits, aborts and evictions retire writers.
      std::erase_if(live,
                    [&](const Live& l) { return !s.has_uncommitted(l.tx); });
      // Whatever state the store is in, a sweep at any horizon must agree
      // with the full-table sweep (on a copy: the run itself goes on).
      PartitionStore probe = s;
      expect_gc_matches_full_sweep(probe, rng.uniform(clock + 10));
      if (HasFailure()) return;
    }
  }
}

// -- cluster-wide watermark --------------------------------------------------

protocol::Cluster::Config small_cluster_config(bool pruning) {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = 9;
  cfg.partitions_per_node = 1;
  cfg.replication_factor = 6;
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol = protocol::ProtocolConfig::str();
  cfg.protocol.watermark_pruning = pruning;
  cfg.protocol.gc_interval = msec(250);
  cfg.seed = 11;
  return cfg;
}

TEST(Pruning, WatermarkNeverPassesLiveReadersAndIsMonotonic) {
  protocol::Cluster cluster(small_cluster_config(true));
  workload::SyntheticWorkload wl(cluster, workload::SyntheticConfig::synth_a());
  wl.load(cluster);
  auto pool = workload::ClientPool::with_total(cluster, wl, 30);
  pool.start_all();

  // Probe the invariant between maintenance ticks for the whole run.
  std::size_t violations = 0;
  std::size_t probes = 0;
  Timestamp last_wm = 0;
  std::function<void()> probe;
  probe = [&]() {
    ++probes;
    const Timestamp wm = cluster.stable_watermark();
    if (wm < last_wm) ++violations;  // monotonicity
    last_wm = wm;
    for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
      auto& n = cluster.node(id);
      if (n.coordinator().min_active_rs() < wm) ++violations;
      for (auto& [pid, actor] : n.replicas()) {
        if (actor->min_reader_rs() < wm) ++violations;
      }
    }
    cluster.scheduler().schedule_after(msec(100), [&]() { probe(); });
  };
  cluster.scheduler().schedule_after(msec(100), [&]() { probe(); });

  cluster.run_for(sec(3));
  pool.request_stop_all();
  cluster.run_for(sec(1));

  EXPECT_EQ(violations, 0u);
  EXPECT_GT(probes, 20u);
  // The watermark actually advanced (it is not vacuously zero).
  EXPECT_GT(cluster.stable_watermark(), 0u);
}

TEST(Pruning, WatermarkPrunesMoreThanTimeHorizonAlone) {
  // Same seed, same workload; the only difference is the pruning policy.
  // Behaviour counters must match exactly (neutrality); GC accounting must
  // not (the watermark runs far ahead of the 4s time horizon in a 3s run).
  std::uint64_t removed[2], commits[2], reads[2];
  for (int on = 0; on < 2; ++on) {
    protocol::Cluster cluster(small_cluster_config(on == 1));
    workload::SyntheticWorkload wl(cluster,
                                   workload::SyntheticConfig::synth_a());
    wl.load(cluster);
    auto pool = workload::ClientPool::with_total(cluster, wl, 30);
    pool.start_all();
    cluster.run_for(sec(3));
    pool.request_stop_all();
    cluster.run_for(sec(1));
    obs::Registry merged = cluster.merged_obs();
    removed[on] = merged.counter("store.gc_removed").value();
    commits[on] = merged.counter("txn.commits").value();
    reads[on] = merged.counter("store.read.committed").value();
  }
  EXPECT_EQ(commits[0], commits[1]);
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_GT(removed[1], removed[0]);
}

}  // namespace
}  // namespace str::store
