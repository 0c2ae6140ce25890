// Multi-version storage for one partition replica (Algorithm 2's KVStore).
//
// Responsibilities:
//  * version chains per key, ordered by timestamp, with the
//    PreCommitted -> LocalCommitted -> Committed lifecycle;
//  * the per-key LastReader timestamp that implements Precise Clocks;
//  * write-write conflict certification (at most one uncommitted version
//    may exist per key at any time — the pre-commit lock);
//  * snapshot reads: the latest version with ts <= RS, classified as
//    directly readable, speculatively readable, or blocking;
//  * horizon-based garbage collection of committed versions, over a
//    candidate list of the keys that hold more than one version;
//  * storage accounting for the Precise Clocks overhead experiment (§6.1).
//
// The store is purely mechanical: all distribution, replication and
// dependency logic lives in the protocol layer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_set.hpp"
#include "common/open_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"
#include "store/version.hpp"

namespace str::store {

/// Outcome classification for a snapshot read (Alg. 2 lines 6-14).
enum class ReadKind : std::uint8_t {
  Committed,    ///< latest version <= RS is final committed: return it
  Speculative,  ///< latest version <= RS is local-committed: a speculative
                ///< read may observe it (if the protocol allows)
  Blocked,      ///< latest version <= RS is pre-committed: reader must wait
  NotFound,     ///< no version at or below RS exists
};

struct StoreReadResult {
  ReadKind kind = ReadKind::NotFound;
  SharedValue value;  ///< valid for Committed/Speculative (shared, not copied)
  TxId writer;        ///< writer of the version (Committed/Speculative/Blocked)
  Timestamp ts = 0;   ///< timestamp of the version

  /// Payload as a string (empty when absent) — test/assertion convenience.
  const Value& value_str() const {
    static const Value kEmpty;
    return value ? *value : kEmpty;
  }
};

struct PrepareResult {
  bool ok = false;
  Timestamp proposed_ts = 0;  ///< valid when ok
  TxId conflicting_writer;    ///< when !ok and the conflict is an uncommitted
                              ///< version: its writer (else kNoTx)
};

struct StoreStats {
  std::uint64_t keys = 0;
  std::uint64_t versions = 0;
  std::uint64_t value_bytes = 0;
  std::uint64_t gc_removed = 0;
  /// Longest version chain ever observed on any key (high-water mark; GC
  /// trims chains but never rewinds this). The §5 storage-overhead
  /// discussion and bench_core_speed report it as "peak versions/key".
  std::uint64_t peak_chain = 0;
};

class PartitionStore {
 public:
  /// Insert initial data as a committed version at timestamp 0.
  void load(Key key, Value value);

  /// Snapshot read at `rs`. Updates LastReader as a side effect (Alg. 2 l.6).
  StoreReadResult read(Key key, Timestamp rs);

  /// Snapshot read that does NOT bump LastReader. Used when re-serving a
  /// parked read whose LastReader update already happened on first arrival.
  StoreReadResult peek(Key key, Timestamp rs) const;

  /// Write-write certification for `tx` updating `keys` against snapshot
  /// `rs` (Alg. 2 prepare, lines 15-21). On success inserts pre-committed
  /// versions and returns the proposed prepare timestamp:
  ///   precise clocks: max(LastReader+1) over the updated keys,
  ///   physical clocks: the caller-supplied `physical_now`.
  /// Both rules are clamped above any existing version timestamp on the keys
  /// so version chains stay ordered even for blind writes.
  ///
  /// `chain_allowed`, when non-null, lists transactions `tx` data-depends on:
  /// their local-committed versions with ts <= rs are part of tx's
  /// speculative snapshot and therefore *not* concurrent conflicts — tx may
  /// pre-commit "on top" of them. (If such a dependency later final-commits
  /// past tx's snapshot or aborts, tx is aborted by the dependency rules, so
  /// chaining never violates SPSI-2/3.)
  PrepareResult prepare(const TxId& tx, Timestamp rs,
                        const std::vector<std::pair<Key, SharedValue>>& updates,
                        bool precise_clocks, Timestamp physical_now,
                        const FlatSet<TxId>* chain_allowed = nullptr);

  struct ReplicateResult {
    Timestamp proposed_ts = 0;
    /// Local-committed writers whose versions conflicted with the replicated
    /// pre-commit; the caller must abort them (Alg. 2 line 31).
    std::vector<TxId> evicted;
  };

  /// Slave-side insert of a master-certified pre-commit (Alg. 2 lines
  /// 30-35). Never refuses: the master already serialized certification.
  /// Conflicting local-committed versions (this node's own speculation) are
  /// evicted and their writers reported for cascading abort.
  ReplicateResult replicate_insert(
      const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
      bool precise_clocks, Timestamp physical_now);

  /// Second half of the replicate path, run after the caller aborted the
  /// evicted writers: inserts the pre-committed versions and returns the
  /// final proposal (clamped above surviving versions).
  Timestamp replicate_finish(
      const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
      Timestamp proposed);

  /// Transition tx's versions PreCommitted -> LocalCommitted at LC.
  void local_commit(const TxId& tx, Timestamp lc);

  /// Transition tx's versions to Committed at FC.
  void final_commit(const TxId& tx, Timestamp fc);

  /// Remove all versions written by tx (pre- or local-committed).
  void abort_tx(const TxId& tx);

  /// True if `tx` currently has uncommitted versions here.
  bool has_uncommitted(const TxId& tx) const;

  /// Prepare timestamp of tx's uncommitted versions (max over its keys);
  /// 0 when tx holds nothing here. Lets a participant re-answer a duplicated
  /// or re-sent prepare/replicate without re-inserting versions — including
  /// after a crash, since the prepared state is durable (2PC participants
  /// force-write their prepare record) while the reply caches are not.
  Timestamp uncommitted_ts(const TxId& tx) const;

  /// Writers currently holding uncommitted versions, sorted by TxId so
  /// crash-recovery iteration is deterministic.
  std::vector<TxId> uncommitted_txns() const;

  /// Number of transactions holding pre-commit locks here (leak probe).
  std::size_t uncommitted_txn_count() const { return uncommitted_.size(); }

  /// Largest committed timestamp <= `horizon` on `key`'s chain, or 0. Lets
  /// maintenance probe how far a key could be pruned (tests/debugging).
  Timestamp newest_committed_at_or_below(Key key, Timestamp horizon) const;

  /// Uncommitted writers holding versions on any of `keys` (conflict probe).
  std::vector<TxId> uncommitted_writers(const std::vector<Key>& keys) const;

  /// Remove committed versions strictly older than the newest committed
  /// version at or below `horizon`; that newest one is retained so any
  /// reader with RS >= horizon still finds its snapshot. Uncommitted
  /// versions are never removed. The sweep visits only the candidate list
  /// (every key whose chain holds two or more versions), not the whole key
  /// table, so a tick costs what there is to prune; the result is exactly
  /// that of compacting every chain in the table.
  void gc(Timestamp horizon);

  Timestamp last_reader(Key key) const;

  // -- WAL support (docs/DURABILITY.md) -------------------------------------

  /// `tx`'s uncommitted (key, payload) pairs in this store, in the order the
  /// keys were prepared — exactly what a WAL prepare/commit record needs.
  std::vector<std::pair<Key, SharedValue>> uncommitted_updates(
      const TxId& tx) const;

  /// Every version in the store, sorted by (key, chain position): the
  /// checkpoint snapshot. LastReader timestamps are intentionally absent —
  /// they are volatile, and set_ts_floor() makes losing them safe.
  std::vector<std::pair<Key, Version>> dump_versions() const;

  /// Wipe everything (crash teardown in WAL mode; replay rebuilds).
  /// Cumulative counters (gc_removed, peak_chain) survive.
  void clear_all();

  /// Insert a replayed version directly, bypassing certification (the log
  /// already certified it). Non-Committed versions re-acquire the pre-commit
  /// lock bookkeeping.
  void replay_insert(Key key, Version v);

  /// Lower-bound every future prepare/replicate proposal above `floor`.
  /// Replay calls this with the restart-time physical clock: the LastReader
  /// table died with the crash, so without the floor a post-restart proposal
  /// could land inside a snapshot served before the crash.
  void set_ts_floor(Timestamp floor) { ts_floor_ = std::max(ts_floor_, floor); }

  /// Attach a metrics registry (the owning node's): read-outcome and
  /// certification counters are resolved once and bumped inline afterwards.
  void set_registry(obs::Registry* registry);

  StoreStats stats() const;

  /// Bytes of user data + per-version metadata; `include_last_reader` adds
  /// the 8-byte Precise Clocks timestamp per key (for the §6.1 overhead
  /// measurement).
  std::uint64_t storage_bytes(bool include_last_reader) const;

 private:
  /// A chain of 2 (the committed version plus one in-flight pre-commit —
  /// the overwhelmingly common case) lives inline in the key-table slot, so
  /// the standard write lifecycle allocates nothing per key.
  using VersionChain = SmallVec<Version, 2>;

  struct KeyEntry {
    VersionChain versions;  ///< sorted ascending by ts
    Timestamp last_reader = 0;
    /// Number of non-Committed versions in the chain. Lets reads skip the
    /// uncommitted-below-committed scan (§5.1's wait rule) on the common
    /// all-committed path.
    std::uint32_t uncommitted_count = 0;
    /// True while the key sits on `gc_keys_`.
    bool gc_listed = false;
  };

  /// Insert keeping the chain sorted (versions mostly append); lists the
  /// key for GC when its chain reaches two versions.
  void insert_sorted(Key key, KeyEntry& entry, Version v);

  /// Re-sort a single element whose ts just changed, in place (state
  /// transitions re-timestamp one version; a rotate beats erase+insert).
  static void reposition(VersionChain& chain, VersionChain::iterator vit);

  /// Flat open-addressing table: entries (chain included, up to the inline
  /// capacity) live in the slot array, so first-touch inserts on the write
  /// and read paths allocate nothing in steady state.
  OpenMap<Key, KeyEntry, std::hash<Key>> map_;
  /// writer -> keys with an uncommitted version, for fast state transitions.
  /// A flat vector (few writers hold locks on one partition replica at a
  /// time) whose per-writer key vectors recycle through `key_pool_`, so the
  /// steady-state prepare/commit cycle allocates nothing here.
  struct UncommittedEntry {
    TxId tx;
    std::vector<Key> keys;
  };
  std::vector<UncommittedEntry> uncommitted_;
  std::vector<std::vector<Key>> key_pool_;

  /// Find-or-create the entry for `tx` (keys vector reused from the pool).
  std::vector<Key>& uncommitted_keys(const TxId& tx);
  const UncommittedEntry* find_uncommitted(const TxId& tx) const;
  /// Drop `tx`'s entry (swap-erase; order is irrelevant, every ordered
  /// consumer sorts), recycling its keys vector.
  void erase_uncommitted(const TxId& tx);
  /// GC candidates. Invariant: every key whose chain holds two or more
  /// versions is listed exactly once (its entry's gc_listed flag set). Only
  /// insert_sorted grows a chain past one version, so it is the one place
  /// that appends; gc() drops keys it leaves at one version or none, which
  /// also catches chains that abort_tx shrank since the last sweep. A key
  /// may therefore sit here with a short chain, never the other way round.
  std::vector<Key> gc_keys_;
  std::uint64_t gc_removed_ = 0;
  std::uint64_t peak_chain_ = 0;
  /// 0 = inactive (WAL-off runs never touch it; behaviour byte-identical).
  Timestamp ts_floor_ = 0;

  void count_read(ReadKind kind);

  obs::Counter* c_read_committed_ = nullptr;
  obs::Counter* c_read_speculative_ = nullptr;
  obs::Counter* c_read_blocked_ = nullptr;
  obs::Counter* c_read_notfound_ = nullptr;
  obs::Counter* c_prepare_conflicts_ = nullptr;
  obs::Counter* c_versions_inserted_ = nullptr;
  obs::Counter* c_gc_removed_ = nullptr;
};

}  // namespace str::store
