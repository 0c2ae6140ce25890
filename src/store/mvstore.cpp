#include "store/mvstore.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace str::store {

void PartitionStore::load(Key key, Value value) {
  KeyEntry& entry = map_[key];
  STR_ASSERT_MSG(entry.versions.empty(), "load on an already-populated key");
  entry.versions.push_back(Version{0, VersionState::Committed, kNoTx,
                                   std::make_shared<Value>(std::move(value))});
  peak_chain_ = std::max<std::uint64_t>(peak_chain_, 1);
}

void PartitionStore::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    c_read_committed_ = c_read_speculative_ = c_read_blocked_ = nullptr;
    c_read_notfound_ = c_prepare_conflicts_ = c_versions_inserted_ = nullptr;
    c_gc_removed_ = nullptr;
    return;
  }
  c_read_committed_ = &registry->counter("store.read.committed");
  c_read_speculative_ = &registry->counter("store.read.speculative");
  c_read_blocked_ = &registry->counter("store.read.blocked");
  c_read_notfound_ = &registry->counter("store.read.notfound");
  c_prepare_conflicts_ = &registry->counter("store.prepare_conflicts");
  c_versions_inserted_ = &registry->counter("store.versions_inserted");
  c_gc_removed_ = &registry->counter("store.gc_removed");
}

void PartitionStore::count_read(ReadKind kind) {
  if (c_read_committed_ == nullptr) return;
  switch (kind) {
    case ReadKind::Committed: c_read_committed_->inc(); break;
    case ReadKind::Speculative: c_read_speculative_->inc(); break;
    case ReadKind::Blocked: c_read_blocked_->inc(); break;
    case ReadKind::NotFound: c_read_notfound_->inc(); break;
  }
}

StoreReadResult PartitionStore::read(Key key, Timestamp rs) {
  KeyEntry* found = map_.find(key);
  if (found == nullptr) {
    // Track the reader even for missing keys: a later insert of this key
    // must still be serialized after us (write-after-read on a phantom).
    KeyEntry& entry = map_[key];
    entry.last_reader = std::max(entry.last_reader, rs);
    count_read(ReadKind::NotFound);
    return StoreReadResult{};
  }
  found->last_reader = std::max(found->last_reader, rs);
  StoreReadResult out = peek(key, rs);
  count_read(out.kind);
  return out;
}

StoreReadResult PartitionStore::peek(Key key, Timestamp rs) const {
  const KeyEntry* entry = map_.find(key);
  if (entry == nullptr) return StoreReadResult{};
  const auto& chain = entry->versions;
  if (chain.empty()) return StoreReadResult{};
  // Latest-committed fast path: under watermark pruning the chain usually
  // holds exactly the newest committed version, and most snapshots sit
  // above it. One branch resolves the read with no scan and no §5.1
  // wait-rule walk (the per-key uncommitted counter vouches for it).
  if (const Version& newest = chain.back();
      newest.state == VersionState::Committed && newest.ts <= rs &&
      entry->uncommitted_count == 0) {
    StoreReadResult out;
    out.writer = newest.writer;
    out.ts = newest.ts;
    out.kind = ReadKind::Committed;
    out.value = newest.value;
    return out;
  }
  // Latest version with ts <= rs. Reverse linear scan: snapshots mostly sit
  // near the newest versions. Chains are short where GC keeps up, but not
  // everywhere: a hot key (synth-hot's single local hotspot) carries every
  // version its in-flight speculation and unpruned readers still need.
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (rit->ts > rs) continue;
    StoreReadResult out;
    out.writer = rit->writer;
    out.ts = rit->ts;
    switch (rit->state) {
      case VersionState::Committed: {
        // §5.1's wait rule applies to *any* uncommitted version at or below
        // the snapshot, not only the newest: an uncommitted version carries
        // its prepare proposal, which only lower-bounds its final commit
        // timestamp — it may yet commit above this committed version but
        // inside the snapshot (chained writers commit in dependency order,
        // while slave-side proposals are clamped only against pre-commit
        // timestamps). Reading past it would be a stale read, so block on
        // the newest such version instead. The per-key uncommitted counter
        // short-circuits the scan on the common all-committed path.
        if (entry->uncommitted_count == 0) {
          out.kind = ReadKind::Committed;
          out.value = rit->value;
          return out;
        }
        for (auto below = std::next(rit); below != chain.rend(); ++below) {
          if (below->state != VersionState::Committed) {
            out.writer = below->writer;
            out.ts = below->ts;
            out.kind = ReadKind::Blocked;
            return out;
          }
        }
        out.kind = ReadKind::Committed;
        out.value = rit->value;
        break;
      }
      case VersionState::LocalCommitted:
        out.kind = ReadKind::Speculative;
        out.value = rit->value;
        break;
      case VersionState::PreCommitted:
        out.kind = ReadKind::Blocked;
        break;
    }
    return out;
  }
  return StoreReadResult{};
}

std::vector<Key>& PartitionStore::uncommitted_keys(const TxId& tx) {
  for (UncommittedEntry& e : uncommitted_) {
    if (e.tx == tx) return e.keys;
  }
  UncommittedEntry& e = uncommitted_.emplace_back();
  e.tx = tx;
  if (!key_pool_.empty()) {
    e.keys = std::move(key_pool_.back());
    key_pool_.pop_back();
  }
  return e.keys;
}

const PartitionStore::UncommittedEntry* PartitionStore::find_uncommitted(
    const TxId& tx) const {
  for (const UncommittedEntry& e : uncommitted_) {
    if (e.tx == tx) return &e;
  }
  return nullptr;
}

void PartitionStore::erase_uncommitted(const TxId& tx) {
  for (UncommittedEntry& e : uncommitted_) {
    if (e.tx == tx) {
      e.keys.clear();
      key_pool_.push_back(std::move(e.keys));
      e = std::move(uncommitted_.back());
      uncommitted_.pop_back();
      return;
    }
  }
}

PrepareResult PartitionStore::prepare(
    const TxId& tx, Timestamp rs,
    const std::vector<std::pair<Key, SharedValue>>& updates,
    bool precise_clocks, Timestamp physical_now,
    const FlatSet<TxId>* chain_allowed) {
  // Certification pass: no uncommitted version by a concurrent writer may
  // exist on any updated key, and no committed version newer than our
  // snapshot. Local-committed versions inside tx's speculative snapshot
  // (chain_allowed) are not concurrent.
  for (const auto& [key, value] : updates) {
    const KeyEntry* entry = map_.find(key);
    if (entry == nullptr) continue;
    for (const Version& v : entry->versions) {
      if (v.writer == tx) continue;  // idempotent re-prepare
      if (v.state == VersionState::Committed) {
        if (v.ts > rs) {
          if (c_prepare_conflicts_ != nullptr) c_prepare_conflicts_->inc();
          return PrepareResult{false, 0, kNoTx};
        }
        continue;
      }
      const bool chained = v.state == VersionState::LocalCommitted &&
                           v.ts <= rs && chain_allowed != nullptr &&
                           chain_allowed->contains(v.writer);
      if (!chained) {
        if (c_prepare_conflicts_ != nullptr) c_prepare_conflicts_->inc();
        return PrepareResult{false, 0, v.writer};
      }
    }
  }
  // Timestamp proposal (Precise Clocks rule from §5.3, or the physical-clock
  // rule of Clock-SI/Spanner), clamped above existing versions.
  Timestamp proposed = precise_clocks ? 0 : physical_now;
  for (const auto& [key, value] : updates) {
    KeyEntry& entry = map_[key];
    if (precise_clocks) {
      proposed = std::max(proposed, entry.last_reader + 1);
    }
    if (!entry.versions.empty()) {
      proposed = std::max(proposed, entry.versions.back().ts + 1);
    }
  }
  if (ts_floor_ > 0) proposed = std::max(proposed, ts_floor_ + 1);
  // Insert pre-committed versions at the proposed timestamp.
  std::vector<Key>& mine = uncommitted_keys(tx);
  for (const auto& [key, value] : updates) {
    KeyEntry& entry = map_[key];
    insert_sorted(key, entry,
                  Version{proposed, VersionState::PreCommitted, tx, value});
    ++entry.uncommitted_count;
    mine.push_back(key);
  }
  if (c_versions_inserted_ != nullptr) c_versions_inserted_->inc(updates.size());
  return PrepareResult{true, proposed, kNoTx};
}

PartitionStore::ReplicateResult PartitionStore::replicate_insert(
    const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
    bool precise_clocks, Timestamp physical_now) {
  ReplicateResult out;
  // Evict conflicting local speculation: the master-certified pre-commit is
  // authoritative, so this node's own local-committed writers on these keys
  // lose (Alg. 2 line 31). Pre-committed versions from other replicated
  // transactions are master-approved chains and stay.
  for (const auto& [key, value] : updates) {
    const KeyEntry* entry = map_.find(key);
    if (entry == nullptr) continue;
    for (const Version& v : entry->versions) {
      if (v.writer == tx) continue;
      if (v.state == VersionState::LocalCommitted &&
          std::find(out.evicted.begin(), out.evicted.end(), v.writer) ==
              out.evicted.end()) {
        out.evicted.push_back(v.writer);
      }
    }
  }
  // Note: the caller aborts the evicted writers (which removes their
  // versions, possibly cascading) before we insert and propose.
  Timestamp proposed = precise_clocks ? 0 : physical_now;
  for (const auto& [key, value] : updates) {
    KeyEntry& entry = map_[key];
    if (precise_clocks) proposed = std::max(proposed, entry.last_reader + 1);
  }
  if (ts_floor_ > 0) proposed = std::max(proposed, ts_floor_ + 1);
  out.proposed_ts = proposed;
  return out;
}

/// Completes replicate_insert after evictions: inserts the pre-committed
/// versions at a timestamp clamped above the surviving chain.
Timestamp PartitionStore::replicate_finish(
    const TxId& tx, const std::vector<std::pair<Key, SharedValue>>& updates,
    Timestamp proposed) {
  for (const auto& [key, value] : updates) {
    KeyEntry& entry = map_[key];
    if (!entry.versions.empty()) {
      proposed = std::max(proposed, entry.versions.back().ts + 1);
    }
  }
  std::vector<Key>& mine = uncommitted_keys(tx);
  for (const auto& [key, value] : updates) {
    KeyEntry& entry = map_[key];
    insert_sorted(key, entry,
                  Version{proposed, VersionState::PreCommitted, tx, value});
    ++entry.uncommitted_count;
    mine.push_back(key);
  }
  if (c_versions_inserted_ != nullptr) c_versions_inserted_->inc(updates.size());
  return proposed;
}

void PartitionStore::local_commit(const TxId& tx, Timestamp lc) {
  const UncommittedEntry* e = find_uncommitted(tx);
  if (e == nullptr) return;
  for (Key key : e->keys) {
    auto& chain = map_[key].versions;
    for (auto vit = chain.begin(); vit != chain.end(); ++vit) {
      if (vit->writer == tx) {
        STR_ASSERT(vit->state == VersionState::PreCommitted);
        vit->state = VersionState::LocalCommitted;
        vit->ts = lc;
        reposition(chain, vit);
        break;
      }
    }
  }
}

void PartitionStore::final_commit(const TxId& tx, Timestamp fc) {
  const UncommittedEntry* e = find_uncommitted(tx);
  if (e == nullptr) return;
  for (Key key : e->keys) {
    KeyEntry& entry = map_[key];
    auto& chain = entry.versions;
    for (auto vit = chain.begin(); vit != chain.end(); ++vit) {
      if (vit->writer == tx) {
        STR_ASSERT(vit->state != VersionState::Committed);
        vit->state = VersionState::Committed;
        vit->ts = fc;
        reposition(chain, vit);
        STR_ASSERT(entry.uncommitted_count > 0);
        --entry.uncommitted_count;
        break;
      }
    }
  }
  erase_uncommitted(tx);
}

void PartitionStore::abort_tx(const TxId& tx) {
  const UncommittedEntry* e = find_uncommitted(tx);
  if (e == nullptr) return;
  for (Key key : e->keys) {
    KeyEntry& entry = map_[key];
    auto& chain = entry.versions;
    auto keep = std::remove_if(chain.begin(), chain.end(), [&](const Version& v) {
      return v.writer == tx && v.state != VersionState::Committed;
    });
    const auto removed = static_cast<std::uint32_t>(chain.end() - keep);
    chain.erase(keep, chain.end());
    STR_ASSERT(entry.uncommitted_count >= removed);
    entry.uncommitted_count -= removed;
  }
  erase_uncommitted(tx);
}

bool PartitionStore::has_uncommitted(const TxId& tx) const {
  return find_uncommitted(tx) != nullptr;
}

Timestamp PartitionStore::uncommitted_ts(const TxId& tx) const {
  const UncommittedEntry* e = find_uncommitted(tx);
  if (e == nullptr) return 0;
  Timestamp ts = 0;
  for (Key key : e->keys) {
    const KeyEntry* entry = map_.find(key);
    if (entry == nullptr) continue;
    for (const Version& v : entry->versions) {
      if (v.writer == tx && v.state != VersionState::Committed) {
        ts = std::max(ts, v.ts);
      }
    }
  }
  return ts;
}

std::vector<TxId> PartitionStore::uncommitted_txns() const {
  std::vector<TxId> txns;
  txns.reserve(uncommitted_.size());
  for (const UncommittedEntry& e : uncommitted_) txns.push_back(e.tx);
  std::sort(txns.begin(), txns.end());
  return txns;
}

std::vector<TxId> PartitionStore::uncommitted_writers(
    const std::vector<Key>& keys) const {
  std::vector<TxId> writers;
  for (Key key : keys) {
    const KeyEntry* entry = map_.find(key);
    if (entry == nullptr) continue;
    for (const Version& v : entry->versions) {
      if (v.state != VersionState::Committed &&
          std::find(writers.begin(), writers.end(), v.writer) == writers.end()) {
        writers.push_back(v.writer);
      }
    }
  }
  return writers;
}

void PartitionStore::gc(Timestamp horizon) {
  const std::uint64_t removed_before = gc_removed_;
  // Keys off the list hold at most one version: nothing to prune there.
  // Chains are independent, so the visiting order does not matter.
  std::size_t listed = 0;
  for (Key key : gc_keys_) {
    KeyEntry* entry = map_.find(key);
    STR_ASSERT(entry != nullptr);  // keys leave map_ only via clear_all
    auto& chain = entry->versions;
    // Find the newest committed version at or below the horizon; everything
    // committed strictly older than it is unreachable for any reader with
    // RS >= horizon.
    std::size_t keep_from = 0;
    for (std::size_t i = chain.size(); i-- > 0;) {
      if (chain[i].state == VersionState::Committed && chain[i].ts <= horizon) {
        keep_from = i;
        break;
      }
    }
    if (keep_from != 0) {
      // Only drop committed versions below keep_from (uncommitted ones are
      // still subject to in-flight certification). Compact in place: the
      // chain keeps its capacity, so post-GC inserts don't regrow it.
      std::size_t out = 0;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (i < keep_from && chain[i].state == VersionState::Committed) {
          ++gc_removed_;
          continue;
        }
        if (out != i) chain[out] = std::move(chain[i]);
        ++out;
      }
      chain.resize(out);
    }
    if (chain.size() <= 1) {
      entry->gc_listed = false;
    } else {
      gc_keys_[listed++] = key;
    }
  }
  gc_keys_.resize(listed);
  if (c_gc_removed_ != nullptr) c_gc_removed_->inc(gc_removed_ - removed_before);
}

Timestamp PartitionStore::last_reader(Key key) const {
  const KeyEntry* entry = map_.find(key);
  return entry == nullptr ? 0 : entry->last_reader;
}

std::vector<std::pair<Key, SharedValue>> PartitionStore::uncommitted_updates(
    const TxId& tx) const {
  std::vector<std::pair<Key, SharedValue>> updates;
  const UncommittedEntry* e = find_uncommitted(tx);
  if (e == nullptr) return updates;
  updates.reserve(e->keys.size());
  for (Key key : e->keys) {
    const KeyEntry* entry = map_.find(key);
    if (entry == nullptr) continue;
    for (const Version& v : entry->versions) {
      if (v.writer == tx && v.state != VersionState::Committed) {
        updates.emplace_back(key, v.value);
        break;
      }
    }
  }
  return updates;
}

std::vector<std::pair<Key, Version>> PartitionStore::dump_versions() const {
  std::vector<std::pair<Key, Version>> out;
  for (const auto& slot : map_) {
    for (const Version& v : slot.value.versions) {
      out.emplace_back(slot.key, v);
    }
  }
  // OpenMap iteration order is insertion-history-dependent; checkpoints must
  // be byte-deterministic, so sort by key (chain position breaks ties —
  // stable_sort keeps each chain's ascending-ts order).
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void PartitionStore::clear_all() {
  map_.clear();
  gc_keys_.clear();
  for (UncommittedEntry& e : uncommitted_) {
    e.keys.clear();
    key_pool_.push_back(std::move(e.keys));
  }
  uncommitted_.clear();
}

void PartitionStore::replay_insert(Key key, Version v) {
  KeyEntry& entry = map_[key];
  if (v.state != VersionState::Committed) {
    uncommitted_keys(v.writer).push_back(key);
    ++entry.uncommitted_count;
  }
  insert_sorted(key, entry, std::move(v));
}

StoreStats PartitionStore::stats() const {
  StoreStats s;
  s.keys = map_.size();
  s.gc_removed = gc_removed_;
  s.peak_chain = peak_chain_;
  for (const auto& slot : map_) {
    s.versions += slot.value.versions.size();
    for (const Version& v : slot.value.versions) {
      s.value_bytes += v.value ? v.value->size() : 0;
    }
  }
  return s;
}

std::uint64_t PartitionStore::storage_bytes(bool include_last_reader) const {
  // Per version: value payload + timestamp + state + writer id.
  constexpr std::uint64_t kVersionOverhead =
      sizeof(Timestamp) + sizeof(VersionState) + sizeof(TxId);
  std::uint64_t bytes = 0;
  for (const auto& slot : map_) {
    bytes += sizeof(Key);
    if (include_last_reader) bytes += sizeof(Timestamp);
    for (const Version& v : slot.value.versions) {
      bytes += kVersionOverhead + (v.value ? v.value->size() : 0);
    }
  }
  return bytes;
}

Timestamp PartitionStore::newest_committed_at_or_below(
    Key key, Timestamp horizon) const {
  const KeyEntry* entry = map_.find(key);
  if (entry == nullptr) return 0;
  Timestamp best = 0;
  for (const Version& v : entry->versions) {
    if (v.state == VersionState::Committed && v.ts <= horizon) {
      best = std::max(best, v.ts);
    }
  }
  return best;
}

void PartitionStore::reposition(VersionChain& chain,
                                VersionChain::iterator vit) {
  // Slide *vit to its sorted slot in place (one rotate instead of the
  // erase + shifted re-insert). Stable: the element lands after every other
  // version with the same timestamp, exactly where insert_sorted would have
  // put it after an erase.
  auto dst = std::upper_bound(
      chain.begin(), chain.end(), vit->ts,
      [](Timestamp ts, const Version& existing) { return ts < existing.ts; });
  if (dst > vit + 1) {
    std::rotate(vit, vit + 1, dst);
  } else if (dst < vit) {
    std::rotate(dst, vit, vit + 1);
  }
}

void PartitionStore::insert_sorted(Key key, KeyEntry& entry, Version v) {
  auto& chain = entry.versions;
  auto pos = std::upper_bound(
      chain.begin(), chain.end(), v.ts,
      [](Timestamp ts, const Version& existing) { return ts < existing.ts; });
  chain.insert(pos, std::move(v));
  peak_chain_ = std::max<std::uint64_t>(peak_chain_, chain.size());
  if (chain.size() >= 2 && !entry.gc_listed) {
    entry.gc_listed = true;
    gc_keys_.push_back(key);
  }
}

}  // namespace str::store
