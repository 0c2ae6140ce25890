#include "verify/spsi_checker.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/assert.hpp"

namespace str::verify {

namespace {

std::string tx_str(const TxId& tx) {
  std::ostringstream os;
  os << "tx(" << tx.node << ":" << tx.seq << ")";
  return os.str();
}

}  // namespace

SpsiChecker::SpsiChecker(const HistoryRecorder& history, CheckOptions options)
    : h_(history), options_(options) {
  const_cast<HistoryRecorder&>(h_).index();
  build_indexes();
}

void SpsiChecker::build_indexes() {
  for (const WriteSetEvent& c : h_.final_commits()) {
    for (Key k : c.keys) {
      committed_writes_[k].push_back(CommittedWrite{c.tx, c.ts});
    }
  }
  for (auto& [key, writes] : committed_writes_) {
    std::sort(writes.begin(), writes.end(),
              [](const CommittedWrite& a, const CommittedWrite& b) {
                return a.fc < b.fc;
              });
  }
  indexed_ = true;
}

std::vector<std::string> SpsiChecker::check_all() {
  std::vector<std::string> out;
  using CheckFn = std::vector<std::string> (SpsiChecker::*)();
  constexpr CheckFn kChecks[] = {&SpsiChecker::check_snapshot_reads,
                                 &SpsiChecker::check_speculative_reads,
                                 &SpsiChecker::check_snapshot_atomicity,
                                 &SpsiChecker::check_ww_disjoint,
                                 &SpsiChecker::check_snapshot_conflicts,
                                 &SpsiChecker::check_dependencies};
  for (CheckFn fn : kChecks) {
    auto part = (this->*fn)();
    out.insert(out.end(), part.begin(), part.end());
    if (out.size() >= options_.max_violations) break;
  }
  return out;
}

std::vector<std::string> SpsiChecker::check_snapshot_reads() {
  std::vector<std::string> out;
  for (const ReadEvent& r : h_.reads()) {
    if (r.writer_state != VersionState::Committed) continue;
    const BeginEvent* begin = h_.begin_of(r.reader);
    if (begin == nullptr) continue;
    if (r.writer.valid() && r.version_ts > begin->rs) {
      out.push_back(tx_str(r.reader) + " observed committed version of key " +
                    std::to_string(r.key) + " with ts " +
                    std::to_string(r.version_ts) + " beyond its snapshot " +
                    std::to_string(begin->rs));
      if (out.size() >= options_.max_violations) return out;
      continue;
    }
    // Freshness: no other committed write of the key in (version_ts, RS]
    // that was already committed when the read was served.
    auto it = committed_writes_.find(r.key);
    if (it == committed_writes_.end()) continue;
    for (const CommittedWrite& w : it->second) {
      if (w.fc <= r.version_ts || w.fc > begin->rs) continue;
      if (w.tx == r.writer) continue;
      // The violating write must have committed before the read was served
      // (a commit that happened after the read obviously cannot be seen;
      // such a commit would carry fc > reader snapshot anyway, checked by
      // the certification rules).
      const WriteSetEvent* commit = h_.final_commit_of(w.tx);
      if (commit != nullptr && commit->at <= r.at) {
        out.push_back(tx_str(r.reader) + " missed committed version of key " +
                      std::to_string(r.key) + " by " + tx_str(w.tx) +
                      " (fc " + std::to_string(w.fc) + " <= snapshot " +
                      std::to_string(begin->rs) + ", observed ts " +
                      std::to_string(r.version_ts) + ")");
        if (out.size() >= options_.max_violations) return out;
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> SpsiChecker::check_speculative_reads() {
  std::vector<std::string> out;
  for (const ReadEvent& r : h_.reads()) {
    if (r.writer_state != VersionState::LocalCommitted) continue;
    const BeginEvent* begin = h_.begin_of(r.reader);
    if (begin == nullptr) continue;
    if (r.writer.node != begin->node) {
      out.push_back(tx_str(r.reader) + " speculatively read from " +
                    tx_str(r.writer) + " of a different node");
    } else if (r.version_ts > begin->rs) {
      out.push_back(tx_str(r.reader) + " speculatively observed " +
                    tx_str(r.writer) + " local-committed at " +
                    std::to_string(r.version_ts) + " beyond snapshot " +
                    std::to_string(begin->rs));
    }
    if (out.size() >= options_.max_violations) return out;
  }
  return out;
}

std::vector<std::string> SpsiChecker::check_snapshot_atomicity() {
  std::vector<std::string> out;
  // Group reads by reader.
  std::map<TxId, std::vector<const ReadEvent*>> by_reader;
  for (const ReadEvent& r : h_.reads()) by_reader[r.reader].push_back(&r);

  // Writer write-set lookup (local commits cover both outcomes; final
  // commits may re-time the versions).
  std::unordered_map<TxId, std::set<Key>, TxIdHash> writer_keys;
  for (const WriteSetEvent& e : h_.local_commits()) {
    writer_keys[e.tx].insert(e.keys.begin(), e.keys.end());
  }
  for (const WriteSetEvent& e : h_.final_commits()) {
    writer_keys[e.tx].insert(e.keys.begin(), e.keys.end());
  }

  for (const auto& [reader, reads] : by_reader) {
    // For each writer observed by this reader, the version timestamp it was
    // observed at (per key the minimum suffices).
    std::map<TxId, Timestamp> observed_writers;
    for (const ReadEvent* r : reads) {
      if (!r->writer.valid()) continue;
      auto [it, inserted] = observed_writers.emplace(r->writer, r->version_ts);
      if (!inserted) it->second = std::min(it->second, r->version_ts);
    }
    for (const auto& [writer, wts] : observed_writers) {
      auto wk = writer_keys.find(writer);
      if (wk == writer_keys.end()) continue;
      for (const ReadEvent* r : reads) {
        if (!wk->second.contains(r->key)) continue;
        if (r->writer == writer) continue;
        // The reader read a key the observed writer also wrote, but saw a
        // different version. Atomic observation requires it to be *newer*
        // than the writer's (overwrites are fine; the pre-state is not).
        if (r->version_ts < wts) {
          out.push_back(tx_str(reader) + " observed " + tx_str(writer) +
                        " on some key but key " + std::to_string(r->key) +
                        " showed older ts " + std::to_string(r->version_ts) +
                        " < " + std::to_string(wts) +
                        " (non-atomic snapshot)");
          if (out.size() >= options_.max_violations) return out;
        }
      }
    }
  }
  return out;
}

std::vector<std::string> SpsiChecker::check_ww_disjoint() {
  std::vector<std::string> out;
  // For each key, committed writers sorted by fc; two writers conflict if
  // they are concurrent: the later one's snapshot began before the earlier
  // one's commit (rs_later < fc_earlier means the later writer could not
  // have seen the earlier write => concurrent overwrite => violation).
  for (const auto& [key, writes] : committed_writes_) {
    for (std::size_t i = 1; i < writes.size(); ++i) {
      const CommittedWrite& earlier = writes[i - 1];
      const CommittedWrite& later = writes[i];
      const BeginEvent* lb = h_.begin_of(later.tx);
      if (lb == nullptr) continue;
      if (lb->rs < earlier.fc) {
        out.push_back("write-write conflict on key " + std::to_string(key) +
                      ": " + tx_str(later.tx) + " (rs " +
                      std::to_string(lb->rs) + ") overwrote " +
                      tx_str(earlier.tx) + " (fc " +
                      std::to_string(earlier.fc) +
                      ") without including it in its snapshot");
        if (out.size() >= options_.max_violations) return out;
      }
    }
  }
  return out;
}

std::vector<std::string> SpsiChecker::check_snapshot_conflicts() {
  std::vector<std::string> out;
  // Writers observed together in one snapshot must not conflict: if both
  // wrote key k, the one whose version the reader could observe later must
  // have serialized after the other *within the reader's snapshot* — which
  // reduces to: among observed writers sharing a key, their version
  // timestamps on the shared key must differ and both lie <= reader.rs with
  // the later one aware of the earlier (covered by ww_disjoint for
  // committed pairs). Here we flag the remaining case: two observed writers
  // sharing a written key where either never final-committed (conflicting
  // speculation surfaced into one snapshot).
  std::map<TxId, std::vector<const ReadEvent*>> by_reader;
  for (const ReadEvent& r : h_.reads()) by_reader[r.reader].push_back(&r);

  std::unordered_map<TxId, std::set<Key>, TxIdHash> writer_keys;
  for (const WriteSetEvent& e : h_.local_commits()) {
    writer_keys[e.tx].insert(e.keys.begin(), e.keys.end());
  }
  for (const WriteSetEvent& e : h_.final_commits()) {
    writer_keys[e.tx].insert(e.keys.begin(), e.keys.end());
  }

  // reads-from edges: X -> Y when X observed one of Y's versions. A path
  // Y ~> X means Y is (transitively) part of X's snapshot, i.e. Y
  // serialized before X — such pairs are chains, not conflicts.
  // Each reader's node carries the number of the last query that visited
  // it, so one mark serves every query: nothing is cleared or allocated
  // between them. Writers that read nothing have no node and no edges.
  struct ReadsFrom {
    std::set<TxId> writers;
    std::uint64_t visited = 0;
  };
  std::unordered_map<TxId, ReadsFrom, TxIdHash> reads_from;
  for (const ReadEvent& r : h_.reads()) {
    if (r.writer.valid() && r.writer != r.reader) {
      reads_from[r.reader].writers.insert(r.writer);
    }
  }
  std::uint64_t query = 0;
  std::vector<TxId> stack;
  auto reaches = [&reads_from, &query, &stack](const TxId& from,
                                               const TxId& to) {
    // DFS along reads-from edges: does `from` transitively read from `to`?
    ++query;
    stack.assign(1, from);
    while (!stack.empty()) {
      const TxId cur = stack.back();
      stack.pop_back();
      auto it = reads_from.find(cur);
      if (it == reads_from.end() || it->second.visited == query) continue;
      it->second.visited = query;
      for (const TxId& next : it->second.writers) {
        if (next == to) return true;
        stack.push_back(next);
      }
    }
    return false;
  };

  for (const auto& [reader, reads] : by_reader) {
    std::set<TxId> observed;
    for (const ReadEvent* r : reads) {
      if (r->writer.valid()) observed.insert(r->writer);
    }
    if (observed.size() < 2) continue;
    for (auto it1 = observed.begin(); it1 != observed.end(); ++it1) {
      auto wk1 = writer_keys.find(*it1);
      if (wk1 == writer_keys.end()) continue;
      for (auto it2 = std::next(it1); it2 != observed.end(); ++it2) {
        auto wk2 = writer_keys.find(*it2);
        if (wk2 == writer_keys.end()) continue;
        // Shared written key?
        const auto& small =
            wk1->second.size() <= wk2->second.size() ? wk1->second : wk2->second;
        const auto& large =
            wk1->second.size() <= wk2->second.size() ? wk2->second : wk1->second;
        Key shared = 0;
        bool found = false;
        for (Key k : small) {
          if (large.contains(k)) {
            shared = k;
            found = true;
            break;
          }
        }
        if (!found) continue;
        // Both writers are in the snapshot and wrote `shared`. That is only
        // admissible if one of them serialized strictly before the other's
        // snapshot (a chain): X precedes Y iff X final-committed and
        // Y.rs >= X.fc. Two writers with no such ordering are concurrent
        // conflicting members of one snapshot — an SPSI-3 violation.
        const WriteSetEvent* c1 = h_.final_commit_of(*it1);
        const WriteSetEvent* c2 = h_.final_commit_of(*it2);
        const BeginEvent* b1 = h_.begin_of(*it1);
        const BeginEvent* b2 = h_.begin_of(*it2);
        const bool one_before_two =
            (c1 != nullptr && b2 != nullptr && b2->rs >= c1->ts) ||
            reaches(*it2, *it1);
        const bool two_before_one =
            (c2 != nullptr && b1 != nullptr && b1->rs >= c2->ts) ||
            reaches(*it1, *it2);
        const bool ok = one_before_two || two_before_one;
        if (!ok) {
          out.push_back(tx_str(reader) + " observed conflicting writers " +
                        tx_str(*it1) + " and " + tx_str(*it2) +
                        " (shared key " + std::to_string(shared) +
                        ") in one snapshot");
          if (out.size() >= options_.max_violations) return out;
        }
      }
    }
  }
  return out;
}

std::vector<std::string> SpsiChecker::check_dependencies() {
  std::vector<std::string> out;
  for (const ReadEvent& r : h_.reads()) {
    if (r.writer_state != VersionState::LocalCommitted) continue;
    const WriteSetEvent* reader_commit = h_.final_commit_of(r.reader);
    if (reader_commit == nullptr) continue;  // reader aborted or still active
    const BeginEvent* begin = h_.begin_of(r.reader);
    const WriteSetEvent* writer_commit = h_.final_commit_of(r.writer);
    if (writer_commit == nullptr) {
      out.push_back(tx_str(r.reader) +
                    " final-committed while data-depending on " +
                    tx_str(r.writer) + " which never final-committed");
    } else if (begin != nullptr && writer_commit->ts > begin->rs) {
      out.push_back(tx_str(r.reader) + " final-committed but its dependency " +
                    tx_str(r.writer) + " committed at " +
                    std::to_string(writer_commit->ts) +
                    " beyond the reader's snapshot " +
                    std::to_string(begin->rs));
    } else if (writer_commit->at > reader_commit->at) {
      out.push_back(tx_str(r.reader) + " final-committed before its " +
                    "dependency " + tx_str(r.writer) + " (SPSI-4 order)");
    }
    if (out.size() >= options_.max_violations) return out;
  }
  return out;
}

}  // namespace str::verify
