// Quorum-replicated decision log (docs/DURABILITY.md §8).
//
// Wraps the coordinator's per-node decision WAL with quorum tracking: an
// append is "quorum-durable" once the local kDecision record is on stable
// storage AND `quorum - 1` replica-group members have acknowledged durable
// copies of it. The fan-out is strictly ordered AFTER local durability, so
// two invariants hold by construction:
//
//   member copy exists  =>  the origin's local copy is durable
//   quorum reached      =>  a member copy exists (quorum >= 2)
//
// and members drop copies from a down origin, so the copy set is frozen at
// the origin's crash. Recovery needs no consensus round: an interrupted
// decision is committed iff a member other than the origin holds a copy,
// and every census — the participants' and the restarted origin's —
// applies that one rule to the same frozen set (protocol/census.hpp; the
// group is static; see the failure matrix in the doc).
//
// The log itself stays a plain storage::Wal — this class only tracks acks
// and retransmits. Sending is injected (`SendFn`): the protocol layer posts
// the DecisionReplicate frames, keeping this file free of wire/protocol
// dependencies, mirroring how the Wal's Medium is injected.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/scheduler.hpp"
#include "storage/wal.hpp"

namespace str::storage {

class ReplicatedDecisionLog {
 public:
  struct Options {
    /// Replica-group members to fan decisions out to (excluding the owner).
    std::vector<NodeId> members;
    /// Total copies required, counting the owner's local one. 1 degenerates
    /// to the single-copy commit point (no member ack is awaited).
    std::uint32_t quorum = 1;
    Timestamp retransmit_initial = msec(500);
    Timestamp retransmit_cap = sec(2);
  };

  /// Send one DecisionReplicate for `tx` to each node in `to`.
  using SendFn = std::function<void(const TxId& tx, Timestamp commit_ts,
                                    Timestamp decided_at,
                                    const std::vector<NodeId>& to)>;

  ReplicatedDecisionLog(sim::Scheduler& sched, Wal& wal, Options options,
                        SendFn send);

  /// Append tx's decision to the local log and arm the quorum barrier:
  /// `on_quorum` runs once the record is locally durable and quorum-1
  /// members acked. Returns the record's end offset in the local log (the
  /// crash-time fate check compares it against durable_prefix()).
  std::uint64_t append(const TxId& tx, Timestamp commit_ts,
                       Timestamp decided_at, UniqueFunction<void()> on_quorum);

  /// A member acked a durable copy of tx's decision. Duplicate and late
  /// acks are harmless.
  void on_ack(const TxId& tx, NodeId from);

  /// True while tx's barrier is still waiting (local sync or member acks).
  bool pending(const TxId& tx) const { return pending_.count(tx) != 0; }

  std::size_t pending_count() const { return pending_.size(); }

  /// Owner crashed: drop every barrier and invalidate retransmit timers.
  /// The quorum decision outlives the tracking — recovery re-derives it
  /// from the local replay and the members' copies.
  void on_crash();

  std::uint32_t quorum() const { return options_.quorum; }
  const std::vector<NodeId>& members() const { return options_.members; }

 private:
  struct Pending {
    Timestamp commit_ts = 0;
    Timestamp decided_at = 0;
    bool local_durable = false;
    std::vector<NodeId> unacked;  ///< members yet to ack
    std::uint32_t resends = 0;
    UniqueFunction<void()> on_quorum;
  };

  /// Acks still needed from members once the local copy is durable.
  std::uint32_t needed_acks() const {
    return options_.quorum > 0 ? options_.quorum - 1 : 0;
  }

  void on_local_durable(const TxId& tx);
  void maybe_complete(const TxId& tx);
  void arm_retransmit(const TxId& tx, std::uint32_t attempt);

  sim::Scheduler& sched_;
  Wal& wal_;
  Options options_;
  SendFn send_;
  std::unordered_map<TxId, Pending, TxIdHash> pending_;
  /// Bumped by on_crash(): retransmit timers from a previous life are inert.
  std::uint64_t gen_ = 0;
};

}  // namespace str::storage
