// The in-doubt rule and the census that applies it (docs/DURABILITY.md §8).
//
// In quorum mode one rule settles every decision whose quorum barrier was
// still open when its origin crashed:
//
//   the decision is committed iff a member of the origin's decision group
//   OTHER THAN THE ORIGIN holds a durable commit copy of it.
//
// The origin fans a decision out only after its own fsync, so a member copy
// implies the origin's copy is durable; and members drop copies from a down
// origin, so the copy set is frozen from the crash on. Every census over it
// therefore reaches the same verdict — run by an orphaned participant while
// the origin is down, or by the restarted origin over its own decisions.
// Quorum 1 is the one degenerate case: its commit point is the origin's
// local fsync alone, so there the origin's own copy counts too.
//
// A Census is the per-(prober, transaction) state of that conversation. It
// probes the members with DecisionRequest; members answer from their copies
// with DecisionReplicateAck (kCommitted / kNoRecord) and never presume
// abort. The first kCommitted, from any member that is up, settles commit.
// The verdict is abort only after `orphan_down_probes` complete rounds in
// which every member answered kNoRecord; a member that is down keeps its
// round open instead of weakening it, so it stalls only the abort verdict.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "protocol/messages.hpp"

namespace str::protocol {

class Node;

class Census {
 public:
  enum class Verdict : std::uint8_t { kPending, kCommitted, kAborted };

  /// One round tick run by `self` for `tx`: consult self's own copy, then
  /// (re-)probe the members yet to answer the open round. `reply_to` rides
  /// in the probes and routes the answers back: the waiting participant's
  /// partition, or kInvalidPartition for the origin's own census. On
  /// kCommitted, `*commit_ts` is set.
  Verdict tick(Node& self, const TxId& tx, PartitionId reply_to,
               Timestamp* commit_ts);

  /// A member's answer to one of this census's probes.
  Verdict on_reply(const Node& self, const DecisionReplicateAck& rep,
                   Timestamp* commit_ts);

 private:
  /// One more complete all-kNoRecord round; kAborted once there are enough.
  Verdict count_norecord_round(const Node& self);

  /// Members yet to answer the round in flight; empty = no round open.
  std::vector<NodeId> pending_;
  /// Complete rounds in which every member answered kNoRecord. The copy
  /// set is frozen, so the count only has to survive lost messages.
  std::uint32_t norecord_rounds_ = 0;
};

}  // namespace str::protocol
