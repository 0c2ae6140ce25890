#include "protocol/census.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "protocol/cluster.hpp"
#include "protocol/node.hpp"
#include "wire/dispatch.hpp"

namespace str::protocol {

Census::Verdict Census::tick(Node& self, const TxId& tx, PartitionId reply_to,
                             Timestamp* commit_ts) {
  Cluster& cluster = self.cluster();
  const NodeId origin = tx.node;
  // The prober's own copy answers without a network round. A member's copy
  // counts; the origin's only where it alone was the commit point.
  TxDecision d = TxDecision::Unknown;
  if (self.coordinator().find_decision(tx, &d, commit_ts) &&
      (self.id() != origin
           ? d == TxDecision::Committed
           : cluster.protocol().durability.decision_quorum <= 1)) {
    return Verdict::kCommitted;
  }
  // Nothing beyond the copy already consulted can exist: vacuous rounds
  // count like complete all-kNoRecord ones.
  if (pending_.empty()) {
    for (NodeId m : cluster.decision_group(origin)) {
      if (m != origin && m != self.id()) pending_.push_back(m);
    }
    if (pending_.empty()) return count_norecord_round(self);
  }
  // (Re-)probe whoever has not answered this round; a lost probe or reply
  // is recovered by the next tick re-sending to the stragglers. A member
  // that is down is not probed but stays in the round: any copy among the
  // members that are up settles commit, but "no copy anywhere" needs the
  // member that may hold the decisive copy, so a permanently lost member
  // stalls only the abort verdict.
  obs::Tracer& tracer = cluster.tracer();
  for (NodeId m : pending_) {
    if (!cluster.node_up(m)) continue;
    DecisionRequest req;
    req.tx = tx;
    req.partition = reply_to;
    req.from = self.id();
    if (tracer.enabled()) {
      const std::uint64_t pspan = tracer.next_span_id();
      tracer.emit_span(
          {pspan, 0, tx, self.id(), obs::SpanKind::Probe, cluster.now(),
           cluster.now(),
           static_cast<std::uint64_t>(wire::MessageType::kDecisionRequest),
           reply_to});
      req.tspan = pspan;
    }
    wire::post(cluster, self.id(), m, std::move(req));
  }
  return Verdict::kPending;
}

Census::Verdict Census::on_reply(const Node& self,
                                 const DecisionReplicateAck& rep,
                                 Timestamp* commit_ts) {
  if (rep.kind == DecisionAckKind::kCommitted) {
    if (commit_ts != nullptr) *commit_ts = rep.commit_ts;
    return Verdict::kCommitted;
  }
  STR_ASSERT(rep.kind == DecisionAckKind::kNoRecord);
  // Dedup per member per round: erasing from the pending set is idempotent
  // against duplicated deliveries and re-sent probes.
  auto m = std::find(pending_.begin(), pending_.end(), rep.from);
  if (m == pending_.end()) return Verdict::kPending;
  pending_.erase(m);
  if (!pending_.empty()) return Verdict::kPending;
  return count_norecord_round(self);
}

Census::Verdict Census::count_norecord_round(const Node& self) {
  return ++norecord_rounds_ >=
                 self.cluster().protocol().recovery.orphan_down_probes
             ? Verdict::kAborted
             : Verdict::kPending;
}

}  // namespace str::protocol
