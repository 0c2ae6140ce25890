// Transaction coordinator (Algorithm 1).
//
// One coordinator runs on each node and owns the records of every
// transaction originated there. It implements:
//
//  * startTx / read / write / commit with the SPSI bookkeeping:
//    OLCSet and FFC maintenance, the speculation gate
//    (min OLCSet >= FFC, Alg. 1 l. 15), and node-local data-dependency
//    edges with cascading aborts;
//  * the synchronous local certification (local 2PC over the node's
//    replicas plus the cache partition for remote keys of unsafe
//    transactions);
//  * the asynchronous global certification: prepares to remote masters,
//    synchronous master->slave replication acks, the SPSI-4 wait for data
//    dependencies, final commit-timestamp computation and the commit/abort
//    fan-out;
//  * dependents resolution on final commit (Alg. 1 lines 37-43): a reader
//    whose snapshot no longer admits the writer's final timestamp is
//    aborted (misspeculation), everyone else inherits the commit.
//
// All read futures handed out are always eventually fulfilled — with
// aborted=true if the transaction dies first — so no workload coroutine is
// ever left suspended.
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "protocol/census.hpp"
#include "protocol/messages.hpp"
#include "sim/coro.hpp"
#include "storage/decision_log.hpp"
#include "storage/wal.hpp"
#include "store/mvstore.hpp"
#include "txn/txn_record.hpp"

namespace str::protocol {

class Node;
class PartitionActor;

class Coordinator {
 public:
  explicit Coordinator(Node& node);

  // -- client-facing API ---------------------------------------------------

  /// Start a transaction. `first_activation` carries the first attempt's
  /// start time across retries (0 means "this is the first attempt").
  TxId begin(Timestamp first_activation = 0);

  /// Snapshot read; the future is fulfilled when the value is available and
  /// the speculation gate admits it (or immediately with aborted=true).
  sim::Future<txn::ReadResult> read(const TxId& tx, Key key);

  /// Buffered write (visible to this transaction's own reads only).
  void write(const TxId& tx, Key key, Value value);

  /// Request commit; the future resolves at the final outcome.
  sim::Future<txn::TxFinalResult> commit(const TxId& tx);

  /// Future resolving at the transaction's final outcome, registrable at any
  /// time (typically right after begin()). Client drivers use this so they
  /// learn about aborts even when the transaction body returned early.
  sim::Future<txn::TxFinalResult> outcome_future(const TxId& tx);

  /// Workload-initiated rollback.
  void user_abort(const TxId& tx);

  bool is_aborted(const TxId& tx) const;
  Timestamp snapshot_of(const TxId& tx) const;

  // -- node/network entry points -------------------------------------------

  void on_read_reply(ReadReply reply);
  void on_prepare_reply(PrepareReply reply);

  /// A participant holding a prepared-but-undecided transaction of this
  /// coordinator asks for its fate. Answered from the live record, from the
  /// durable decision log, or — with neither — as presumed abort; a
  /// decision still under the restart census answers Unknown. In quorum
  /// mode a request for ANOTHER coordinator's transaction is a census probe
  /// against this node's replica copy; it is answered with a
  /// DecisionReplicateAck (kCommitted/kNoRecord) and never presumes abort.
  void on_decision_request(DecisionRequest req);

  /// Replica-group member entry point: durably append a copy of the
  /// origin's commit decision and ack once it is on stable storage
  /// (docs/DURABILITY.md §8). Copies for a crashed origin are dropped — the
  /// census counts a frozen copy set.
  void on_decision_replicate(const DecisionReplicate& m);

  /// Origin entry point: a member acked a durable copy (kind == kAck).
  void on_decision_replicate_ack(const DecisionReplicateAck& m);

  /// A member's answer to this node's restart census (kCommitted/kNoRecord
  /// sent back with partition == kInvalidPartition).
  void on_census_reply(const DecisionReplicateAck& rep);

  /// A participant's recovery verdict for `tx` at replica `at` (a census
  /// conclusion, a decision reply, a presumed abort): install or drop the
  /// pre-commit there. It and settle_own() are the only callers of the
  /// cluster's in-doubt registry, a verification ledger the protocol never
  /// reads.
  void settle(const TxId& tx, bool committed, Timestamp commit_ts,
              PartitionActor& at);

  /// Abort a transaction of this node (also called by partition actors when
  /// replicated remote pre-commits evict local speculation). `cascade_of`
  /// names the parent transaction when `reason` is CascadingAbort, so the
  /// tracer can attribute cascade trees to their root cause.
  void abort_tx(const TxId& tx, AbortReason reason,
                const TxId& cascade_of = kNoTx);

  /// Fail-stop crash: every live transaction aborts (reason NodeCrash) with
  /// its decision durably logged; volatile read/prepare bookkeeping clears.
  /// next_seq_ survives — TxIds stay unique across restarts. In WAL mode a
  /// transaction in its commit-durability window instead resolves from the
  /// decision log's durable prefix: decision durable => it committed (the
  /// restart replay will install its writes), else presumed abort; and
  /// decided_ itself is wiped — replay_decisions() rebuilds it.
  void on_crash();

  /// Periodic upkeep: prune decision-log entries past their retention.
  void maintain(Timestamp now);

  // -- durability (docs/DURABILITY.md; WAL mode only) ------------------------

  /// Attach the node's decision log. Commit decisions append here; the sync
  /// completing is the transaction's commit point.
  void set_decision_wal(storage::Wal* wal) { decision_wal_ = wal; }

  /// Attach the quorum wrapper around the decision log (quorum mode only).
  /// With it, the commit point moves from "local decision fsync" to
  /// "decision durable on a quorum of the replica group".
  void set_decision_log(storage::ReplicatedDecisionLog* rlog);

  /// Quorum barriers still waiting on member acks (tests/quiesce).
  std::size_t pending_quorum_barriers() const {
    return rlog_ == nullptr ? 0 : rlog_->pending_count();
  }

  /// Rebuild decided_ from the decision log (restart, before partition
  /// replay — locally-coordinated commit records are validated against it).
  /// Resolves nothing: in quorum mode this node's own commit decisions young
  /// enough to have been in doubt at the crash are marked Unknown, and a
  /// census of the group — the same one participants run — settles them.
  void replay_decisions();

  /// Look up tx in decided_ (own decisions and, in quorum mode, replica
  /// copies of other coordinators'). The census consults this on the
  /// probing node first — self-membership and replayed copies answer
  /// without a network hop. Own decisions under the restart census read
  /// Unknown, with their commit timestamp.
  bool find_decision(const TxId& tx, TxDecision* decision,
                     Timestamp* commit_ts) const {
    auto it = decided_.find(tx);
    if (it == decided_.end()) return false;
    if (decision != nullptr) *decision = it->second.decision;
    if (commit_ts != nullptr) *commit_ts = it->second.commit_ts;
    return true;
  }

  txn::TxnRecord* find(const TxId& tx);
  const txn::TxnRecord* find(const TxId& tx) const;

  std::size_t live_transactions() const { return txns_.size(); }

  /// Lowest read snapshot among this node's live transactions (kTsInfinity
  /// when none). Feeds the cluster-wide stable-snapshot watermark: no
  /// request is ever sent for a dead transaction, so every future read of
  /// this coordinator carries a snapshot at or above this bound.
  Timestamp min_active_rs() const {
    Timestamp m = kTsInfinity;
    for (const auto& [tx, rec] : txns_) m = std::min(m, rec->rs);
    return m;
  }

 private:
  /// A read value (from a local replica, the cache, or a remote reply) is
  /// ready: apply OLCSet/FFC updates, dependency edges, then pass the gate.
  /// `read_span`/`issued_at` identify the open Read span begun in read()
  /// (0 when tracing was off at issue time).
  void on_read_value(const TxId& tx, Key key,
                     const store::StoreReadResult& r, bool from_cache,
                     sim::Promise<txn::ReadResult> promise,
                     std::uint64_t read_span, Timestamp issued_at);

  /// Deliver `result` if the gate is open, otherwise park it. History read
  /// events are recorded at delivery (a value held at the gate and never
  /// released is not an observation).
  void gate_or_deliver(txn::TxnRecord& rec, Key key, txn::ReadResult result,
                       sim::Promise<txn::ReadResult> promise,
                       std::uint64_t read_span, Timestamp issued_at);

  void record_read_event(const TxId& tx, Key key, const TxId& writer,
                         Timestamp version_ts, bool speculative);

  /// Re-check parked gate waiters after OLCSet/FFC changed.
  void reeval_gate(txn::TxnRecord& rec);

  /// Partitions of the write set replicated at this node, with the updates
  /// grouped; and the remote-key subset for the cache partition. The
  /// per-partition lists are heap-shared so the whole prepare/replicate
  /// fan-out (and any duplicated delivery) carries one copy of the values.
  struct WriteGroups {
    std::unordered_map<PartitionId, std::shared_ptr<UpdateList>> local;
    std::unordered_map<PartitionId, std::shared_ptr<UpdateList>> remote;
    UpdateList cache;  ///< keys not replicated here
  };
  WriteGroups group_writes(const txn::TxnRecord& rec) const;

  /// Just the touched partition ids (same first-touch insertion order as
  /// group_writes, hence the map: identical iteration order matters for
  /// deterministic message ordering). For the commit/abort fan-outs, which
  /// never look at the values.
  struct TouchedPartitions {
    std::unordered_map<PartitionId, bool> local;
    std::unordered_map<PartitionId, bool> remote;
  };
  TouchedPartitions touched_partitions(const txn::TxnRecord& rec) const;

  /// Synchronous local certification; returns false (and aborts) on
  /// conflict. On success the transaction is LocalCommitted. `groups` is
  /// computed once in commit() and shared with the global phase.
  bool local_certification(txn::TxnRecord& rec, const WriteGroups& groups);

  void start_global_certification(txn::TxnRecord& rec,
                                  const WriteGroups& groups);

  /// Commit once prepares are in and dependencies resolved (SPSI-4).
  void maybe_finalize(txn::TxnRecord& rec);

  void finalize_commit(txn::TxnRecord& rec);

  /// Everything in finalize_commit after the decision is (or needs no)
  /// durable record: store application, fan-out, dependents, history,
  /// metrics, client delivery. In WAL mode this is the decision sync's
  /// completion callback; without a WAL it runs inline.
  void finalize_commit_apply(txn::TxnRecord& rec);

  /// Crash-time teardown of a transaction caught in its commit-durability
  /// window (phase == Committed, apply not yet run). `durable` says whether
  /// its decision record made the log's validated prefix.
  void crash_teardown_committed(txn::TxnRecord& rec, bool durable);

  /// Alg. 1 lines 37-43: resolve or abort dependents at final commit.
  void resolve_dependents_on_commit(txn::TxnRecord& rec);

  void deliver_outcome(txn::TxnRecord& rec);

  /// Fulfill every outstanding read with aborted=true.
  void fail_outstanding_reads(txn::TxnRecord& rec);

  void erase(const TxId& tx);

  bool spec_active() const;

  struct PendingRemoteRead {
    TxId tx;
    Key key = 0;
    sim::Promise<txn::ReadResult> promise;
    // Retry state (RecoveryConfig; unused when recovery is disabled).
    Timestamp rs = 0;
    std::uint32_t attempts = 0;
    std::vector<NodeId> candidates;  ///< replicas by latency (failover order)
    std::uint64_t read_span = 0;     ///< open Read span (0 = untraced)
    Timestamp issued_at = 0;
  };

  /// Dispatch the read to its current candidate replica (retries rotate
  /// through `candidates`, skipping nodes known down).
  void send_read_request(std::uint64_t req_id, const PendingRemoteRead& p);
  void arm_read_timer(std::uint64_t req_id);

  /// One prepare / replicate message of the global-certification fan-out
  /// (no bookkeeping — start_global_certification and resend_prepares own
  /// the expected/awaiting accounting).
  void send_prepare(const txn::TxnRecord& rec, PartitionId pid,
                    SharedUpdates updates);
  void send_replicate(const txn::TxnRecord& rec, PartitionId pid, NodeId slave,
                      SharedUpdates updates);

  /// Re-send the fan-out to every (partition, node) that has not acked.
  void resend_prepares(txn::TxnRecord& rec);
  void arm_prepare_timer(const TxId& tx);

  /// Bounded exponential backoff: request_timeout << attempt, capped.
  Timestamp backoff(std::uint32_t attempt) const;

  /// Fold the record's phase timestamps into the "phase.*" timers at the
  /// final outcome (`final_at` = commit/abort time).
  void record_phase_timers(const txn::TxnRecord& rec, Timestamp final_at);

  Node& node_;
  // Cached observability instruments (resolved once at construction; see
  // docs/OBSERVABILITY.md for the phase definitions).
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* c_begins_ = nullptr;
  obs::Counter* c_commits_ = nullptr;
  obs::Counter* c_aborts_ = nullptr;
  obs::Gauge* g_live_ = nullptr;
  obs::Timer* t_first_read_ = nullptr;
  obs::Timer* t_gate_stall_ = nullptr;
  obs::Timer* t_local_cert_ = nullptr;
  obs::Timer* t_wan_prepare_ = nullptr;
  obs::Timer* t_dep_wait_ = nullptr;
  obs::Timer* t_lock_hold_ = nullptr;
  obs::Timer* t_lock_hold_total_ = nullptr;
  obs::Timer* t_commit_snap_dist_ = nullptr;
  obs::Counter* c_rpc_timeouts_ = nullptr;
  obs::Counter* c_rpc_retries_ = nullptr;
  obs::Counter* c_orphan_aborts_ = nullptr;
  /// Own decisions handed to the restart census (quorum mode only).
  obs::Counter* c_census_decisions_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_read_id_ = 1;
  std::unordered_map<TxId, std::unique_ptr<txn::TxnRecord>, TxIdHash> txns_;
  /// Free list of finished records: a TxnRecord is a fat object (write
  /// buffer, SPSI sets, certification bookkeeping — all flat vectors), so
  /// recycling one keeps every container's capacity and makes begin()
  /// allocation-free in steady state. Records are reset() on release.
  std::vector<std::unique_ptr<txn::TxnRecord>> record_pool_;
  std::unordered_map<std::uint64_t, PendingRemoteRead> pending_remote_;

  /// Durable decision log (the WAL-with-data assumption, docs/FAULTS.md):
  /// survives crashes, answers DecisionRequests, pruned by retention.
  /// Populated only when recovery is enabled.
  /// Unknown marks an own durable commit decision awaiting its restart
  /// census (quorum mode); it answers probes Unknown until settled.
  struct Decision {
    TxDecision decision = TxDecision::Unknown;
    Timestamp commit_ts = 0;
    Timestamp at = 0;  ///< when decided (for retention pruning)
  };
  std::unordered_map<TxId, Decision, TxIdHash> decided_;
  /// Retention queue over decided_: a min-heap of (at, tx), pushed
  /// whenever an entry is created or its `at` changes. maintain() moves
  /// pairs past the cutoff to retire_overdue_ and visits only those (the
  /// cutoff never falls, so a pair once past it stays past it): pinned or
  /// Unknown decisions wait there until they can go, and a pair whose
  /// entry is gone or carries a different `at` is stale and dropped. Wiped
  /// and rebuilt with decided_.
  std::vector<std::pair<Timestamp, TxId>> retire_queue_;
  std::vector<std::pair<Timestamp, TxId>> retire_overdue_;
  /// Every write of a decided_ entry goes through here (keeps the
  /// retention queue complete).
  void record_decision(const TxId& tx, const Decision& d);
  void clear_decisions();
  /// Node-level decision log (owned by the Node); nullptr when WAL is off.
  /// With it attached, decided_ stops being magically durable: a crash wipes
  /// it and replay_decisions() rebuilds exactly the synced prefix.
  storage::Wal* decision_wal_ = nullptr;
  /// Quorum wrapper (owned by the Node); nullptr unless the quorum commit
  /// point is on. Appends still land in decision_wal_ — this only tracks
  /// the member-ack barrier and retransmits.
  storage::ReplicatedDecisionLog* rlog_ = nullptr;

  /// Restart census over this node's own decisions (quorum mode): one
  /// Census per decision decided_ holds as Unknown. Volatile — a crash
  /// clears it and the next replay re-derives it.
  std::unordered_map<TxId, Census, TxIdHash> census_;
  /// Bumped by on_crash(): census ticks from a previous life are inert.
  std::uint64_t census_gen_ = 0;
  /// One round over every unsettled own decision; re-arms itself until
  /// the last one settles.
  void census_tick(std::uint64_t gen);
  /// tx's decision is decision_log_retention old: members may have pruned
  /// their copies, so the census can no longer conclude abort.
  bool past_census_deadline(const TxId& tx) const;
  /// The restart census's verdict on this node's own decision: commit
  /// installs the staged writes on every replica here; abort drops them and
  /// logs a durable kAbort so no later replay re-derives the commit.
  void settle_own(const TxId& tx, bool committed);
};

/// Thin value handle passed to workload transaction bodies.
class TxnHandle {
 public:
  TxnHandle() = default;
  TxnHandle(Coordinator* coord, TxId id) : coord_(coord), id_(id) {}

  sim::Future<txn::ReadResult> read(Key key) { return coord_->read(id_, key); }
  void write(Key key, Value value) {
    coord_->write(id_, key, std::move(value));
  }
  sim::Future<txn::TxFinalResult> commit() { return coord_->commit(id_); }
  void abort() { coord_->user_abort(id_); }

  bool aborted() const { return coord_->is_aborted(id_); }
  TxId id() const { return id_; }
  Timestamp snapshot() const { return coord_->snapshot_of(id_); }

 private:
  Coordinator* coord_ = nullptr;
  TxId id_;
};

}  // namespace str::protocol
