#include "protocol/coordinator.hpp"

#include <algorithm>
#include <functional>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "protocol/cluster.hpp"
#include "protocol/node.hpp"
#include "wire/dispatch.hpp"

namespace str::protocol {

namespace {

txn::ReadResult own_write_result(const Value& value, const TxId& self,
                                 Timestamp rs) {
  txn::ReadResult r;
  r.found = true;
  r.value = value;
  r.writer = self;
  r.version_ts = rs;
  return r;
}

}  // namespace

Coordinator::Coordinator(Node& node) : node_(node) {
  tracer_ = &node.cluster().tracer();
  obs::Registry& obs = node.obs();
  c_begins_ = &obs.counter("txn.begins");
  c_commits_ = &obs.counter("txn.commits");
  c_aborts_ = &obs.counter("txn.aborts");
  g_live_ = &obs.gauge("txn.live");
  t_first_read_ = &obs.timer("phase.time_to_first_read");
  t_gate_stall_ = &obs.timer("phase.gate_stall");
  t_local_cert_ = &obs.timer("phase.local_cert");
  t_wan_prepare_ = &obs.timer("phase.wan_prepare");
  t_dep_wait_ = &obs.timer("phase.dep_wait");
  t_lock_hold_ = &obs.timer("phase.lock_hold");
  t_lock_hold_total_ = &obs.timer("phase.lock_hold_total");
  t_commit_snap_dist_ = &obs.timer("phase.commit_snapshot_distance");
  c_rpc_timeouts_ = &obs.counter("rpc.timeouts");
  c_rpc_retries_ = &obs.counter("rpc.retries");
  c_orphan_aborts_ = &obs.counter("txn.orphan_aborts");
}

void Coordinator::set_decision_log(storage::ReplicatedDecisionLog* rlog) {
  rlog_ = rlog;
  c_census_decisions_ = &node_.obs().counter("recovery.census_decisions");
}

bool Coordinator::spec_active() const {
  return node_.cluster().spec_active(node_.id());
}

TxId Coordinator::begin(Timestamp first_activation) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  const TxId id{node_.id(), next_seq_++};
  if (!node_.up()) {
    // A crashed node accepts nothing: hand out an id that is never
    // registered, so reads and the outcome future resolve aborted
    // immediately and the client backs off until the restart.
    return id;
  }
  std::unique_ptr<txn::TxnRecord> rec;
  if (!record_pool_.empty()) {
    rec = std::move(record_pool_.back());
    record_pool_.pop_back();
  } else {
    rec = std::make_unique<txn::TxnRecord>();
  }
  rec->id = id;
  rec->origin = node_.id();
  rec->rs = node_.physical_now();
  rec->attempt_start = cluster.now();
  rec->first_activation =
      first_activation == 0 ? cluster.now() : first_activation;
  if (auto* h = cluster.history()) {
    h->on_begin(verify::BeginEvent{id, node_.id(), rec->rs});
  }
  c_begins_->inc();
  g_live_->add(1);
  if (tracer_->enabled()) {
    rec->trace_span = tracer_->next_span_id();
    tracer_->emit({cluster.now(), id, node_.id(), obs::TraceEventType::TxBegin,
                   rec->rs, 0});
  }
  txns_.emplace(id, std::move(rec));
  return id;
}

txn::TxnRecord* Coordinator::find(const TxId& tx) {
  auto it = txns_.find(tx);
  return it == txns_.end() ? nullptr : it->second.get();
}

const txn::TxnRecord* Coordinator::find(const TxId& tx) const {
  auto it = txns_.find(tx);
  return it == txns_.end() ? nullptr : it->second.get();
}

bool Coordinator::is_aborted(const TxId& tx) const {
  const txn::TxnRecord* rec = find(tx);
  return rec == nullptr || rec->phase == txn::TxnPhase::Aborted;
}

Timestamp Coordinator::snapshot_of(const TxId& tx) const {
  const txn::TxnRecord* rec = find(tx);
  return rec == nullptr ? 0 : rec->rs;
}

sim::Future<txn::ReadResult> Coordinator::read(const TxId& tx, Key key) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  sim::Promise<txn::ReadResult> promise(cluster.scheduler());

  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->finished()) {
    txn::ReadResult dead;
    dead.aborted = true;
    promise.set_value(std::move(dead));
    return promise.future();
  }

  // Read-your-own-writes from the private buffer (linear scan: write sets
  // are small and the buffer is a flat vector).
  for (const auto& [wkey, wvalue] : rec->writes) {
    if (wkey == key) {
      promise.set_value(own_write_result(wvalue, tx, rec->rs));
      return promise.future();
    }
  }

  rec->outstanding_reads.push_back(promise);
  const PartitionId pid = PartitionMap::partition_of(key);
  PartitionActor* local = node_.replica(pid);
  std::uint64_t read_span = 0;
  const Timestamp issued_at = cluster.now();
  if (tracer_->enabled()) {
    read_span = tracer_->next_span_id();
    tracer_->emit({cluster.now(), tx, node_.id(),
                   obs::TraceEventType::ReadIssued, key,
                   local == nullptr ? 1u : 0u});
  }
  if (local != nullptr) {
    local->serve_local_read(
        tx, key, rec->rs,
        [this, tx, key, promise, read_span,
         issued_at](const store::StoreReadResult& r) mutable {
          on_read_value(tx, key, r, /*from_cache=*/false, std::move(promise),
                        read_span, issued_at);
        });
    return promise.future();
  }

  // Non-local key: the cache partition may hold a local-committed version
  // written by an unsafe transaction of this node (Alg. 1 lines 8-9).
  if (spec_active()) {
    store::StoreReadResult cached = node_.cache().read(key, rec->rs);
    if (cached.kind == store::ReadKind::Speculative) {
      sim::Future<txn::ReadResult> future = promise.future();
      on_read_value(tx, key, cached, /*from_cache=*/true, std::move(promise),
                    read_span, issued_at);
      return future;
    }
  }

  // Remote read: replicas ordered by latency (ties keep the partition map's
  // order). The head is the first target; retries rotate through the rest
  // (replica failover).
  const auto& replicas = cluster.pmap().replicas(pid);
  STR_ASSERT(!replicas.empty());
  std::vector<NodeId> candidates(replicas.begin(), replicas.end());
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](NodeId a, NodeId b) {
                     const auto& topo = cluster.network().topology();
                     return topo.one_way(node_.region(),
                                         cluster.node(a).region()) <
                            topo.one_way(node_.region(),
                                         cluster.node(b).region());
                   });
  const std::uint64_t req_id = next_read_id_++;
  PendingRemoteRead pending{tx,      key, promise,
                            rec->rs, 0,   std::move(candidates),
                            read_span, issued_at};
  auto [it2, inserted] = pending_remote_.emplace(req_id, std::move(pending));
  STR_ASSERT(inserted);
  send_read_request(req_id, it2->second);
  if (cluster.protocol().recovery.enabled) arm_read_timer(req_id);
  return promise.future();
}

void Coordinator::send_read_request(std::uint64_t req_id,
                                    const PendingRemoteRead& p) {
  Cluster& cluster = node_.cluster();
  // Rotate through the failover order; skip replicas the failure detector
  // reports down (if all are down, send anyway — the drop is counted and
  // the retry budget eventually converts it into a Timeout abort).
  const std::size_t n = p.candidates.size();
  NodeId target = p.candidates[p.attempts % n];
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId cand = p.candidates[(p.attempts + i) % n];
    if (cluster.network().node_up(cand)) {
      target = cand;
      break;
    }
  }
  ReadRequest req;
  req.reader = p.tx;
  req.reader_node = node_.id();
  req.req_id = req_id;
  req.key = p.key;
  req.rs = p.rs;
  req.tspan = p.read_span;
  wire::post(cluster, node_.id(), target, std::move(req));
}

Timestamp Coordinator::backoff(std::uint32_t attempt) const {
  const RecoveryConfig& rc = node_.cluster().protocol().recovery;
  const Timestamp base = rc.request_timeout;
  Timestamp t = base;
  for (std::uint32_t i = 0; i < attempt && t < rc.timeout_cap; ++i) t *= 2;
  return std::min(t, rc.timeout_cap);
}

void Coordinator::arm_read_timer(std::uint64_t req_id) {
  const std::uint32_t attempt =
      pending_remote_.find(req_id)->second.attempts;
  node_.cluster().scheduler().schedule_after(backoff(attempt), [this,
                                                               req_id]() {
    auto it = pending_remote_.find(req_id);
    if (it == pending_remote_.end()) return;  // answered (or tx finished)
    ScopedLogNode log_node(node_.id());
    c_rpc_timeouts_->inc();
    PendingRemoteRead& p = it->second;
    const RecoveryConfig& rc = node_.cluster().protocol().recovery;
    if (p.attempts >= rc.max_read_retries) {
      // Retry budget exhausted: the transaction cannot make progress.
      abort_tx(p.tx, AbortReason::Timeout);  // erases the pending entry
      return;
    }
    ++p.attempts;
    c_rpc_retries_->inc();
    send_read_request(req_id, p);
    arm_read_timer(req_id);
  });
}

void Coordinator::on_read_reply(ReadReply reply) {
  ScopedLogNode log_node(node_.id());
  auto it = pending_remote_.find(reply.req_id);
  if (it == pending_remote_.end()) return;  // reader already gone
  PendingRemoteRead pending = std::move(it->second);
  pending_remote_.erase(it);
  store::StoreReadResult r;
  r.kind = reply.found ? store::ReadKind::Committed : store::ReadKind::NotFound;
  r.value = std::move(reply.value);
  r.writer = reply.writer;
  r.ts = reply.version_ts;
  on_read_value(pending.tx, pending.key, r, /*from_cache=*/false,
                std::move(pending.promise), pending.read_span,
                pending.issued_at);
}

void Coordinator::on_read_value(const TxId& tx, Key key,
                                const store::StoreReadResult& r,
                                bool from_cache,
                                sim::Promise<txn::ReadResult> promise,
                                std::uint64_t read_span,
                                Timestamp issued_at) {
  Cluster& cluster = node_.cluster();
  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->finished()) {
    txn::ReadResult dead;
    dead.aborted = true;
    promise.try_set_value(std::move(dead));
    return;
  }

  txn::ReadResult result;
  result.found = r.kind != store::ReadKind::NotFound;
  // The one place a read materializes the payload: the client-facing result
  // owns a plain string, everything upstream shared the stored buffer.
  if (r.value) result.value = *r.value;
  result.writer = r.writer;
  result.version_ts = r.ts;

  if (r.kind == store::ReadKind::Committed) {
    // Reading a final-committed version: its writer's FFC equals its commit
    // timestamp and its OLCSet is infinite (Alg. 1 lines 35-36), so only
    // FFC advances.
    rec->ffc = std::max(rec->ffc, r.ts);
    cluster.metrics().record_read(/*speculative=*/false);
  } else if (r.kind == store::ReadKind::Speculative) {
    result.speculative = true;
    txn::TxnRecord* wrec = find(r.writer);
    // In WAL mode a writer sits in phase Committed while its commit record
    // flushes (versions still local-committed until the apply callback), so
    // a read in that window legitimately classifies as speculative.
    STR_ASSERT_MSG(wrec != nullptr &&
                       (wrec->phase == txn::TxnPhase::LocalCommitted ||
                        (decision_wal_ != nullptr &&
                         wrec->phase == txn::TxnPhase::Committed)),
                   "speculative read from a non-local-committed writer");
    // Alg. 1 lines 13-14: inherit the writer's OLC floor and FFC.
    const Timestamp wolc = wrec->olc_min();
    if (wolc != kTsInfinity) {
      auto [it, inserted] = rec->olc_set.emplace(r.writer, wolc);
      if (!inserted) it->second = std::min(it->second, wolc);
    }
    rec->ffc = std::max(rec->ffc, wrec->ffc);
    // Data dependency (SPSI-4) and cascade edge.
    rec->unresolved_deps.insert(r.writer);
    wrec->add_dependent(tx);
    // Transitive snapshot membership, for write-write chaining.
    rec->snapshot_lc_writers.insert(r.writer);
    rec->snapshot_lc_writers.merge(wrec->snapshot_lc_writers);
    cluster.metrics().record_read(/*speculative=*/true);
  } else {
    cluster.metrics().record_read(/*speculative=*/false);
  }

  (void)from_cache;

  gate_or_deliver(*rec, key, std::move(result), std::move(promise), read_span,
                  issued_at);
}

void Coordinator::record_read_event(const TxId& tx, Key key,
                                    const TxId& writer, Timestamp version_ts,
                                    bool speculative) {
  Cluster& cluster = node_.cluster();
  auto* h = cluster.history();
  if (h == nullptr) return;
  verify::ReadEvent ev;
  ev.reader = tx;
  ev.key = key;
  ev.writer = writer;
  ev.version_ts = version_ts;
  ev.writer_state =
      speculative ? VersionState::LocalCommitted : VersionState::Committed;
  ev.at = cluster.now();
  h->on_read(ev);
}

void Coordinator::gate_or_deliver(txn::TxnRecord& rec, Key key,
                                  txn::ReadResult result,
                                  sim::Promise<txn::ReadResult> promise,
                                  std::uint64_t read_span,
                                  Timestamp issued_at) {
  const Timestamp now = node_.cluster().now();
  if (rec.gate_open()) {
    // Save the event fields, then hand the result itself to the promise —
    // the payload string is never duplicated for bookkeeping.
    const TxId writer = result.writer;
    const Timestamp version_ts = result.version_ts;
    const bool speculative = result.speculative;
    if (promise.try_set_value(std::move(result))) {
      record_read_event(rec.id, key, writer, version_ts, speculative);
      if (rec.first_read_ready_at == 0) rec.first_read_ready_at = now;
      if (tracer_->enabled()) {
        obs::TraceEvent ev{now, rec.id, node_.id(),
                           obs::TraceEventType::ReadReady, key,
                           speculative ? 1u : 0u};
        if (speculative) ev.other = writer;  // speculation-lineage edge
        tracer_->emit(ev);
        if (read_span != 0) {
          tracer_->emit_span({read_span, rec.trace_span, rec.id, node_.id(),
                              obs::SpanKind::Read, issued_at, now, key,
                              speculative ? 1u : 0u});
        }
      }
    }
    return;
  }
  // Alg. 1 line 15: hold the value until min(OLCSet) >= FFC.
  if (tracer_->enabled()) {
    tracer_->emit(
        {now, rec.id, node_.id(), obs::TraceEventType::GateParked, key, 0});
  }
  rec.gate_waiters.push_back(txn::TxnRecord::GateWaiter{
      std::move(promise), std::move(result), key, now, read_span, issued_at});
}

void Coordinator::reeval_gate(txn::TxnRecord& rec) {
  if (rec.gate_waiters.empty() || !rec.gate_open()) return;
  const Timestamp now = node_.cluster().now();
  auto waiters = std::move(rec.gate_waiters);
  rec.gate_waiters.clear();
  for (auto& w : waiters) {
    const TxId writer = w.result.writer;
    const Timestamp version_ts = w.result.version_ts;
    const bool speculative = w.result.speculative;
    if (w.promise.try_set_value(std::move(w.result))) {
      record_read_event(rec.id, w.key, writer, version_ts, speculative);
      const Timestamp stalled = now - w.parked_at;
      rec.gate_stall_total += stalled;
      if (rec.first_read_ready_at == 0) rec.first_read_ready_at = now;
      if (tracer_->enabled()) {
        tracer_->emit({now, rec.id, node_.id(),
                       obs::TraceEventType::GateReleased, w.key, stalled});
        obs::TraceEvent ev{now, rec.id, node_.id(),
                           obs::TraceEventType::ReadReady, w.key,
                           speculative ? 1u : 0u};
        if (speculative) ev.other = writer;
        tracer_->emit(ev);
        if (w.read_span != 0) {
          // The stall is a child of the read it delayed.
          tracer_->emit_span({tracer_->next_span_id(), w.read_span, rec.id,
                              node_.id(), obs::SpanKind::GateStall,
                              w.parked_at, now, w.key, 0});
          tracer_->emit_span({w.read_span, rec.trace_span, rec.id, node_.id(),
                              obs::SpanKind::Read, w.read_issued_at, now,
                              w.key, speculative ? 1u : 0u});
        }
      }
    }
  }
}

void Coordinator::write(const TxId& tx, Key key, Value value) {
  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->finished()) return;  // writes of dead txns no-op
  STR_ASSERT_MSG(rec->phase == txn::TxnPhase::Active,
                 "write after commit request");
  for (auto& [wkey, wvalue] : rec->writes) {
    if (wkey == key) {
      wvalue = std::move(value);
      return;
    }
  }
  rec->writes.emplace_back(key, std::move(value));
}

void Coordinator::user_abort(const TxId& tx) {
  abort_tx(tx, AbortReason::UserAbort);
}

void Coordinator::abort_tx(const TxId& tx, AbortReason reason,
                           const TxId& cascade_of) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  txn::TxnRecord* rec_ptr = find(tx);
  if (rec_ptr == nullptr || rec_ptr->finished()) return;
  txn::TxnRecord& rec = *rec_ptr;
  rec.phase = txn::TxnPhase::Aborted;
  rec.abort_reason = reason;
  if (cluster.protocol().recovery.enabled) {
    record_decision(rec.id, Decision{TxDecision::Aborted, 0, cluster.now()});
  }

  // Remove this transaction's uncommitted versions from local replicas and
  // the cache; parked readers re-route to older versions. Partition ids
  // only — no value copies.
  const TouchedPartitions groups = touched_partitions(rec);
  for (const auto& [pid, updates] : groups.local) {
    node_.replica(pid)->apply_abort(rec.id);
  }
  node_.cache().abort_tx(rec.id);

  // Cascade: everything that speculatively read from us dies too (SPSI-4).
  std::vector<TxId> dependents = rec.dependents;
  for (const TxId& rid : dependents) {
    abort_tx(rid, AbortReason::CascadingAbort, rec.id);
  }

  // Tell every remote replica that may hold (or later receive) our
  // pre-commits to drop them; tombstones make late arrivals harmless.
  for (NodeId n : rec.remote_replica_nodes) {
    for (const auto& [pid, updates] : groups.local) {
      if (!cluster.pmap().replicates(n, pid)) continue;
      wire::post(cluster, node_.id(), n,
                 AbortMessage{rec.id, pid, rec.trace_span});
    }
    for (const auto& [pid, updates] : groups.remote) {
      if (!cluster.pmap().replicates(n, pid)) continue;
      wire::post(cluster, node_.id(), n,
                 AbortMessage{rec.id, pid, rec.trace_span});
    }
  }

  fail_outstanding_reads(rec);

  if (auto* h = cluster.history()) {
    h->on_abort(verify::AbortEvent{rec.id, reason, cluster.now()});
  }
  cluster.metrics().record_abort(cluster.now(), reason, rec.externalized);
  c_aborts_->inc();
  record_phase_timers(rec, cluster.now());
  if (tracer_->enabled()) {
    obs::TraceEvent ev{cluster.now(), rec.id, node_.id(),
                       obs::TraceEventType::TxAbort,
                       static_cast<std::uint64_t>(reason), 0};
    ev.other = cascade_of;  // root-cause edge of the cascade-abort tree
    tracer_->emit(ev);
    if (rec.trace_span != 0) {
      tracer_->emit_span({rec.trace_span, 0, rec.id, node_.id(),
                          obs::SpanKind::Txn, rec.attempt_start, cluster.now(),
                          0, static_cast<std::uint64_t>(reason)});
    }
  }
  deliver_outcome(rec);
  erase(rec.id);
}

sim::Future<txn::TxFinalResult> Coordinator::outcome_future(const TxId& tx) {
  sim::Promise<txn::TxFinalResult> promise(node_.cluster().scheduler());
  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr) {
    // Never registered: begin() was called on a down node (clients obtain
    // the outcome future immediately after begin(), so an erased record
    // cannot be the cause here). Attribute to the crash, not a cascade.
    txn::TxFinalResult dead;
    dead.outcome = TxOutcome::Aborted;
    dead.abort_reason = AbortReason::NodeCrash;
    promise.set_value(dead);
  } else {
    rec->outcome_waiters.push_back(promise);
  }
  return promise.future();
}

sim::Future<txn::TxFinalResult> Coordinator::commit(const TxId& tx) {
  Cluster& cluster = node_.cluster();
  ScopedLogNode log_node(node_.id());
  sim::Promise<txn::TxFinalResult> promise(cluster.scheduler());

  txn::TxnRecord* rec = find(tx);
  if (rec == nullptr || rec->phase == txn::TxnPhase::Aborted) {
    // rec == nullptr is almost always a TxId handed out by begin() on a
    // down node (never registered), so attribute it to the crash. A record
    // torn down by a racing abort also lands here, but its true reason was
    // already delivered through the outcome future registered at begin time.
    txn::TxFinalResult dead;
    dead.outcome = TxOutcome::Aborted;
    dead.abort_reason =
        rec == nullptr ? AbortReason::NodeCrash : rec->abort_reason;
    promise.set_value(dead);
    return promise.future();
  }
  STR_ASSERT_MSG(!rec->commit_requested, "commit requested twice");
  rec->commit_requested = true;
  rec->commit_requested_at = cluster.now();
  rec->outcome_waiters.push_back(promise);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), tx, node_.id(),
                   obs::TraceEventType::CommitRequested, rec->writes.size(),
                   0});
  }

  if (rec->writes.empty()) {
    // Read-only: commit as soon as every data dependency is final (SPSI-4).
    maybe_finalize(*rec);
    return promise.future();
  }

  // One write-set grouping serves both certification phases; the shared
  // per-partition lists then ride every message of the fan-out.
  const WriteGroups groups = group_writes(*rec);
  if (!local_certification(*rec, groups)) {
    return promise.future();  // aborted inside local_certification
  }
  start_global_certification(*rec, groups);
  maybe_finalize(*rec);  // all-local write sets may be ready immediately
  return promise.future();
}

Coordinator::WriteGroups Coordinator::group_writes(
    const txn::TxnRecord& rec) const {
  WriteGroups g;
  const Node& node = node_;
  const PartitionMap& pmap = node.cluster().pmap();
  for (const auto& [key, value] : rec.writes) {
    const PartitionId pid = PartitionMap::partition_of(key);
    // One heap payload per write; the update lists, the cache entry, every
    // fan-out message and every replica's version chain all share it.
    SharedValue shared = std::make_shared<Value>(value);
    if (pmap.replicates(node.id(), pid)) {
      auto& updates = g.local[pid];
      if (!updates) updates = std::make_shared<UpdateList>();
      updates->emplace_back(key, std::move(shared));
    } else {
      auto& updates = g.remote[pid];
      if (!updates) updates = std::make_shared<UpdateList>();
      updates->emplace_back(key, shared);
      g.cache.emplace_back(key, std::move(shared));
    }
  }
  return g;
}

Coordinator::TouchedPartitions Coordinator::touched_partitions(
    const txn::TxnRecord& rec) const {
  TouchedPartitions t;
  const PartitionMap& pmap = node_.cluster().pmap();
  for (const auto& [key, value] : rec.writes) {
    const PartitionId pid = PartitionMap::partition_of(key);
    if (pmap.replicates(node_.id(), pid)) {
      t.local[pid] = true;
    } else {
      t.remote[pid] = true;
    }
  }
  return t;
}

bool Coordinator::local_certification(txn::TxnRecord& rec,
                                      const WriteGroups& groups) {
  Cluster& cluster = node_.cluster();
  const FlatSet<TxId>* chain =
      rec.snapshot_lc_writers.empty() ? nullptr : &rec.snapshot_lc_writers;

  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::LocalCertStart, rec.writes.size(),
                   0});
  }

  // Local 2PC (synchronous: all participants are on this node). Collect
  // proposals; on any conflict, abort (prepared participants are rolled
  // back by the abort path).
  Timestamp lc = rec.rs + 1;
  std::vector<PartitionId> prepared_local;
  bool conflict = false;
  for (const auto& [pid, updates] : groups.local) {
    PartitionActor* actor = node_.replica(pid);
    STR_ASSERT(actor != nullptr);
    store::PrepareResult pr =
        actor->prepare_local(rec.id, rec.rs, *updates, chain);
    if (!pr.ok) {
      conflict = true;
      break;
    }
    prepared_local.push_back(pid);
    lc = std::max(lc, pr.proposed_ts);
  }
  const bool use_cache = spec_active() && !groups.cache.empty();
  if (!conflict && use_cache) {
    store::PrepareResult pr = node_.cache().prepare(
        rec.id, rec.rs, groups.cache, cluster.protocol().precise_clocks,
        node_.physical_now(), chain);
    if (!pr.ok) {
      conflict = true;
    } else {
      lc = std::max(lc, pr.proposed_ts);
    }
  }
  if (conflict) {
    abort_tx(rec.id, AbortReason::LocalCertification);
    return false;
  }

  // Local commit: flip pre-committed versions to local-committed.
  rec.lc = lc;
  rec.max_proposed_ts = lc;
  rec.phase = txn::TxnPhase::LocalCommitted;
  // Pre-commit locks are held from here. Under active speculation the
  // local-committed versions are immediately observable by local readers,
  // so the *effective* lock hold ends now; otherwise readers stay blocked
  // until the final outcome (visible_at set in finalize_commit).
  rec.cert_at = cluster.now();
  if (spec_active()) rec.visible_at = rec.cert_at;
  for (const auto& [pid, updates] : groups.local) {
    node_.replica(pid)->apply_local_commit(rec.id, lc);
  }
  if (use_cache) node_.cache().local_commit(rec.id, lc);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::LocalCertEnd, lc, 0});
    tracer_->emit_span({tracer_->next_span_id(), rec.trace_span, rec.id,
                        node_.id(), obs::SpanKind::LocalCert,
                        rec.commit_requested_at, cluster.now(),
                        rec.writes.size(), 0});
  }

  // An unsafe transaction (updated non-local keys) pins its own read
  // snapshot into its OLCSet (Alg. 1 lines 23-24) so that anyone who reads
  // from it inherits the hazard.
  rec.unsafe_txn = !groups.remote.empty();
  if (rec.unsafe_txn && spec_active()) {
    rec.olc_set.emplace(rec.id, rec.rs);
  }

  if (cluster.protocol().externalize_local_commit) {
    rec.externalized = true;
    rec.externalized_at = cluster.now();
  }

  if (auto* h = cluster.history()) {
    verify::WriteSetEvent ev;
    ev.tx = rec.id;
    ev.ts = lc;
    ev.at = cluster.now();
    ev.keys.reserve(rec.writes.size());
    for (const auto& [key, value] : rec.writes) ev.keys.push_back(key);
    h->on_local_commit(ev);
  }
  return true;
}

void Coordinator::start_global_certification(txn::TxnRecord& rec,
                                             const WriteGroups& groups) {
  Cluster& cluster = node_.cluster();
  const PartitionMap& pmap = cluster.pmap();
  rec.prepares_sent_at = cluster.now();

  // Gather all touched partitions (local-replicated and remote-mastered).
  std::vector<std::pair<PartitionId, const std::shared_ptr<UpdateList>*>>
      parts;
  for (const auto& [pid, updates] : groups.local) {
    parts.emplace_back(pid, &updates);
  }
  for (const auto& [pid, updates] : groups.remote) {
    parts.emplace_back(pid, &updates);
  }

  for (const auto& [pid, updates] : parts) {
    const auto& replicas = pmap.replicas(pid);
    for (NodeId n : replicas) {
      if (n != node_.id()) rec.remote_replica_nodes.insert(n);
    }
    // One certification leg span per expected ack; the id rides the message
    // to the direct target and closes on the first matching PrepareReply.
    const auto open_leg = [&](NodeId n) {
      if (tracer_->enabled()) {
        rec.leg_spans.push_back(
            {pid, n, tracer_->next_span_id(), cluster.now()});
      }
    };
    if (pmap.is_master(node_.id(), pid)) {
      // We are the master: replicate the (already locally certified)
      // pre-commit to the slaves; each slave replies with a proposal.
      for (NodeId slave : replicas) {
        if (slave == node_.id()) continue;
        ++rec.awaiting_prepares;
        rec.prepare_expected.emplace(pid, slave);
        open_leg(slave);
        send_replicate(rec, pid, slave, *updates);
      }
    } else {
      // Remote master certifies; it replicates to its slaves, each of which
      // (except this node, already covered by local certification) replies.
      const NodeId master = pmap.master(pid);
      ++rec.awaiting_prepares;  // master's reply
      rec.prepare_expected.emplace(pid, master);
      open_leg(master);
      for (NodeId n : replicas) {
        if (n != master && n != node_.id()) {
          ++rec.awaiting_prepares;  // slaves
          rec.prepare_expected.emplace(pid, n);
          open_leg(n);
        }
      }
      send_prepare(rec, pid, *updates);
    }
  }
  // All-local write set with no remote replicas: the WAN phase is empty.
  if (rec.awaiting_prepares == 0) {
    rec.prepares_done_at = rec.prepares_sent_at;
  } else if (cluster.protocol().recovery.enabled) {
    arm_prepare_timer(rec.id);
  }
}

void Coordinator::send_prepare(const txn::TxnRecord& rec, PartitionId pid,
                               SharedUpdates updates) {
  Cluster& cluster = node_.cluster();
  const NodeId master = cluster.pmap().master(pid);
  PrepareRequest req;
  req.tx = rec.id;
  req.coordinator = node_.id();
  req.partition = pid;
  req.rs = rec.rs;
  req.updates = std::move(updates);
  req.tspan = rec.leg_span_of(pid, master);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::PrepareSent, master, pid});
  }
  // The request is only read by the handler (updates are shared and
  // immutable), so a duplicated delivery replays the same intact payload.
  wire::post(cluster, node_.id(), master, std::move(req));
}

void Coordinator::send_replicate(const txn::TxnRecord& rec, PartitionId pid,
                                 NodeId slave, SharedUpdates updates) {
  Cluster& cluster = node_.cluster();
  ReplicateRequest rep;
  rep.tx = rec.id;
  rep.coordinator = node_.id();
  rep.partition = pid;
  rep.rs = rec.rs;
  rep.updates = std::move(updates);
  rep.tspan = rec.leg_span_of(pid, slave);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::PrepareSent, slave, pid});
  }
  wire::post(cluster, node_.id(), slave, std::move(rep));
}

void Coordinator::resend_prepares(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  const PartitionMap& pmap = cluster.pmap();
  WriteGroups groups = group_writes(rec);
  // Partitions with at least one missing ack. For partitions mastered here
  // the replicate goes straight to the silent slave; for remote-mastered
  // partitions the prepare is re-sent to the master, which re-answers
  // idempotently and re-replicates to its slaves (any of which may be the
  // one whose reply was lost).
  FlatSet<PartitionId> remote_missing;
  for (const auto& [pid, n] : rec.prepare_expected) {
    if (rec.prepare_acks.contains({pid, n})) continue;
    if (pmap.is_master(node_.id(), pid)) {
      c_rpc_retries_->inc();
      send_replicate(rec, pid, n, groups.local.at(pid));
    } else {
      remote_missing.insert(pid);
    }
  }
  for (PartitionId pid : remote_missing) {
    c_rpc_retries_->inc();
    const auto& updates = groups.local.contains(pid) ? groups.local.at(pid)
                                                     : groups.remote.at(pid);
    send_prepare(rec, pid, updates);
  }
}

void Coordinator::arm_prepare_timer(const TxId& tx) {
  txn::TxnRecord* rec = find(tx);
  STR_ASSERT(rec != nullptr);
  const std::uint64_t round = rec->prepare_round;
  node_.cluster().scheduler().schedule_after(
      backoff(rec->prepare_attempts), [this, tx, round]() {
        txn::TxnRecord* r = find(tx);
        if (r == nullptr || r->finished()) return;
        if (r->awaiting_prepares == 0 || r->prepare_round != round) return;
        ScopedLogNode log_node(node_.id());
        c_rpc_timeouts_->inc();
        const RecoveryConfig& rc = node_.cluster().protocol().recovery;
        if (r->prepare_attempts >= rc.max_prepare_retries) {
          abort_tx(tx, AbortReason::Timeout);
          return;
        }
        ++r->prepare_attempts;
        ++r->prepare_round;
        resend_prepares(*r);
        arm_prepare_timer(tx);
      });
}

void Coordinator::on_prepare_reply(PrepareReply reply) {
  ScopedLogNode log_node(node_.id());
  txn::TxnRecord* rec = find(reply.tx);
  if (rec == nullptr || rec->finished()) return;  // already decided
  // Idempotence: duplicated deliveries and re-sent prepares both produce a
  // second reply from the same (partition, node); only the first counts.
  if (!rec->prepare_acks.emplace(reply.partition, reply.from).second) return;
  if (tracer_->enabled()) {
    const Timestamp now = node_.cluster().now();
    tracer_->emit({now, reply.tx, node_.id(),
                   obs::TraceEventType::PrepareAck, reply.from,
                   reply.prepared ? 0u : 1u});
    for (const txn::TxnRecord::LegSpan& l : rec->leg_spans) {
      if (l.partition == reply.partition && l.node == reply.from) {
        tracer_->emit_span({l.span, rec->trace_span, reply.tx, node_.id(),
                            obs::SpanKind::PrepareLeg, l.sent_at, now,
                            reply.partition, reply.from});
        break;
      }
    }
  }
  if (!reply.prepared) {
    abort_tx(reply.tx, AbortReason::GlobalCertification);
    return;
  }
  rec->max_proposed_ts = std::max(rec->max_proposed_ts, reply.proposed_ts);
  STR_ASSERT(rec->awaiting_prepares > 0);
  --rec->awaiting_prepares;
  if (rec->awaiting_prepares == 0) {
    rec->prepares_done_at = node_.cluster().now();
  }
  maybe_finalize(*rec);
}

void Coordinator::maybe_finalize(txn::TxnRecord& rec) {
  if (!rec.commit_requested || rec.finished()) return;
  if (rec.awaiting_prepares > 0) return;
  if (!rec.unresolved_deps.empty()) {
    // SPSI-4 wait: certification is done but a speculatively-read writer's
    // final outcome is still unknown.
    if (rec.dep_wait_start == 0) {
      rec.dep_wait_start = node_.cluster().now();
      if (tracer_->enabled()) {
        tracer_->emit({rec.dep_wait_start, rec.id, node_.id(),
                       obs::TraceEventType::DepWait,
                       rec.unresolved_deps.size(), 0});
      }
    }
    return;
  }
  finalize_commit(rec);
}

void Coordinator::finalize_commit(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  STR_ASSERT(rec.unresolved_deps.empty());

  const Timestamp ct = rec.writes.empty()
                           ? rec.rs
                           : std::max(rec.max_proposed_ts, rec.rs + 1);
  rec.fc = ct;
  rec.phase = txn::TxnPhase::Committed;
  if (cluster.protocol().recovery.enabled && decision_wal_ == nullptr) {
    // Durable decision record: answers participant probes after a crash.
    // In WAL mode this entry is written only once the decision record is
    // actually synced — answering a probe "Committed" from a decision a
    // crash could still erase would let a participant apply a commit this
    // coordinator later presumes aborted.
    record_decision(rec.id, Decision{TxDecision::Committed, ct, cluster.now()});
  }

  // Read-only transactions skip the barrier: a crash can lose nothing of
  // theirs, and no participant will ever probe for their decision.
  if (decision_wal_ == nullptr || rec.writes.empty()) {
    finalize_commit_apply(rec);
    return;
  }

  // Durability barrier (docs/DURABILITY.md): the commit record must be on
  // stable storage at every local replica *before* the decision record, so
  // "decision durable" implies "writes durable"; and the apply (version
  // flips, fan-out, client ack) waits for the decision sync — nothing is
  // acknowledged that a crash could un-commit. A crash inside the window
  // drops these callbacks with the logs' pending tails; on_crash resolves
  // the record from the decision log's durable prefix instead.
  const TxId tx = rec.id;
  auto on_writes_durable = [this, tx, ct]() {
    txn::TxnRecord* r = find(tx);
    if (r == nullptr || r->phase != txn::TxnPhase::Committed) return;
    auto on_decided = [this, tx, ct]() {
      txn::TxnRecord* r2 = find(tx);
      if (r2 == nullptr || r2->phase != txn::TxnPhase::Committed) return;
      r2->wal_decision_end = 0;  // decision consumed; offset not live
      // Now — and only now — the decision may answer probes.
      record_decision(
          tx, Decision{TxDecision::Committed, ct, node_.cluster().now()});
      finalize_commit_apply(*r2);
    };
    if (rlog_ != nullptr) {
      // Quorum commit point (docs/DURABILITY.md §8): the apply waits for
      // the decision to be durable locally AND on quorum-1 replica-group
      // members. The fan-out starts only after the local fsync, so a
      // member's copy always implies this node's replay agrees.
      r->wal_decision_end =
          rlog_->append(tx, ct, node_.cluster().now(), std::move(on_decided));
      return;
    }
    wire::Buffer frame;
    storage::encode_decision(frame, tx, ct, node_.cluster().now());
    r->wal_decision_end =
        decision_wal_->append(std::move(frame), std::move(on_decided));
  };
  const TouchedPartitions groups = touched_partitions(rec);
  if (groups.local.empty()) {
    on_writes_durable();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(groups.local.size());
  for (const auto& [pid, updates] : groups.local) {
    node_.replica(pid)->log_commit(
        tx, ct, [remaining, next = on_writes_durable]() mutable {
          if (--*remaining == 0) next();
        });
  }
}

void Coordinator::finalize_commit_apply(txn::TxnRecord& rec) {
  Cluster& cluster = node_.cluster();
  const Timestamp ct = rec.fc;
  // Without speculation the writes only become observable now.
  if (rec.cert_at != 0 && rec.visible_at == 0) rec.visible_at = cluster.now();

  // Ext-Spec surfaces read-only results at commit time (they have no global
  // certification to speculate over); recording this keeps the speculative-
  // latency population comparable with final latency.
  if (cluster.protocol().externalize_local_commit && !rec.externalized) {
    rec.externalized = true;
    rec.externalized_at = cluster.now();
  }

  // Apply locally: flip local-committed versions to committed, drop the
  // cached remote-key copies (Alg. 1 line 44). Only partition ids are
  // needed from here on — not the values, so skip the write-set copy.
  const TouchedPartitions groups = touched_partitions(rec);
  for (const auto& [pid, updates] : groups.local) {
    // In WAL mode the durability barrier already logged the commit record.
    node_.replica(pid)->apply_commit(rec.id, ct,
                                     /*already_logged=*/decision_wal_ !=
                                         nullptr);
  }
  node_.cache().final_commit(rec.id);

  // Alg. 1 lines 37-43: resolve dependents before the commit is visible.
  resolve_dependents_on_commit(rec);

  // Fan the decision out to every remote replica of an updated partition.
  for (const auto& [pid, updates] : groups.local) {
    for (NodeId n : cluster.pmap().replicas(pid)) {
      if (n == node_.id()) continue;
      wire::post(cluster, node_.id(), n,
                 CommitMessage{rec.id, pid, ct, rec.trace_span});
    }
  }
  for (const auto& [pid, updates] : groups.remote) {
    for (NodeId n : cluster.pmap().replicas(pid)) {
      if (n == node_.id()) continue;
      wire::post(cluster, node_.id(), n,
                 CommitMessage{rec.id, pid, ct, rec.trace_span});
    }
  }

  if (auto* h = cluster.history()) {
    verify::WriteSetEvent ev;
    ev.tx = rec.id;
    ev.ts = ct;
    ev.at = cluster.now();
    ev.keys.reserve(rec.writes.size());
    for (const auto& [key, value] : rec.writes) ev.keys.push_back(key);
    h->on_final_commit(ev);
  }
  cluster.metrics().record_commit(cluster.now(), rec.first_activation,
                                  rec.externalized_at);
  c_commits_->inc();
  record_phase_timers(rec, cluster.now());
  t_commit_snap_dist_->record(ct - rec.rs);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::TxCommit, ct, ct - rec.rs});
    if (rec.dep_wait_start != 0) {
      tracer_->emit_span({tracer_->next_span_id(), rec.trace_span, rec.id,
                          node_.id(), obs::SpanKind::DepWait,
                          rec.dep_wait_start, cluster.now(), 0, 0});
    }
    if (rec.trace_span != 0) {
      tracer_->emit_span({rec.trace_span, 0, rec.id, node_.id(),
                          obs::SpanKind::Txn, rec.attempt_start, cluster.now(),
                          1, ct});
    }
  }
  // Quorum mode: the client is about to see Commit. Note it so a recovery
  // path that later aborts this transaction is flagged as a lost commit.
  if (rlog_ != nullptr && !rec.writes.empty()) {
    cluster.note_commit_acked(rec.id);
  }
  deliver_outcome(rec);
  erase(rec.id);
}

void Coordinator::record_phase_timers(const txn::TxnRecord& rec,
                                      Timestamp final_at) {
  if (rec.first_read_ready_at != 0) {
    t_first_read_->record(rec.first_read_ready_at - rec.attempt_start);
  }
  // Gate stall is recorded only for transactions that actually parked, so
  // the timer's mean reads "stall duration when stalled" (its count gives
  // the stall frequency).
  if (rec.gate_stall_total != 0) t_gate_stall_->record(rec.gate_stall_total);
  if (rec.cert_at != 0) {
    // Local certification is a synchronous local 2PC: zero virtual duration
    // by construction. Recorded anyway so the breakdown states that fact.
    t_local_cert_->record(rec.cert_at - rec.commit_requested_at);
    const Timestamp visible = rec.visible_at != 0 ? rec.visible_at : final_at;
    t_lock_hold_->record(visible - rec.cert_at);
    t_lock_hold_total_->record(final_at - rec.cert_at);
  }
  if (rec.prepares_sent_at != 0) {
    const Timestamp done =
        rec.prepares_done_at != 0 ? rec.prepares_done_at : final_at;
    t_wan_prepare_->record(done - rec.prepares_sent_at);
  }
  if (rec.dep_wait_start != 0) {
    t_dep_wait_->record(final_at - rec.dep_wait_start);
  }
}

void Coordinator::resolve_dependents_on_commit(txn::TxnRecord& rec) {
  const Timestamp ct = rec.fc;
  std::vector<TxId> dependents = rec.dependents;
  for (const TxId& rid : dependents) {
    txn::TxnRecord* reader = find(rid);
    if (reader == nullptr || reader->finished()) continue;
    if (reader->rs >= ct) {
      // The writer's final timestamp is inside the reader's snapshot: the
      // speculation was correct. The reader inherits the commit.
      reader->olc_set.erase(rec.id);
      reader->ffc = std::max(reader->ffc, ct);
      reader->unresolved_deps.erase(rec.id);
      if (tracer_->enabled()) {
        tracer_->emit({node_.cluster().now(), rid, node_.id(),
                       obs::TraceEventType::DepResolved,
                       reader->unresolved_deps.size(), 0});
      }
      reeval_gate(*reader);
      maybe_finalize(*reader);
    } else {
      // SPSI-1 would be violated: the version the reader observed now has a
      // commit timestamp beyond its snapshot.
      abort_tx(rid, AbortReason::Misspeculation);
    }
  }
}

void Coordinator::on_decision_request(DecisionRequest req) {
  ScopedLogNode log_node(node_.id());
  Cluster& cluster = node_.cluster();
  if (cluster.decision_quorum_enabled() && req.tx.node != node_.id()) {
    // Census probe against this node's replica copy of another
    // coordinator's decision. A member only ever reports what its copy
    // holds — the absence of a copy here proves nothing about the quorum,
    // so there is no presumed-abort branch on this path.
    DecisionReplicateAck rep;
    rep.tx = req.tx;
    rep.partition = req.partition;
    rep.from = node_.id();
    TxDecision d = TxDecision::Unknown;
    Timestamp ct = 0;
    if (find_decision(req.tx, &d, &ct) && d == TxDecision::Committed) {
      rep.kind = DecisionAckKind::kCommitted;
      rep.commit_ts = ct;
    } else {
      rep.kind = DecisionAckKind::kNoRecord;
    }
    wire::post(cluster, node_.id(), req.from, std::move(rep));
    return;
  }
  DecisionReply rep;
  rep.tx = req.tx;
  rep.partition = req.partition;
  if (auto it = decided_.find(req.tx); it != decided_.end()) {
    rep.decision = it->second.decision;
    rep.commit_ts = it->second.commit_ts;
  } else if (find(req.tx) != nullptr) {
    rep.decision = TxDecision::Unknown;  // still in flight; keep waiting
  } else {
    // No live record and no durable decision: this coordinator never logged
    // a commit for the transaction, so it cannot have committed anywhere —
    // presumed abort.
    rep.decision = TxDecision::Aborted;
  }
  if (tracer_->enabled()) {
    const std::uint64_t hspan = tracer_->next_span_id();
    tracer_->emit_span(
        {hspan, req.tspan, req.tx, node_.id(), obs::SpanKind::Handle,
         cluster.now(), cluster.now(),
         static_cast<std::uint64_t>(wire::MessageType::kDecisionRequest),
         req.partition});
    rep.tspan = hspan;
  }
  wire::post(cluster, node_.id(), req.from, std::move(rep));
}

void Coordinator::on_decision_replicate(const DecisionReplicate& m) {
  ScopedLogNode log_node(node_.id());
  Cluster& cluster = node_.cluster();
  STR_ASSERT_MSG(decision_wal_ != nullptr,
                 "decision replication without a decision log");
  if (!node_.up()) return;
  // Freeze the copy set the instant the origin dies: a census may already
  // be counting NoRecord answers over the surviving members, and a copy
  // materializing from a frame that was in flight at the crash would let
  // two probes of the same round disagree. Dropping is safe — the origin
  // fsynced before fanning out, so the decision itself is never lost, only
  // (at worst) unreachable until the origin restarts.
  if (!cluster.node_up(m.origin)) return;
  // Duplicate copies (retransmits) are harmless in the log — replay
  // overwrites the same entry — but skip the append when the copy is
  // already durable here to keep the member log from growing per resend.
  if (auto it = decided_.find(m.tx);
      it != decided_.end() && it->second.decision == TxDecision::Committed) {
    DecisionReplicateAck ack;
    ack.tx = m.tx;
    ack.from = node_.id();
    ack.kind = DecisionAckKind::kAck;
    ack.commit_ts = m.commit_ts;
    wire::post(cluster, node_.id(), m.origin, std::move(ack));
    return;
  }
  wire::Buffer frame;
  storage::encode_decision(frame, m.tx, m.commit_ts, m.decided_at);
  decision_wal_->append(
      std::move(frame),
      [this, tx = m.tx, ct = m.commit_ts, origin = m.origin]() {
        if (!node_.up()) return;  // crashed while the copy was flushing
        // The copy is durable: it now answers census probes and survives
        // this node's own restart (replay_decisions rebuilds it).
        record_decision(
            tx, Decision{TxDecision::Committed, ct, node_.cluster().now()});
        DecisionReplicateAck ack;
        ack.tx = tx;
        ack.from = node_.id();
        ack.kind = DecisionAckKind::kAck;
        ack.commit_ts = ct;
        wire::post(node_.cluster(), node_.id(), origin, std::move(ack));
      });
}

void Coordinator::on_decision_replicate_ack(const DecisionReplicateAck& m) {
  ScopedLogNode log_node(node_.id());
  STR_ASSERT(m.kind == DecisionAckKind::kAck);
  if (rlog_ == nullptr || !node_.up()) return;
  rlog_->on_ack(m.tx, m.from);
}

void Coordinator::on_census_reply(const DecisionReplicateAck& rep) {
  ScopedLogNode log_node(node_.id());
  auto it = census_.find(rep.tx);
  if (it == census_.end()) return;  // settled meanwhile
  const Census::Verdict v = it->second.on_reply(node_, rep, nullptr);
  if (v == Census::Verdict::kPending) return;
  // An abort concluded past the deadline may count a pruned copy as
  // kNoRecord; the next tick settles by the origin's copy instead.
  if (v == Census::Verdict::kAborted && past_census_deadline(rep.tx)) return;
  settle_own(rep.tx, v == Census::Verdict::kCommitted);
}

bool Coordinator::past_census_deadline(const TxId& tx) const {
  return node_.cluster().now() >=
         decided_.at(tx).at +
             node_.cluster().protocol().recovery.decision_log_retention;
}

void Coordinator::census_tick(std::uint64_t gen) {
  if (gen != census_gen_ || census_.empty()) return;
  ScopedLogNode log_node(node_.id());
  std::vector<TxId> open;
  open.reserve(census_.size());
  for (const auto& [tx, c] : census_) open.push_back(tx);
  std::sort(open.begin(), open.end());
  for (const TxId& tx : open) {
    // Members drop their copies decision_log_retention after the decision,
    // so from then on a kNoRecord no longer means "no copy": a census still
    // open (a member down all along) trusts the origin's durable copy, as
    // replay_decisions does for decisions older than the census window.
    if (past_census_deadline(tx)) {
      settle_own(tx, true);
      continue;
    }
    const Census::Verdict v =
        census_.at(tx).tick(node_, tx, kInvalidPartition, nullptr);
    if (v != Census::Verdict::kPending) {
      settle_own(tx, v == Census::Verdict::kCommitted);
    }
  }
  if (census_.empty()) return;
  node_.cluster().scheduler().schedule_after(
      node_.cluster().protocol().recovery.orphan_timeout,
      [this, gen]() { census_tick(gen); });
}

void Coordinator::settle(const TxId& tx, bool committed, Timestamp commit_ts,
                         PartitionActor& at) {
  if (committed) {
    at.apply_commit(tx, commit_ts);
  } else {
    c_orphan_aborts_->inc();
    at.apply_abort(tx);
  }
  node_.cluster().resolve_in_doubt(tx, committed);
}

void Coordinator::settle_own(const TxId& tx, bool committed) {
  census_.erase(tx);
  Decision& d = decided_.at(tx);
  if (committed) {
    d.decision = TxDecision::Committed;
  } else {
    record_decision(tx,
                    Decision{TxDecision::Aborted, 0, node_.cluster().now()});
    // Durable abort: a later replay reads it after the kDecision record and
    // cannot re-derive the commit. Until it syncs, a crash re-runs the
    // census, which reaches the same verdict over the frozen copy set.
    wire::Buffer frame;
    storage::encode_abort(frame, tx);
    decision_wal_->append(std::move(frame));
  }
  for (PartitionId pid : node_.sorted_pids()) {
    PartitionActor* r = node_.replica(pid);
    if (!r->store().has_uncommitted(tx)) continue;
    if (committed) {
      r->apply_commit(tx, d.commit_ts, /*already_logged=*/true);
    } else {
      r->apply_abort(tx);
    }
  }
  node_.cluster().resolve_in_doubt(tx, committed);
}

void Coordinator::on_crash() {
  // Abort in sorted TxId order: txns_ is an unordered_map and the abort path
  // has observable side effects (metrics, history, cascades).
  std::vector<TxId> live;
  live.reserve(txns_.size());
  for (const auto& [id, rec] : txns_) live.push_back(id);
  std::sort(live.begin(), live.end());
  if (decision_wal_ == nullptr) {
    for (const TxId& id : live) abort_tx(id, AbortReason::NodeCrash);
    pending_remote_.clear();
    return;
  }
  // WAL mode. The node crashed the media first, so durable_prefix() is the
  // final word: a transaction in its commit-durability window committed iff
  // its decision record made that prefix. Offsets of live records are valid
  // against it — compaction only rewrites an idle log, and a pending
  // decision sync keeps the log non-idle.
  // Quorum mode: drop the ack barriers and invalidate retransmit timers
  // before the sweep; the decisions themselves outlive the tracking.
  if (rlog_ != nullptr) rlog_->on_crash();
  const std::uint64_t valid = decision_wal_->durable_prefix();
  for (const TxId& id : live) {
    txn::TxnRecord* rec = find(id);
    if (rec == nullptr) continue;  // cascaded away by an earlier abort
    // Note finished() is TRUE for the commit-durability window (phase is
    // Committed, only the apply is pending) — check the phase, not it.
    if (rec->phase == txn::TxnPhase::Committed) {
      const bool durable =
          rec->wal_decision_end != 0 && rec->wal_decision_end <= valid;
      crash_teardown_committed(*rec, durable);
    } else {
      abort_tx(id, AbortReason::NodeCrash);
    }
  }
  pending_remote_.clear();
  // decided_ is no longer magically durable: forget everything and let
  // replay_decisions() rebuild exactly the synced prefix on restart.
  clear_decisions();
  census_.clear();
  ++census_gen_;
}

void Coordinator::crash_teardown_committed(txn::TxnRecord& rec,
                                           bool durable) {
  Cluster& cluster = node_.cluster();
  if (durable && rlog_ != nullptr) {
    // Quorum mode, decision locally durable, apply never ran: the quorum
    // barrier was still open, so the fate depends on state this dead node
    // cannot see — whether a member holds a durable copy. Neither "durable
    // => committed" nor presumed abort is sound here; the census decides
    // (docs/DURABILITY.md §8), run by the participants while this node is
    // down and by this node itself after its restart. Park the transaction
    // in the cluster's in-doubt registry; the first settle emits the one
    // history event. The client sees a crash abort now — standard 2PC: an
    // unacknowledged outcome may still settle Commit later.
    Cluster::InDoubtInfo info;
    info.commit_ts = rec.fc;
    info.reg_at = cluster.now();
    info.first_activation = rec.first_activation;
    info.externalized_at = rec.externalized_at;
    info.externalized = rec.externalized;
    info.keys.reserve(rec.writes.size());
    for (const auto& [key, value] : rec.writes) info.keys.push_back(key);
    cluster.register_in_doubt(rec.id, std::move(info));
    rec.phase = txn::TxnPhase::Aborted;
    rec.abort_reason = AbortReason::NodeCrash;
    node_.cache().abort_tx(rec.id);
    fail_outstanding_reads(rec);
    record_phase_timers(rec, cluster.now());
    if (tracer_->enabled()) {
      tracer_->emit({cluster.now(), rec.id, node_.id(),
                     obs::TraceEventType::TxAbort,
                     static_cast<std::uint64_t>(AbortReason::NodeCrash), 0});
      if (rec.trace_span != 0) {
        tracer_->emit_span(
            {rec.trace_span, 0, rec.id, node_.id(), obs::SpanKind::Txn,
             rec.attempt_start, cluster.now(), 0,
             static_cast<std::uint64_t>(AbortReason::NodeCrash)});
      }
    }
    deliver_outcome(rec);
    erase(rec.id);
    return;
  }
  if (!durable) {
    // The decision never reached stable storage, so no ack left this node
    // and no participant can hold a commit record for it: presumed abort,
    // exactly what replay and orphan probes will conclude.
    rec.phase = txn::TxnPhase::Aborted;
    rec.abort_reason = AbortReason::NodeCrash;
    node_.cache().abort_tx(rec.id);
    // Dependents die in the same on_crash sweep; no cascade call needed.
    fail_outstanding_reads(rec);
    if (auto* h = cluster.history()) {
      h->on_abort(verify::AbortEvent{rec.id, AbortReason::NodeCrash,
                                     cluster.now()});
    }
    cluster.metrics().record_abort(cluster.now(), AbortReason::NodeCrash,
                                   rec.externalized);
    c_aborts_->inc();
    record_phase_timers(rec, cluster.now());
    if (tracer_->enabled()) {
      tracer_->emit({cluster.now(), rec.id, node_.id(),
                     obs::TraceEventType::TxAbort,
                     static_cast<std::uint64_t>(AbortReason::NodeCrash), 0});
      if (rec.trace_span != 0) {
        tracer_->emit_span(
            {rec.trace_span, 0, rec.id, node_.id(), obs::SpanKind::Txn,
             rec.attempt_start, cluster.now(), 0,
             static_cast<std::uint64_t>(AbortReason::NodeCrash)});
      }
    }
    deliver_outcome(rec);
    erase(rec.id);
    return;
  }
  // Decision durable: the transaction IS committed — replay will install
  // its writes and this node will answer probes Committed. Tear down as a
  // commit, minus the store application and fan-out (the store is about to
  // be wiped and the network already dropped this endpoint).
  const Timestamp ct = rec.fc;
  node_.cache().final_commit(rec.id);
  fail_outstanding_reads(rec);
  if (auto* h = cluster.history()) {
    verify::WriteSetEvent ev;
    ev.tx = rec.id;
    ev.ts = ct;
    ev.at = cluster.now();
    ev.keys.reserve(rec.writes.size());
    for (const auto& [key, value] : rec.writes) ev.keys.push_back(key);
    h->on_final_commit(ev);
  }
  cluster.metrics().record_commit(cluster.now(), rec.first_activation,
                                  rec.externalized_at);
  c_commits_->inc();
  record_phase_timers(rec, cluster.now());
  t_commit_snap_dist_->record(ct - rec.rs);
  if (tracer_->enabled()) {
    tracer_->emit({cluster.now(), rec.id, node_.id(),
                   obs::TraceEventType::TxCommit, ct, ct - rec.rs});
    if (rec.trace_span != 0) {
      tracer_->emit_span({rec.trace_span, 0, rec.id, node_.id(),
                          obs::SpanKind::Txn, rec.attempt_start,
                          cluster.now(), 1, ct});
    }
  }
  deliver_outcome(rec);
  erase(rec.id);
}

void Coordinator::replay_decisions() {
  STR_ASSERT(decision_wal_ != nullptr);
  Cluster& cluster = node_.cluster();
  clear_decisions();
  const storage::WalScanResult scan =
      decision_wal_->replay([&](const storage::WalRecord& rec) {
        if (rec.type == storage::WalRecordType::kDecision) {
          record_decision(rec.tx,
                          Decision{TxDecision::Committed, rec.ts, rec.at});
        } else if (rec.type == storage::WalRecordType::kAbort) {
          // A census settled this decision abort (quorum mode).
          record_decision(rec.tx,
                          Decision{TxDecision::Aborted, 0, cluster.now()});
        }
      });
  if (scan.torn) {
    STR_INFO("node %u decision log torn; recovered %llu bytes",
             static_cast<unsigned>(node_.id()),
             static_cast<unsigned long long>(scan.valid_bytes));
  }
  if (rlog_ == nullptr) return;
  // Quorum mode: this node's own durable decision is not authoritative — a
  // barrier the crash interrupted may have left no member copy, and then
  // the participants' census has presumed abort everywhere else. Any own
  // decision that can have been in doubt goes to the census instead. A
  // member copy outlives its append by decision_log_retention, and the
  // census may take orphan_down_probes rounds at orphan_interval_cap, so
  // the decisions younger than the difference are the smallest superset
  // the census can still settle soundly: it covers every barrier in flight
  // at the crash as long as downtime plus barrier stay inside it.
  const RecoveryConfig& rc = cluster.protocol().recovery;
  const Timestamp budget = rc.orphan_down_probes * rc.orphan_interval_cap;
  const Timestamp window = rc.decision_log_retention > budget
                               ? rc.decision_log_retention - budget
                               : 0;
  const Timestamp now = cluster.now();
  const Timestamp horizon = now > window ? now - window : 0;
  for (auto& [tx, d] : decided_) {
    if (tx.node != node_.id() || d.decision != TxDecision::Committed ||
        d.at < horizon) {
      continue;
    }
    d.decision = TxDecision::Unknown;
    census_.try_emplace(tx);
  }
  c_census_decisions_->inc(census_.size());
  if (census_.empty()) return;
  // First round once the partitions have replayed (the staged writes must
  // exist before a verdict can install or drop them).
  cluster.scheduler().schedule_now(
      [this, gen = census_gen_]() { census_tick(gen); });
}

void Coordinator::record_decision(const TxId& tx, const Decision& d) {
  auto [it, inserted] = decided_.try_emplace(tx);
  if (inserted || it->second.at != d.at) {
    retire_queue_.emplace_back(d.at, tx);
    std::push_heap(retire_queue_.begin(), retire_queue_.end(),
                   std::greater<>{});
  }
  it->second = d;
}

void Coordinator::clear_decisions() {
  decided_.clear();
  retire_queue_.clear();
  retire_overdue_.clear();
}

void Coordinator::maintain(Timestamp now) {
  if (decided_.empty() && decision_wal_ == nullptr) return;
  const Timestamp keep = node_.cluster().protocol().recovery.decision_log_retention;
  const Timestamp cutoff = now > keep ? now - keep : 0;
  // Only decisions past the cutoff are visited: the ones that just crossed
  // it, and the ones an earlier tick had to keep.
  while (!retire_queue_.empty() && retire_queue_.front().first < cutoff) {
    std::pop_heap(retire_queue_.begin(), retire_queue_.end(),
                  std::greater<>{});
    retire_overdue_.push_back(retire_queue_.back());
    retire_queue_.pop_back();
  }
  if (!retire_overdue_.empty()) {
    // A commit decision outlives its retention while one of this node's
    // partition logs still holds the commit record it validates at replay:
    // dropping it would turn that record into a presumed abort.
    std::vector<TxId> pinned;
    if (decision_wal_ != nullptr) {
      for (const auto& [pid, actor] : node_.replicas()) {
        for (const auto& [tx, ct] : actor->own_commit_records()) {
          pinned.push_back(tx);
        }
      }
      std::sort(pinned.begin(), pinned.end());
    }
    // Decisions under the restart census stay until they settle.
    std::erase_if(retire_overdue_, [&](const auto& entry) {
      const auto& [at, tx] = entry;
      auto it = decided_.find(tx);
      if (it == decided_.end() || it->second.at != at) return true;  // stale
      if (it->second.decision == TxDecision::Unknown ||
          std::binary_search(pinned.begin(), pinned.end(), tx)) {
        return false;
      }
      decided_.erase(it);
      return true;
    });
  }
  // Decision-log compaction: rewrite the surviving entries once the log has
  // grown by its last compaction (at least decision_log_max_bytes) — the
  // partition logs' checkpoint rule. Only when idle — a pending decision
  // sync holds a live offset into the log that a rewrite would invalidate.
  if (decision_wal_ != nullptr && node_.up() &&
      decision_wal_->rewrite_due(
          node_.cluster().protocol().durability.decision_log_max_bytes)) {
    std::vector<std::pair<TxId, Decision>> keep_entries(decided_.begin(),
                                                        decided_.end());
    std::sort(keep_entries.begin(), keep_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    wire::Buffer log;
    for (const auto& [tx, d] : keep_entries) {
      // Aborts need no record: dropping the commit with them presumes
      // abort. Unsettled (Unknown) decisions are durable commit decisions.
      if (d.decision == TxDecision::Aborted) continue;
      storage::encode_decision(log, tx, d.commit_ts, d.at);
    }
    // Quorum mode: a decision still inside its barrier is durable but not
    // yet in decided_. Carry it over and re-point its crash-time offset
    // into the rewritten log, or a crash would find it neither durable nor
    // replayable while members hold copies of it.
    std::vector<txn::TxnRecord*> in_barrier;
    for (const auto& [tx, rec] : txns_) {
      if (rec->phase == txn::TxnPhase::Committed &&
          rec->wal_decision_end != 0) {
        in_barrier.push_back(rec.get());
      }
    }
    std::sort(in_barrier.begin(), in_barrier.end(),
              [](const auto* a, const auto* b) { return a->id < b->id; });
    for (txn::TxnRecord* rec : in_barrier) {
      storage::encode_decision(log, rec->id, rec->fc,
                               node_.cluster().now());
      rec->wal_decision_end = log.size();
    }
    decision_wal_->rewrite(std::move(log));
  }
}

void Coordinator::deliver_outcome(txn::TxnRecord& rec) {
  txn::TxFinalResult result;
  if (rec.phase == txn::TxnPhase::Committed) {
    result.outcome = TxOutcome::Committed;
    result.commit_ts = rec.fc;
  } else {
    result.outcome = TxOutcome::Aborted;
    result.abort_reason = rec.abort_reason;
  }
  result.externalized_at = rec.externalized_at;
  for (auto& p : rec.outcome_waiters) p.try_set_value(result);
  rec.outcome_waiters.clear();
}

void Coordinator::fail_outstanding_reads(txn::TxnRecord& rec) {
  txn::ReadResult dead;
  dead.aborted = true;
  for (auto& p : rec.outstanding_reads) p.try_set_value(dead);
  rec.outstanding_reads.clear();
  rec.gate_waiters.clear();
}

void Coordinator::erase(const TxId& tx) {
  // Pending remote-read entries for this transaction are dropped (their
  // promises were already fulfilled with aborted=true); a late reply finds
  // no entry and is ignored.
  std::erase_if(pending_remote_,
                [&tx](const auto& kv) { return kv.second.tx == tx; });
  auto it = txns_.find(tx);
  if (it == txns_.end()) return;
  // Recycle the record: reset now (released promises and shared payloads
  // should not outlive the transaction), park it for the next begin().
  it->second->reset();
  record_pool_.push_back(std::move(it->second));
  txns_.erase(it);
  g_live_->add(-1);
}

}  // namespace str::protocol
