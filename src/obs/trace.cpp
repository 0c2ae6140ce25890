#include "obs/trace.hpp"

#include "common/assert.hpp"

namespace str::obs {

const char* to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::TxBegin: return "tx_begin";
    case TraceEventType::ReadIssued: return "read_issued";
    case TraceEventType::ReadReady: return "read_ready";
    case TraceEventType::GateParked: return "gate_parked";
    case TraceEventType::GateReleased: return "gate_released";
    case TraceEventType::LocalCertStart: return "local_cert_start";
    case TraceEventType::LocalCertEnd: return "local_cert_end";
    case TraceEventType::PrepareSent: return "prepare_sent";
    case TraceEventType::PrepareAck: return "prepare_ack";
    case TraceEventType::DepWait: return "dep_wait";
    case TraceEventType::DepResolved: return "dep_resolved";
    case TraceEventType::TxCommit: return "tx_commit";
    case TraceEventType::TxAbort: return "tx_abort";
    case TraceEventType::CommitRequested: return "commit_requested";
  }
  return "?";
}

bool trace_event_type_from_string(const std::string& s, TraceEventType& out) {
  for (std::uint8_t i = 0;
       i <= static_cast<std::uint8_t>(TraceEventType::CommitRequested); ++i) {
    const auto t = static_cast<TraceEventType>(i);
    if (s == to_string(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::Txn: return "txn";
    case SpanKind::Read: return "read";
    case SpanKind::GateStall: return "gate_stall";
    case SpanKind::LocalCert: return "local_cert";
    case SpanKind::PrepareLeg: return "prepare_leg";
    case SpanKind::DepWait: return "dep_wait_span";
    case SpanKind::Handle: return "handle";
    case SpanKind::Probe: return "probe";
  }
  return "?";
}

bool span_kind_from_string(const std::string& s, SpanKind& out) {
  for (std::uint8_t i = 0; i <= static_cast<std::uint8_t>(SpanKind::Probe);
       ++i) {
    const auto k = static_cast<SpanKind>(i);
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

TraceArgNames event_arg_names(TraceEventType t) {
  switch (t) {
    case TraceEventType::TxBegin: return {"rs", nullptr};
    case TraceEventType::ReadIssued: return {"key", "remote"};
    case TraceEventType::ReadReady: return {"key", "speculative"};
    case TraceEventType::GateParked: return {"key", nullptr};
    case TraceEventType::GateReleased: return {"key", "parked_us"};
    case TraceEventType::LocalCertStart: return {"write_set", nullptr};
    case TraceEventType::LocalCertEnd: return {"lc", nullptr};
    case TraceEventType::PrepareSent: return {"to_node", "partition"};
    case TraceEventType::PrepareAck: return {"from_node", "refused"};
    case TraceEventType::DepWait: return {"unresolved", nullptr};
    case TraceEventType::DepResolved: return {"remaining", nullptr};
    case TraceEventType::TxCommit: return {"fc", "fc_minus_rs"};
    case TraceEventType::TxAbort: return {"reason", nullptr};
    case TraceEventType::CommitRequested: return {"write_set", nullptr};
  }
  return {"a", "b"};
}

TraceArgNames span_arg_names(SpanKind k) {
  switch (k) {
    case SpanKind::Txn: return {"committed", "final"};
    case SpanKind::Read: return {"key", "speculative"};
    case SpanKind::GateStall: return {"key", nullptr};
    case SpanKind::LocalCert: return {"write_set", nullptr};
    case SpanKind::PrepareLeg: return {"partition", "node"};
    case SpanKind::DepWait: return {nullptr, nullptr};
    case SpanKind::Handle: return {"msg", "partition"};
    case SpanKind::Probe: return {"msg", "partition"};
  }
  return {"a", "b"};
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  STR_ASSERT(capacity_ > 0);
}

void Tracer::set_capacity(std::size_t capacity) {
  STR_ASSERT(capacity > 0);
  std::vector<TraceEvent> kept = snapshot();
  if (kept.size() > capacity) {
    kept.erase(kept.begin(),
               kept.begin() + static_cast<std::ptrdiff_t>(kept.size() - capacity));
  }
  std::vector<SpanRecord> kept_spans = span_snapshot();
  if (kept_spans.size() > capacity) {
    kept_spans.erase(kept_spans.begin(),
                     kept_spans.begin() + static_cast<std::ptrdiff_t>(
                                              kept_spans.size() - capacity));
  }
  capacity_ = capacity;
  ring_ = std::move(kept);
  span_ring_ = std::move(kept_spans);
  // The rebuilt rings are chronological (oldest at index 0), so the next
  // overwrite slot is index 0 whether or not they are already full.
  head_ = 0;
  span_head_ = 0;
}

void Tracer::emit(TraceEvent ev) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ring_[head_] = ev;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void Tracer::emit_span(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  ++spans_emitted_;
  if (span_ring_.size() < capacity_) {
    span_ring_.push_back(span);
    return;
  }
  span_ring_[span_head_] = span;
  span_head_ = span_head_ + 1 == capacity_ ? 0 : span_head_ + 1;
}

std::vector<SpanRecord> Tracer::span_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  out.reserve(span_ring_.size());
  if (span_ring_.size() < capacity_) {
    out = span_ring_;
    return out;
  }
  out.insert(out.end(),
             span_ring_.begin() + static_cast<std::ptrdiff_t>(span_head_),
             span_ring_.end());
  out.insert(out.end(), span_ring_.begin(),
             span_ring_.begin() + static_cast<std::ptrdiff_t>(span_head_));
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  head_ = 0;
  emitted_ = 0;
  span_ring_.clear();
  span_head_ = 0;
  spans_emitted_ = 0;
  next_span_ = 1;
}

}  // namespace str::obs
