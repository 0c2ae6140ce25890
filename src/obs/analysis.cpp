#include "obs/analysis.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.hpp"

namespace str::obs {

const char* to_string(EdgeClass c) {
  switch (c) {
    case EdgeClass::LocalCompute: return "local_compute";
    case EdgeClass::ReadLocal: return "read_local";
    case EdgeClass::ReadWan: return "read_wan";
    case EdgeClass::GateStall: return "gate_stall";
    case EdgeClass::LocalCert: return "local_cert";
    case EdgeClass::PrepareWan: return "prepare_wan";
    case EdgeClass::DepWait: return "dep_wait";
    case EdgeClass::Finalize: return "finalize";
  }
  return "?";
}

namespace {

std::string tx_str(const TxId& tx) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%u.%" PRIu64, tx.node, tx.seq);
  return buf;
}

/// Per-transaction cursor-walk state. The cursor is the end of the last
/// critical-path edge; every event completing later than the cursor was, by
/// definition, what the transaction was waiting on during [cursor, t].
struct Walk {
  CriticalPath path;
  Timestamp cursor = 0;
  bool commit_requested = false;
  /// key -> (issue time, remote?) for outstanding reads.
  std::unordered_map<std::uint64_t, std::pair<Timestamp, bool>> issued;
  /// key -> time the delivered value parked at the speculation gate.
  std::unordered_map<std::uint64_t, Timestamp> parked;

  void edge(EdgeClass cls, Timestamp t, std::uint64_t detail) {
    if (t <= cursor) return;  // completed off the critical path
    path.edges.push_back({cls, cursor, t, detail});
    cursor = t;
  }
};

}  // namespace

std::vector<CriticalPath> critical_paths(
    const std::vector<TraceEvent>& events) {
  // Only transactions with both endpoints retained can be covered exactly.
  std::unordered_map<TxId, std::uint8_t, TxIdHash> endpoints;
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceEventType::TxBegin) endpoints[ev.tx] |= 1;
    if (ev.type == TraceEventType::TxCommit) endpoints[ev.tx] |= 2;
  }

  std::unordered_map<TxId, Walk, TxIdHash> walks;
  std::vector<CriticalPath> out;
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceEventType::TxBegin) {
      const auto e = endpoints.find(ev.tx);
      if (e == endpoints.end() || e->second != 3) continue;
      Walk& w = walks[ev.tx];
      w.path.tx = ev.tx;
      w.path.begin = ev.at;
      w.cursor = ev.at;
      continue;
    }
    const auto it = walks.find(ev.tx);
    if (it == walks.end()) continue;
    Walk& w = it->second;
    switch (ev.type) {
      case TraceEventType::ReadIssued:
        // Time since the last completion was coordinator-local work.
        w.edge(EdgeClass::LocalCompute, ev.at, 0);
        w.issued[ev.a] = {ev.at, ev.b != 0};
        break;
      case TraceEventType::GateParked:
        // The value arrived here; the rest of the wait is the gate's fault.
        w.parked[ev.a] = ev.at;
        break;
      case TraceEventType::ReadReady: {
        const auto issue = w.issued.find(ev.a);
        const bool remote = issue != w.issued.end() && issue->second.second;
        const EdgeClass read_cls =
            remote ? EdgeClass::ReadWan : EdgeClass::ReadLocal;
        const auto park = w.parked.find(ev.a);
        if (park != w.parked.end()) {
          w.edge(read_cls, park->second, ev.a);
          w.edge(EdgeClass::GateStall, ev.at, ev.a);
          w.parked.erase(park);
        } else {
          w.edge(read_cls, ev.at, ev.a);
        }
        if (issue != w.issued.end()) w.issued.erase(issue);
        break;
      }
      case TraceEventType::CommitRequested:
        w.edge(EdgeClass::LocalCompute, ev.at, 0);
        w.commit_requested = true;
        break;
      case TraceEventType::LocalCertEnd:
        w.edge(EdgeClass::LocalCert, ev.at, 0);
        break;
      case TraceEventType::PrepareAck:
        w.edge(EdgeClass::PrepareWan, ev.at, ev.a);
        break;
      case TraceEventType::DepResolved:
        // Dependencies resolving before commit() was called cost nothing;
        // afterwards they are the SPSI-4 wait.
        if (w.commit_requested) w.edge(EdgeClass::DepWait, ev.at, 0);
        break;
      case TraceEventType::TxCommit:
        w.edge(EdgeClass::Finalize, ev.at, 0);
        w.path.commit = ev.at;
        out.push_back(std::move(w.path));
        walks.erase(it);
        break;
      default:
        break;  // informational for path purposes
    }
  }
  return out;
}

std::vector<std::string> check_critical_paths(
    const std::vector<CriticalPath>& paths) {
  std::vector<std::string> errors;
  char buf[256];
  const auto fail = [&](const CriticalPath& p, const char* what) {
    std::snprintf(buf, sizeof(buf), "tx %s: %s", tx_str(p.tx).c_str(), what);
    errors.emplace_back(buf);
  };
  for (const CriticalPath& p : paths) {
    if (p.commit < p.begin) {
      fail(p, "commit before begin");
      continue;
    }
    if (p.edges.empty()) {
      if (p.commit != p.begin) fail(p, "no edges but nonzero latency");
      continue;
    }
    Timestamp cursor = p.begin;
    Timestamp sum = 0;
    bool ok = true;
    for (const CriticalEdge& e : p.edges) {
      if (e.from != cursor) {
        fail(p, "gap or overlap between edges");
        ok = false;
        break;
      }
      if (e.to <= e.from) {
        fail(p, "non-positive edge width");
        ok = false;
        break;
      }
      cursor = e.to;
      sum += e.duration();
    }
    if (!ok) continue;
    if (cursor != p.commit) fail(p, "last edge does not end at commit");
    if (sum != p.commit - p.begin)
      fail(p, "edge durations do not sum to begin->commit latency");
  }
  return errors;
}

namespace {

Timestamp nearest_rank(std::vector<Timestamp>& sorted, unsigned pct) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  std::size_t rank = (n * pct + 99) / 100;  // ceil(n * pct / 100)
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

}  // namespace

PathAggregate aggregate(const std::vector<CriticalPath>& paths) {
  PathAggregate agg;
  std::array<std::vector<Timestamp>, kNumEdgeClasses> durations;
  std::vector<Timestamp> latencies;
  latencies.reserve(paths.size());
  for (const CriticalPath& p : paths) {
    ++agg.committed;
    latencies.push_back(p.commit - p.begin);
    agg.total_latency_us += p.commit - p.begin;
    std::array<bool, kNumEdgeClasses> seen{};
    for (const CriticalEdge& e : p.edges) {
      const auto c = static_cast<std::size_t>(e.cls);
      durations[c].push_back(e.duration());
      agg.per_class[c].total_us += e.duration();
      if (!seen[c]) {
        seen[c] = true;
        ++agg.per_class[c].txns;
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  agg.latency_p50_us = nearest_rank(latencies, 50);
  agg.latency_p99_us = nearest_rank(latencies, 99);
  for (std::size_t c = 0; c < kNumEdgeClasses; ++c) {
    EdgeClassStats& s = agg.per_class[c];
    std::vector<Timestamp>& d = durations[c];
    s.count = d.size();
    if (d.empty()) continue;
    std::sort(d.begin(), d.end());
    s.mean_us = static_cast<double>(s.total_us) / static_cast<double>(s.count);
    s.p50_us = nearest_rank(d, 50);
    s.p99_us = nearest_rank(d, 99);
    s.max_us = d.back();
  }
  return agg;
}

LineageStats lineage(const std::vector<TraceEvent>& events) {
  LineageStats ls;
  struct AbortInfo {
    AbortReason reason = AbortReason::None;
    TxId parent;
    Timestamp at = 0;
  };
  std::unordered_map<TxId, AbortInfo, TxIdHash> aborts;
  std::unordered_map<TxId, Timestamp, TxIdHash> begun;
  /// writer -> distinct speculative readers.
  std::unordered_map<TxId, std::vector<TxId>, TxIdHash> readers_of;

  for (const TraceEvent& ev : events) {
    switch (ev.type) {
      case TraceEventType::TxBegin:
        begun[ev.tx] = ev.at;
        break;
      case TraceEventType::ReadReady:
        if (ev.b != 0 && ev.other.valid()) {
          ++ls.spec_reads;
          std::vector<TxId>& rs = readers_of[ev.other];
          if (std::find(rs.begin(), rs.end(), ev.tx) == rs.end())
            rs.push_back(ev.tx);
        }
        break;
      case TraceEventType::TxAbort:
        aborts[ev.tx] = {static_cast<AbortReason>(ev.a), ev.other, ev.at};
        break;
      default:
        break;
    }
  }

  ls.spec_writers = readers_of.size();
  for (const auto& [writer, rs] : readers_of) {
    ls.spec_edges += rs.size();
    ls.max_fanout = std::max<std::uint64_t>(ls.max_fanout, rs.size());
  }
  if (ls.spec_writers != 0)
    ls.mean_fanout = static_cast<double>(ls.spec_edges) /
                     static_cast<double>(ls.spec_writers);

  ls.aborts = aborts.size();
  std::unordered_map<TxId, CascadeTree, TxIdHash> trees;
  for (const auto& [tx, info] : aborts) {
    if (begun.count(tx) != 0) ls.aborted_work_us += info.at - begun[tx];
    if (info.reason != AbortReason::CascadingAbort) continue;
    ++ls.cascading_aborts;
    // Walk the parent chain up to the root cause — the ancestor whose own
    // abort was not itself a cascade.
    TxId cur = info.parent;
    std::uint64_t depth = 1;
    bool attributed = false;
    for (std::size_t hops = 0; hops <= aborts.size(); ++hops) {
      const auto p = aborts.find(cur);
      if (p == aborts.end()) break;  // root fell off the ring
      if (p->second.reason != AbortReason::CascadingAbort) {
        CascadeTree& t = trees[cur];
        t.root = cur;
        t.root_reason = p->second.reason;
        ++t.size;
        t.max_depth = std::max(t.max_depth, depth);
        attributed = true;
        break;
      }
      cur = p->second.parent;
      ++depth;
    }
    if (!attributed) {
      ++ls.unattributed;
      continue;
    }
    if (ls.depth_histogram.size() < depth) ls.depth_histogram.resize(depth);
    ++ls.depth_histogram[depth - 1];
  }
  ls.trees.reserve(trees.size());
  for (const auto& [root, t] : trees) ls.trees.push_back(t);
  std::sort(ls.trees.begin(), ls.trees.end(),
            [](const CascadeTree& a, const CascadeTree& b) {
              return a.root < b.root;
            });
  return ls;
}

// ---------------------------------------------------------------------------
// Chrome-trace re-parsing

namespace {

bool parse_tx_id(const std::string& s, TxId& out) {
  unsigned node = 0;
  unsigned long long seq = 0;
  char extra = '\0';
  if (std::sscanf(s.c_str(), "%u.%llu%c", &node, &seq, &extra) != 2)
    return false;
  out.node = static_cast<NodeId>(node);
  out.seq = seq;
  return true;
}

bool abort_reason_from_string(const std::string& s, AbortReason& out) {
  for (int r = 0; r <= static_cast<int>(AbortReason::NodeCrash); ++r) {
    if (s == to_string(static_cast<AbortReason>(r))) {
      out = static_cast<AbortReason>(r);
      return true;
    }
  }
  return false;
}

std::uint64_t arg_u(const json::Value& args, const char* name) {
  if (name == nullptr) return 0;
  const json::Value* v = args.find(name);
  return v != nullptr && v->is_uint() ? v->u() : 0;
}

}  // namespace

bool parse_chrome_trace(const std::string& json_text, ParsedTrace& out,
                        std::string& error) {
  json::Value root;
  if (!json::parse(json_text, root, error)) return false;
  const json::Value* evs = root.find("traceEvents");
  if (evs == nullptr || !evs->is_array()) {
    error = "missing traceEvents array";
    return false;
  }
  std::unordered_map<std::uint64_t, std::size_t> flow_index;
  for (const json::Value& e : evs->array) {
    const json::Value* ph = e.find("ph");
    const json::Value* name = e.find("name");
    if (ph == nullptr || !ph->is_string() || name == nullptr ||
        !name->is_string()) {
      error = "trace event without ph/name";
      return false;
    }
    const std::string& p = ph->string;
    const std::uint64_t tid = arg_u(e, "tid");
    const std::uint64_t ts = arg_u(e, "ts");
    if (p == "M") {
      if (name->string == "thread_name")
        out.num_nodes = std::max<std::uint32_t>(
            out.num_nodes, static_cast<std::uint32_t>(tid) + 1);
      continue;
    }
    if (p == "s" || p == "f") {
      const std::uint64_t id = arg_u(e, "id");
      auto [it, fresh] = flow_index.try_emplace(id, out.flows.size());
      if (fresh) {
        out.flows.emplace_back();
        out.flows.back().id = id;
      }
      ParsedTrace::Flow& f = out.flows[it->second];
      if (p == "s") {
        f.src_node = static_cast<NodeId>(tid);
        f.src_ts = ts;
        f.has_src = true;
      } else {
        f.dst_node = static_cast<NodeId>(tid);
        f.dst_ts = ts;
        f.has_dst = true;
      }
      continue;
    }
    const json::Value* args = e.find("args");
    if (args == nullptr || !args->is_object()) {
      error = "trace event without args";
      return false;
    }
    const json::Value* txv = args->find("tx");
    TxId tx;
    if (txv == nullptr || !txv->is_string() || !parse_tx_id(txv->string, tx)) {
      error = "trace event without parseable tx";
      return false;
    }
    if (p == "X") {
      SpanRecord sp;
      if (!span_kind_from_string(name->string, sp.kind)) {
        error = "unknown span kind: " + name->string;
        return false;
      }
      sp.tx = tx;
      sp.node = static_cast<NodeId>(tid);
      sp.start = ts;
      sp.end = ts + arg_u(e, "dur");
      sp.id = arg_u(*args, "span");
      sp.parent = arg_u(*args, "parent");
      const TraceArgNames names = span_arg_names(sp.kind);
      sp.a = arg_u(*args, names.a);
      sp.b = arg_u(*args, names.b);
      out.spans.push_back(sp);
      continue;
    }
    if (p != "b" && p != "e" && p != "n") {
      error = "unknown ph: " + p;
      return false;
    }
    TraceEvent ev;
    ev.at = ts;
    ev.node = static_cast<NodeId>(tid);
    ev.tx = tx;
    if (p == "b") {
      ev.type = TraceEventType::TxBegin;
    } else if (p == "e") {
      ev.type = args->find("reason") != nullptr ? TraceEventType::TxAbort
                                                : TraceEventType::TxCommit;
    } else if (!trace_event_type_from_string(name->string, ev.type)) {
      error = "unknown event type: " + name->string;
      return false;
    }
    if (ev.type == TraceEventType::TxAbort) {
      const json::Value* reason = args->find("reason");
      AbortReason r = AbortReason::None;
      if (reason == nullptr || !reason->is_string() ||
          !abort_reason_from_string(reason->string, r)) {
        error = "abort event without parseable reason";
        return false;
      }
      ev.a = static_cast<std::uint64_t>(r);
    } else {
      const TraceArgNames names = event_arg_names(ev.type);
      ev.a = arg_u(*args, names.a);
      ev.b = arg_u(*args, names.b);
    }
    const json::Value* other = args->find(
        ev.type == TraceEventType::TxAbort ? "cascade_of" : "writer");
    if (other != nullptr && other->is_string() &&
        !parse_tx_id(other->string, ev.other)) {
      error = "unparseable causal tx reference";
      return false;
    }
    out.events.push_back(ev);
  }
  const json::Value* other_data = root.find("otherData");
  if (other_data != nullptr) {
    out.dropped_events = arg_u(*other_data, "dropped_events");
    out.dropped_spans = arg_u(*other_data, "dropped_spans");
  }
  return true;
}

}  // namespace str::obs
