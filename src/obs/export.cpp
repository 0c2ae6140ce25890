#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "common/log.hpp"

namespace str::obs {

namespace {

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  std::va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void append_event(std::string& out, const TraceEvent& ev, bool& first) {
  if (!first) out.append(",\n");
  first = false;
  char id[48];
  std::snprintf(id, sizeof(id), "%u.%" PRIu64, ev.tx.node, ev.tx.seq);
  const char* ph = "n";
  if (ev.type == TraceEventType::TxBegin) ph = "b";
  if (ev.type == TraceEventType::TxCommit || ev.type == TraceEventType::TxAbort)
    ph = "e";
  append(out,
         "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"%s\",\"id\":\"%s\","
         "\"pid\":0,\"tid\":%u,\"ts\":%" PRIu64 ",\"args\":{",
         ph[0] == 'n' ? to_string(ev.type) : "tx",
         ph, id, ev.node, ev.at);
  append(out, "\"tx\":\"%s\"", id);
  const TraceArgNames names = event_arg_names(ev.type);
  if (ev.type == TraceEventType::TxAbort) {
    append(out, ",\"reason\":\"%s\"",
           to_string(static_cast<AbortReason>(ev.a)));
  } else {
    append(out, ",\"%s\":%" PRIu64, names.a, ev.a);
    if (names.b != nullptr) append(out, ",\"%s\":%" PRIu64, names.b, ev.b);
  }
  if (ev.other.valid()) {
    // Causal cross-transaction edge: the speculative writer observed by a
    // ReadReady, or the cascade parent of a CascadingAbort.
    const char* role =
        ev.type == TraceEventType::TxAbort ? "cascade_of" : "writer";
    append(out, ",\"%s\":\"%u.%" PRIu64 "\"", role, ev.other.node,
           ev.other.seq);
  }
  out.append("}}");
}

void append_span(std::string& out, const SpanRecord& sp, bool& first) {
  if (!first) out.append(",\n");
  first = false;
  append(out,
         "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,"
         "\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",\"args\":{",
         to_string(sp.kind), sp.node, sp.start, sp.end - sp.start);
  append(out, "\"tx\":\"%u.%" PRIu64 "\",\"span\":%" PRIu64
              ",\"parent\":%" PRIu64,
         sp.tx.node, sp.tx.seq, sp.id, sp.parent);
  const TraceArgNames names = span_arg_names(sp.kind);
  if (names.a != nullptr) append(out, ",\"%s\":%" PRIu64, names.a, sp.a);
  if (names.b != nullptr) append(out, ",\"%s\":%" PRIu64, names.b, sp.b);
  out.append("}}");
}

void append_timer_fields(std::string& out, const Timer& t) {
  const Histogram& h = t.hist();
  append(out,
         "\"count\":%" PRIu64 ",\"mean_us\":%.3f,\"p50_us\":%" PRIu64
         ",\"p95_us\":%" PRIu64 ",\"p99_us\":%" PRIu64 ",\"max_us\":%" PRIu64,
         h.count(), h.mean(), h.p50(), h.p95(), h.p99(), h.max());
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer, std::uint32_t num_nodes) {
  const std::vector<TraceEvent> events = tracer.snapshot();
  std::string out;
  out.reserve(128 + events.size() * 160);
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  // Track metadata: one named track per node, sorted by node id.
  append(out,
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"str-sim\"}}");
  first = false;
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    out.append(",\n");
    append(out,
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
           "\"args\":{\"name\":\"node %u\"}}",
           n, n);
    out.append(",\n");
    append(out,
           "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
           "\"args\":{\"sort_index\":%u}}",
           n, n);
  }
  for (const TraceEvent& ev : events) append_event(out, ev, first);
  // Causal spans as complete ("X") slices, with flow events ("s"/"f")
  // stitching cross-node parent->child edges. A flow pair is emitted only
  // when the parent span was retained and lives on a different node; the
  // flow id is the child span id (unique, so arrows never merge).
  const std::vector<SpanRecord> spans = tracer.span_snapshot();
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& sp : spans) by_id.emplace(sp.id, &sp);
  for (const SpanRecord& sp : spans) {
    append_span(out, sp, first);
    if (sp.parent == 0) continue;
    const auto pit = by_id.find(sp.parent);
    if (pit == by_id.end() || pit->second->node == sp.node) continue;
    const SpanRecord& parent = *pit->second;
    out.append(",\n");
    append(out,
           "{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":0,"
           "\"tid\":%u,\"ts\":%" PRIu64 ",\"id\":%" PRIu64 "}",
           parent.node, parent.start, sp.id);
    out.append(",\n");
    append(out,
           "{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
           "\"pid\":0,\"tid\":%u,\"ts\":%" PRIu64 ",\"id\":%" PRIu64 "}",
           sp.node, sp.start, sp.id);
  }
  append(out, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
              "\"dropped_events\":%" PRIu64 ",\"dropped_spans\":%" PRIu64
              "}}\n",
         tracer.dropped(), tracer.spans_dropped());
  return out;
}

std::string metrics_json(
    const Registry& registry,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string out;
  out.append("{\n\"counters\":{");
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    append(out, "%s\n  \"%s\":%" PRIu64, first ? "" : ",",
           escape(name).c_str(), c.value());
    first = false;
  }
  out.append("\n},\n\"gauges\":{");
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    append(out, "%s\n  \"%s\":%" PRId64, first ? "" : ",",
           escape(name).c_str(), g.value());
    first = false;
  }
  out.append("\n},\n\"timers\":{");
  first = true;
  for (const auto& [name, t] : registry.timers()) {
    append(out, "%s\n  \"%s\":{", first ? "" : ",", escape(name).c_str());
    append_timer_fields(out, t);
    out.append("}");
    first = false;
  }
  out.append("\n}");
  if (!extra.empty()) {
    out.append(",\n\"experiment\":{");
    first = true;
    for (const auto& [key, value] : extra) {
      append(out, "%s\n  \"%s\":%s", first ? "" : ",", escape(key).c_str(),
             value.c_str());
      first = false;
    }
    out.append("\n}");
  }
  out.append("\n}\n");
  return out;
}

std::string metrics_csv(const Registry& registry) {
  std::string out = "kind,name,count,value,mean_us,p50_us,p95_us,p99_us,max_us\n";
  for (const auto& [name, c] : registry.counters()) {
    append(out, "counter,%s,,%" PRIu64 ",,,,,\n", name.c_str(), c.value());
  }
  for (const auto& [name, g] : registry.gauges()) {
    append(out, "gauge,%s,,%" PRId64 ",,,,,\n", name.c_str(), g.value());
  }
  for (const auto& [name, t] : registry.timers()) {
    const Histogram& h = t.hist();
    append(out,
           "timer,%s,%" PRIu64 ",,%.3f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
           ",%" PRIu64 "\n",
           name.c_str(), h.count(), h.mean(), h.p50(), h.p95(), h.p99(),
           h.max());
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    const std::size_t n = std::fwrite(content.data(), 1, content.size(), stdout);
    std::fflush(stdout);
    return n == content.size();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    STR_ERROR("cannot open %s for writing", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (n != content.size()) {
    STR_ERROR("short write to %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace str::obs
