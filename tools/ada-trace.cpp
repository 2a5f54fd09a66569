// ada-trace: analyse and merge Chrome trace JSON written by --trace=<file>.
//
//   ada-trace <trace.json> [more.json ...]
//             [--tag <t>] [--trace-id <id>] [--out merged.json]
//             [--critical-path] [--stages] [--summary]
//
// Reads one or more traces (ada-ingest/ada-query/bench --trace output),
// optionally filters events to one data tag and/or one trace id, and prints:
//   * a per-trace summary (spans, wall span, planes touched),
//   * per-stage statistics -- calls, total busy time, union time (merged
//     intervals) and overlap (total - union, i.e. concurrency won), and
//     the gap to the next stage on the critical path,
//   * the critical path of the longest (or selected) trace: starting from
//     the last-ending span, repeatedly hop to the latest span that ended
//     before the current one began, reporting idle gaps between hops.
// With --out, re-emits the merged, filtered events as one combined Chrome
// trace JSON.  Selecting --critical-path / --stages / --summary prints only
// those sections (default: all).  See docs/observability.md.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/trace_export.hpp"
#include "tools/tool_util.hpp"

using namespace ada;

namespace {

constexpr const char* kUsage =
    "usage: ada-trace <trace.json> [more.json ...]\n"
    "                 [--tag <t>] [--trace-id <id>] [--out <merged.json>]\n"
    "                 [--critical-path] [--stages] [--summary]\n"
    "                 [--metrics[=json|openmetrics]]\n";

/// A reconstructed span: one B/E pair (matched by span id, else by per-track
/// stack order for traces from other emitters).
struct Span {
  std::string name;
  std::string tag;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint32_t pid = 0;
  std::uint64_t tid = 0;
  double begin_us = 0;
  double end_us = 0;

  double duration_us() const { return end_us - begin_us; }
};

std::string lane_name(const Span& span,
                      const std::map<std::uint64_t, std::string>& lanes) {
  if (span.pid != obs::kSimPid) return "thread " + std::to_string(span.tid);
  const auto it = lanes.find(span.tid);
  return it != lanes.end() ? it->second : "lane " + std::to_string(span.tid);
}

std::string us_cell(double us) { return format_seconds(us * 1e-6); }

/// Pair begin/end events into spans.  Events with span ids pair exactly;
/// id-less events fall back to a LIFO stack per (pid, tid, name).
std::vector<Span> build_spans(const std::vector<obs::ExportEvent>& events) {
  std::vector<Span> spans;
  std::map<std::uint64_t, std::size_t> by_id;
  std::map<std::string, std::vector<std::size_t>> by_track;
  for (const obs::ExportEvent& event : events) {
    if (event.ph == 'B') {
      Span span;
      span.name = event.name;
      span.tag = event.tag;
      span.trace_id = event.trace_id;
      span.span_id = event.span_id;
      span.pid = event.pid;
      span.tid = event.tid;
      span.begin_us = event.ts_us;
      span.end_us = event.ts_us;  // until the E arrives
      spans.push_back(span);
      if (event.span_id != 0) {
        by_id[event.span_id] = spans.size() - 1;
      } else {
        by_track[std::to_string(event.pid) + "/" + std::to_string(event.tid) + "/" + event.name]
            .push_back(spans.size() - 1);
      }
    } else if (event.ph == 'E') {
      if (event.span_id != 0) {
        const auto it = by_id.find(event.span_id);
        if (it != by_id.end()) spans[it->second].end_us = event.ts_us;
        continue;
      }
      auto& stack =
          by_track[std::to_string(event.pid) + "/" + std::to_string(event.tid) + "/" + event.name];
      if (!stack.empty()) {
        spans[stack.back()].end_us = event.ts_us;
        stack.pop_back();
      }
    }
  }
  return spans;
}

/// Union of [begin, end) intervals, in microseconds.
double union_us(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0, cur_begin = 0, cur_end = -1;
  for (const auto& [b, e] : intervals) {
    if (e <= cur_end) continue;
    if (b > cur_end) {
      if (cur_end > cur_begin) total += cur_end - cur_begin;
      cur_begin = b;
    }
    cur_end = e;
  }
  if (cur_end > cur_begin) total += cur_end - cur_begin;
  return total;
}

/// Critical path: last-ending span, then repeatedly the latest-ending span
/// that finished at or before the current one began.
std::vector<const Span*> critical_path(const std::vector<Span>& spans) {
  std::vector<const Span*> chain;
  const Span* current = nullptr;
  for (const Span& span : spans) {
    if (current == nullptr || span.end_us > current->end_us) current = &span;
  }
  while (current != nullptr) {
    chain.push_back(current);
    const Span* predecessor = nullptr;
    for (const Span& span : spans) {
      if (&span == current || span.end_us > current->begin_us) continue;
      if (predecessor == nullptr || span.end_us > predecessor->end_us) predecessor = &span;
    }
    current = predecessor;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::string emit_chrome_json(const std::vector<obs::ExportEvent>& events,
                             const std::map<std::uint64_t, std::string>& lanes) {
  auto escape = [](const std::string& raw) {
    std::string out;
    for (const char c : raw) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::string out = "{\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"functional (wall clock)\"}},\n";
  if (!lanes.empty()) {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
           "\"args\":{\"name\":\"simulated (sim time)\"}},\n";
    for (const auto& [tid, label] : lanes) {
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" + std::to_string(tid) +
             ",\"args\":{\"name\":\"" + escape(label) + "\"}},\n";
    }
  }
  bool first = true;
  for (const obs::ExportEvent& event : events) {
    if (!first) out += ",\n";
    first = false;
    char ts[40];
    std::snprintf(ts, sizeof ts, "%.3f", event.ts_us);
    out += "{\"name\":\"" + escape(event.name) + "\",\"ph\":\"";
    out += event.ph;
    out += "\",\"ts\":" + std::string(ts) + ",\"pid\":" + std::to_string(event.pid) +
           ",\"tid\":" + std::to_string(event.tid);
    if (event.ph == 'i') out += ",\"s\":\"t\"";
    out += ",\"args\":{";
    if (event.ph == 'C') {
      out += "\"value\":" + std::to_string(event.value);
    } else {
      out += "\"trace\":" + std::to_string(event.trace_id) +
             ",\"span\":" + std::to_string(event.span_id) +
             ",\"parent\":" + std::to_string(event.parent_span) + ",\"tag\":\"" +
             escape(event.tag) + "\"";
      if (event.value != 0) out += ",\"value\":" + std::to_string(event.value);
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv,
                         {"trace-id", "out", "tag", "critical-path", "stages", "summary"});
  if (args.positional().empty()) tools::die_usage(kUsage);
  const auto trace_id = args.count<std::uint64_t>("trace-id", 0);
  tools::metrics_begin(args);

  // --- load + merge ---------------------------------------------------------------
  // Each input file comes from its own process, and every process numbers
  // traces and spans from 1 -- so ids collide across files.  Offset each
  // file's ids past the previous files' maxima to keep requests distinct.
  std::vector<obs::ExportEvent> events;
  std::map<std::uint64_t, std::string> lanes;
  std::uint64_t trace_offset = 0, span_offset = 0;
  for (const std::string& path : args.positional()) {
    const auto bytes = tools::must(read_file(path), "read trace");
    std::vector<std::pair<std::uint64_t, std::string>> file_lanes;
    auto parsed = tools::must(
        obs::parse_chrome_json(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                                bytes.size()),
                               &file_lanes),
        "parse trace");
    for (auto& [tid, label] : file_lanes) lanes.emplace(tid, std::move(label));
    std::uint64_t max_trace = 0, max_span = 0;
    for (obs::ExportEvent& event : parsed) {
      if (event.trace_id != 0) {
        max_trace = std::max(max_trace, event.trace_id);
        event.trace_id += trace_offset;
      }
      if (event.span_id != 0) {
        max_span = std::max(max_span, event.span_id);
        event.span_id += span_offset;
      }
      if (event.parent_span != 0) {
        max_span = std::max(max_span, event.parent_span);
        event.parent_span += span_offset;
      }
    }
    trace_offset += max_trace;
    span_offset += max_span;
    events.insert(events.end(), parsed.begin(), parsed.end());
  }

  // --- filter ---------------------------------------------------------------------
  if (args.has("tag")) {
    const std::string tag = args.get("tag");
    std::erase_if(events, [&](const obs::ExportEvent& e) { return e.tag != tag; });
  }
  if (args.has("trace-id")) {
    std::erase_if(events, [&](const obs::ExportEvent& e) { return e.trace_id != trace_id; });
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::ExportEvent& a, const obs::ExportEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });
  if (events.empty()) {
    std::fprintf(stderr, "no events after filtering\n");
    return 1;
  }

  const bool any_section = args.has("summary") || args.has("stages") || args.has("critical-path");
  const bool want_summary = !any_section || args.has("summary");
  const bool want_stages = !any_section || args.has("stages");
  const bool want_critical = !any_section || args.has("critical-path");

  const std::vector<Span> spans = build_spans(events);
  // With --metrics on, the analyzer reports on its own inputs: volume
  // counters plus a latency histogram over the reconstructed spans, so the
  // percentile machinery is exercisable on recorded traces too.
  ADA_OBS_COUNT("ada_trace.files", args.positional().size());
  ADA_OBS_COUNT("ada_trace.events", events.size());
  ADA_OBS_COUNT("ada_trace.spans", spans.size());
  for (const Span& span : spans) {
    ADA_OBS_OBSERVE("ada_trace.span_us", span.duration_us());
  }

  // --- per-trace summary ----------------------------------------------------------
  struct TraceAgg {
    std::size_t spans = 0;
    double begin_us = 0, end_us = 0;
    bool functional = false, simulated = false;
    std::string tags;  // first few distinct tags
  };
  std::map<std::uint64_t, TraceAgg> traces;
  for (const Span& span : spans) {
    TraceAgg& agg = traces[span.trace_id];
    if (agg.spans == 0 || span.begin_us < agg.begin_us) agg.begin_us = span.begin_us;
    if (agg.spans == 0 || span.end_us > agg.end_us) agg.end_us = span.end_us;
    ++agg.spans;
    (span.pid == obs::kSimPid ? agg.simulated : agg.functional) = true;
    if (!span.tag.empty() && agg.tags.find(span.tag) == std::string::npos &&
        agg.tags.size() < 32) {
      agg.tags += agg.tags.empty() ? span.tag : "," + span.tag;
    }
  }
  if (want_summary) {
    Table table({"trace", "spans", "wall", "planes", "tags"});
    for (const auto& [id, agg] : traces) {
      table.add_row({std::to_string(id), std::to_string(agg.spans),
                     us_cell(agg.end_us - agg.begin_us),
                     std::string(agg.functional ? "fn" : "") +
                         (agg.functional && agg.simulated ? "+" : "") +
                         (agg.simulated ? "sim" : ""),
                     agg.tags});
    }
    std::cout << "-- traces --\n";
    table.print(std::cout);
  }

  // --- per-stage statistics -------------------------------------------------------
  if (want_stages) {
    struct StageAgg {
      std::size_t calls = 0;
      double total_us = 0;
      std::vector<std::pair<double, double>> intervals;
    };
    std::map<std::string, StageAgg> stages;
    for (const Span& span : spans) {
      StageAgg& agg = stages[span.name];
      ++agg.calls;
      agg.total_us += span.duration_us();
      agg.intervals.emplace_back(span.begin_us, span.end_us);
    }
    std::vector<std::pair<std::string, StageAgg>> ordered(stages.begin(), stages.end());
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      return a.second.total_us > b.second.total_us;
    });
    Table table({"stage", "calls", "total", "union", "overlap"});
    for (auto& [name, agg] : ordered) {
      const double uni = union_us(std::move(agg.intervals));
      table.add_row({name, std::to_string(agg.calls), us_cell(agg.total_us), us_cell(uni),
                     us_cell(agg.total_us - uni)});
    }
    std::cout << "-- stages (busy vs overlap) --\n";
    table.print(std::cout);
  }

  // --- critical path --------------------------------------------------------------
  if (want_critical && !spans.empty()) {
    // Analyse the selected trace, or the one with the longest wall span.
    std::uint64_t chosen = 0;
    if (args.has("trace-id")) {
      chosen = trace_id;
    } else {
      double best = -1;
      for (const auto& [id, agg] : traces) {
        if (agg.end_us - agg.begin_us > best) {
          best = agg.end_us - agg.begin_us;
          chosen = id;
        }
      }
    }
    std::vector<Span> trace_spans;
    for (const Span& span : spans) {
      if (span.trace_id == chosen) trace_spans.push_back(span);
    }
    const auto chain = critical_path(trace_spans);
    double busy = 0, gaps = 0;
    Table table({"stage", "lane", "tag", "start", "duration", "gap before"});
    const Span* previous = nullptr;
    for (const Span* span : chain) {
      const double gap = previous == nullptr ? 0 : span->begin_us - previous->end_us;
      busy += span->duration_us();
      gaps += gap;
      table.add_row({span->name, lane_name(*span, lanes), span->tag, us_cell(span->begin_us),
                     us_cell(span->duration_us()), previous == nullptr ? "-" : us_cell(gap)});
      previous = span;
    }
    std::printf("-- critical path (trace %" PRIu64 ", %zu hops, busy %s, idle %s) --\n", chosen,
                chain.size(), us_cell(busy).c_str(), us_cell(gaps).c_str());
    table.print(std::cout);
  }

  // --- combined output ------------------------------------------------------------
  if (args.has("out")) {
    const std::string merged = emit_chrome_json(events, lanes);
    tools::must_ok(write_file(args.get("out"),
                              std::span(reinterpret_cast<const std::uint8_t*>(merged.data()),
                                        merged.size())),
                   "write merged trace");
    std::printf("wrote %s (%zu events)\n", args.get("out").c_str(), events.size());
  }
  tools::metrics_end(args);
  return 0;
}
