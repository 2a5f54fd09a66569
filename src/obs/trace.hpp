// The span primitive: one RAII span feeds the aggregate tree and the
// request timeline from one open and one close.
//
// A Span opens on construction and closes on destruction.  While metrics
// are on (obs::enabled()) it records into the thread's aggregate tree:
// spans opened while another is live on the same thread become its
// children, so the tree forms a calls/time breakdown ("ingest" ->
// "preprocess" -> "decode") mirroring the paper's Fig. 8 flame graph,
// collected live on the functional plane.  The sampling profiler reads the
// same tree.  While tracing is on (obs::trace_enabled()) it also records a
// begin/end pair on the thread's event ring (obs/events.hpp) under the
// propagated TraceContext.  Each switch is read once, at open; the close
// always balances what the open recorded, even if a switch flips in
// between.  With both switches off a span costs two relaxed loads.
//
// Each thread owns its tree, so recording never contends across threads;
// span_stats() merges every thread's tree by path into one aggregate.  Node
// counters are atomics and child lists are mutated under a per-tree mutex,
// so a merge taken concurrently with recording is race-free (it sees a
// consistent-per-node, possibly slightly stale view).
//
// Span names must be string literals (or otherwise outlive the process):
// nodes and event slots keep the pointer, not a copy.  The tag is copied
// into the timeline context (15 chars) and inherited by nested spans; the
// tree ignores it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.hpp"

namespace ada::obs {

namespace detail {
struct SpanNode;
struct ThreadRecord;
}  // namespace detail

/// Times a region of code as a span named `name` under the thread's
/// currently open span.
class Span {
 public:
  explicit Span(const char* name, std::string_view tag = {}) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  detail::ThreadRecord* record_ = nullptr;  // null when both switches were off at open
  detail::SpanNode* node_ = nullptr;        // null when metrics were off at open
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t span_id_ = 0;  // timeline span id; 0 when tracing was off at open
  TraceContext saved_;         // the context to restore at close
};

/// One aggregated span, merged across threads, in depth-first order.
struct SpanStat {
  std::string path;  // "ingest/preprocess/decode"
  std::string name;  // "decode"
  int depth = 0;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total_ns minus the children's total_ns
};

/// Merge every thread's trace tree into one path-keyed aggregate,
/// depth-first.  Safe to call while other threads are still recording.
std::vector<SpanStat> span_stats();

/// Zero all recorded spans (tree shape and open spans are kept).  Call
/// between measured runs, not while measured work is in flight.
void reset_spans();

/// One collapsed stack per thread with an open span right now, in
/// flamegraph "folded" orientation: "ingest;preprocess;decode".  Threads
/// idle at their tree root contribute nothing.  Safe to call from the
/// profiler ticker while other threads record: the open-span pointer is an
/// acquire-load of an atomic the owning thread publishes with release, and
/// span nodes are owned by the (never-shrinking) tree so the parent chain
/// stays valid.  Order is the thread-registration order, so a single-thread
/// caller sees a deterministic result.
std::vector<std::string> sample_active_stacks();

}  // namespace ada::obs
