// Request-timeline event recorder: per-thread, lock-free ring buffers.
//
// The span tree answers "where does time go on average"; this layer
// answers "where did *this request's* time go".  obs::Span (obs/trace.hpp)
// records its begin/end pairs here.  Every recorded event carries a
// propagated TraceContext (trace id, parent span id, data tag), a
// timestamp, and a lane, so the exporter (obs/trace_export.hpp) can
// reconstruct one merged timeline of functional (wall-clock) and simulated
// (sim-time) activity -- the per-request equivalent of the paper's
// Figs. 7-10 stage breakdowns.
//
// Recording is lock-free: each thread owns a fixed-capacity ring of seqlock
// slots (every field a relaxed atomic, so a concurrent snapshot is race-free
// and simply skips slots it catches mid-write).  On wraparound the oldest
// events are overwritten -- the newest always survive.  With tracing
// disabled every instrumented call site reduces to ONE relaxed atomic load
// (`trace_enabled()`); no TLS ring is even created.
//
// Two planes share the event type:
//   * lane 0  -- functional plane: wall-clock nanoseconds since the process
//                trace epoch, one Chrome "tid" per recording thread.
//   * lane >0 -- simulated plane: sim-time nanoseconds on a virtual lane
//                registered by the emitting component (a PVFS server, an
//                FCFS resource, a fabric NIC), rendered as its own track.
//
// Event names must be string literals (slots keep the pointer); dynamic
// identity (data tags, resource names) travels in the 15-char tag field or
// in the lane label.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ada::obs {

/// Propagated request identity.  `span_id` is the innermost open span --
/// the parent of anything opened beneath it.  A zero `trace_id` means "no
/// request in flight"; the next traced Span starts a fresh trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  char tag[16] = {};  // data-subset tag, truncated to 15 chars + NUL

  void set_tag(std::string_view t) noexcept {
    const std::size_t n = t.size() < sizeof(tag) - 1 ? t.size() : sizeof(tag) - 1;
    if (n != 0) std::memcpy(tag, t.data(), n);
    tag[n] = '\0';
  }
  bool active() const noexcept { return trace_id != 0; }
};

/// Global tracing switch, independent of the metrics switch: a bench can
/// collect counters without paying for a timeline, and vice versa.
bool trace_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// The calling thread's context (zero when no trace is in flight).
TraceContext current_context() noexcept;
void set_current_context(const TraceContext& context) noexcept;

/// RAII set/restore of the thread's context.  Pool workers adopt the
/// context of the batch they help through this, so spans opened inside a
/// worker join the caller's trace.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context) noexcept
      : saved_(current_context()) {
    set_current_context(context);
  }
  ~ScopedTraceContext() { set_current_context(saved_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// Point event / counter sample under the thread's current context.
void trace_instant(const char* name, std::uint64_t value = 0) noexcept;
void trace_counter(const char* name, std::uint64_t value) noexcept;

// --- simulated plane ------------------------------------------------------------------

/// Allocate a virtual lane for sim-time events.  Every call creates a NEW
/// lane (labels may repeat across model instances); a lane's events are
/// monotone in sim time because each instance runs one simulation.  Cold
/// path only -- call from constructors or first-use, never per event.
std::uint32_t register_lane(const std::string& label);

/// Begin a sim-time span on `lane` at `sim_seconds`; returns the span id to
/// close it with (0 while tracing is disabled -- sim_end then no-ops, so
/// begin/end stay balanced across enable/disable flips).
std::uint64_t sim_begin(std::uint32_t lane, const char* name, double sim_seconds,
                        const TraceContext& context, std::uint64_t value = 0) noexcept;
void sim_end(std::uint32_t lane, const char* name, double sim_seconds,
             std::uint64_t span_id, const TraceContext& context) noexcept;
void sim_counter(std::uint32_t lane, const char* name, double sim_seconds,
                 std::uint64_t value) noexcept;

// --- snapshot / administration --------------------------------------------------------

/// One decoded event, as stored by the recorder.
struct RawEvent {
  enum class Phase : std::uint8_t { kBegin = 0, kEnd = 1, kInstant = 2, kCounter = 3 };
  Phase phase = Phase::kInstant;
  const char* name = "";  // string literal
  char tag[16] = {};
  std::uint64_t ts_ns = 0;  // wall ns since trace epoch (lane 0) or sim ns (lane > 0)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t value = 0;
  std::uint32_t lane = 0;    // 0 = functional plane
  std::uint32_t thread = 0;  // recording thread's index (registration order)
};

/// Race-free copy of every ring's surviving events, in per-ring record
/// order.  Safe to call while other threads are still recording; slots
/// caught mid-write are skipped.
std::vector<RawEvent> snapshot_events();

/// (lane id, label) for every lane registered so far.
std::vector<std::pair<std::uint32_t, std::string>> lane_labels();

/// Ring capacity (events per thread) for rings created AFTER this call;
/// rounded up to a power of two, minimum 8.  Existing rings keep theirs.
void set_default_ring_capacity(std::size_t events);

/// Rings created so far.  The disabled fast path never creates one, which
/// is how tests pin down "one relaxed load and nothing else".
std::size_t ring_count() noexcept;

/// Events lost to ring wraparound since the last reset_events().
std::uint64_t events_dropped() noexcept;

/// Forget all recorded events (rings and lanes are kept) and restart the
/// trace/span id counters.  Call between measured runs, not mid-record.
void reset_events();

}  // namespace ada::obs
