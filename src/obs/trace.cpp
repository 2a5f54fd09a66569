// One per-thread record behind both span sinks (obs/trace.hpp) and the
// event recorder (obs/events.hpp): the thread's aggregate tree, its open
// node, its propagated TraceContext and its event ring.  One registry owns
// every record, so short-lived workers leave their spans and events behind
// for the final merge.
#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace ada::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::size_t> g_default_capacity{8192};

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall timestamps are relative to the first traced edge, so traces start
/// near t=0 regardless of machine uptime.  Saturates for a clock read that
/// raced the first edge on another thread.
std::uint64_t since_epoch(std::uint64_t steady) noexcept {
  static const std::uint64_t epoch = steady;
  return steady > epoch ? steady - epoch : 0;
}

std::uint64_t sim_ns(double sim_seconds) noexcept {
  if (sim_seconds < 0.0) return 0;
  return static_cast<std::uint64_t>(sim_seconds * 1e9);
}

void pack_tag(const char (&tag)[16], std::uint64_t& lo, std::uint64_t& hi) noexcept {
  std::uint8_t bytes[16];
  std::memcpy(bytes, tag, 16);
  lo = hi = 0;
  for (int i = 0; i < 8; ++i) lo |= std::uint64_t{bytes[i]} << (8 * i);
  for (int i = 0; i < 8; ++i) hi |= std::uint64_t{bytes[8 + i]} << (8 * i);
}

void unpack_tag(std::uint64_t lo, std::uint64_t hi, char (&tag)[16]) noexcept {
  for (int i = 0; i < 8; ++i) tag[i] = static_cast<char>((lo >> (8 * i)) & 0xff);
  for (int i = 0; i < 8; ++i) tag[8 + i] = static_cast<char>((hi >> (8 * i)) & 0xff);
  tag[15] = '\0';  // defensive: the packed form is always NUL-padded anyway
}

// One seqlock slot.  Every payload field is a relaxed atomic so a snapshot
// taken concurrently with recording is data-race-free (TSan-clean); the
// sequence word lets the reader detect and skip slots caught mid-write or
// already overwritten by a newer generation.
struct Slot {
  std::atomic<std::uint64_t> seq{0};  // 2*i+1 while writing event i, 2*i+2 once stable
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> span_id{0};
  std::atomic<std::uint64_t> parent_span{0};
  std::atomic<std::uint64_t> value{0};
  std::atomic<std::uint64_t> tag_lo{0};
  std::atomic<std::uint64_t> tag_hi{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> misc{0};  // lane << 8 | phase
};

class EventRing {
 public:
  EventRing(std::size_t capacity, std::uint32_t thread_index)
      : slots_(capacity), mask_(capacity - 1), thread_index_(thread_index) {}

  /// Single producer: only the owning thread records.
  void record(RawEvent::Phase phase, const char* name, std::uint64_t ts,
              std::uint32_t lane, std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent, std::uint64_t value, const char (&tag)[16]) noexcept {
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[i & mask_];
    slot.seq.store(2 * i + 1, std::memory_order_release);
    slot.ts_ns.store(ts, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.span_id.store(span_id, std::memory_order_relaxed);
    slot.parent_span.store(parent, std::memory_order_relaxed);
    slot.value.store(value, std::memory_order_relaxed);
    std::uint64_t lo = 0, hi = 0;
    pack_tag(tag, lo, hi);
    slot.tag_lo.store(lo, std::memory_order_relaxed);
    slot.tag_hi.store(hi, std::memory_order_relaxed);
    slot.name.store(name, std::memory_order_relaxed);
    slot.misc.store((std::uint64_t{lane} << 8) | static_cast<std::uint64_t>(phase),
                    std::memory_order_relaxed);
    slot.seq.store(2 * i + 2, std::memory_order_release);
    head_.store(i + 1, std::memory_order_release);
  }

  void snapshot(std::vector<RawEvent>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t floor = floor_.load(std::memory_order_acquire);
    const std::uint64_t capacity = mask_ + 1;
    std::uint64_t start = head > capacity ? head - capacity : 0;
    if (floor > start) start = floor;
    for (std::uint64_t i = start; i < head; ++i) {
      const Slot& slot = slots_[i & mask_];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 != 2 * i + 2) continue;  // mid-write or already overwritten
      RawEvent event;
      event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      event.span_id = slot.span_id.load(std::memory_order_relaxed);
      event.parent_span = slot.parent_span.load(std::memory_order_relaxed);
      event.value = slot.value.load(std::memory_order_relaxed);
      const std::uint64_t lo = slot.tag_lo.load(std::memory_order_relaxed);
      const std::uint64_t hi = slot.tag_hi.load(std::memory_order_relaxed);
      const char* name = slot.name.load(std::memory_order_relaxed);
      const std::uint64_t misc = slot.misc.load(std::memory_order_relaxed);
      const std::uint64_t s2 = slot.seq.load(std::memory_order_acquire);
      if (s2 != s1) continue;  // overwritten while copying
      unpack_tag(lo, hi, event.tag);
      event.name = name != nullptr ? name : "";
      event.lane = static_cast<std::uint32_t>(misc >> 8);
      event.phase = static_cast<RawEvent::Phase>(misc & 0xff);
      event.thread = thread_index_;
      out.push_back(event);
    }
  }

  void forget() noexcept {
    floor_.store(head_.load(std::memory_order_acquire), std::memory_order_release);
  }

  std::uint64_t dropped() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t floor = floor_.load(std::memory_order_acquire);
    const std::uint64_t capacity = mask_ + 1;
    const std::uint64_t since_reset = head > floor ? head - floor : 0;
    return since_reset > capacity ? since_reset - capacity : 0;
  }

 private:
  std::vector<Slot> slots_;
  std::uint64_t mask_;
  std::uint32_t thread_index_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> floor_{0};  // reset_events() watermark
};

}  // namespace

namespace detail {

struct SpanNode {
  SpanNode(const char* span_name, SpanNode* span_parent)
      : name(span_name), parent(span_parent) {}

  const char* name;
  SpanNode* parent;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::vector<std::unique_ptr<SpanNode>> children;  // guarded by the record mutex
};

// `current` is written only by the owning thread (release) and read by the
// profiler sampler (acquire), so a sampled node's fields -- set before
// publication -- are visible; `mutex` guards every node's child list so a
// concurrent span_stats() walk sees consistent vectors.  `context` is the
// owning thread's alone.  `ring` is created on first traced use, under the
// registry mutex, which is also where snapshots read it.
struct ThreadRecord {
  std::mutex mutex;
  SpanNode root{"", nullptr};
  std::atomic<SpanNode*> current{&root};
  TraceContext context;
  std::unique_ptr<EventRing> ring;

  /// Find or add `name` under the open node and make it the open node.
  SpanNode* enter(const char* name) {
    SpanNode* parent = current.load(std::memory_order_relaxed);
    SpanNode* node = nullptr;
    {
      std::lock_guard lock(mutex);
      for (const auto& child : parent->children) {
        if (child->name == name || std::strcmp(child->name, name) == 0) {
          node = child.get();
          break;
        }
      }
      if (node == nullptr) {
        parent->children.push_back(std::make_unique<SpanNode>(name, parent));
        node = parent->children.back().get();
      }
    }
    current.store(node, std::memory_order_release);
    return node;
  }
};

}  // namespace detail

namespace {

using detail::SpanNode;
using detail::ThreadRecord;

struct ThreadRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadRecord>> records;
  std::uint32_t rings = 0;  // rings created so far; a ring's index is its thread id
};

ThreadRegistry& thread_registry() {
  static ThreadRegistry* registry = new ThreadRegistry();  // outlives TLS teardown
  return *registry;
}

// A plain pointer, so the disabled paths test it without a TLS guard.
thread_local ThreadRecord* tls_record = nullptr;

ThreadRecord& local_record() {
  if (tls_record == nullptr) {
    auto record = std::make_unique<ThreadRecord>();
    tls_record = record.get();
    ThreadRegistry& registry = thread_registry();
    std::lock_guard lock(registry.mutex);
    registry.records.push_back(std::move(record));
  }
  return *tls_record;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

EventRing& ring_of(ThreadRecord& record) {
  if (record.ring == nullptr) {
    ThreadRegistry& registry = thread_registry();
    std::lock_guard lock(registry.mutex);
    record.ring = std::make_unique<EventRing>(
        round_up_pow2(g_default_capacity.load(std::memory_order_relaxed)), registry.rings++);
  }
  return *record.ring;
}

EventRing& local_ring() { return ring_of(local_record()); }

struct MergedSpan {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, MergedSpan> children;
};

void absorb(MergedSpan& merged, const SpanNode& node) {
  merged.calls += node.calls.load(std::memory_order_relaxed);
  merged.total_ns += node.total_ns.load(std::memory_order_relaxed);
  for (const auto& child : node.children) absorb(merged.children[child->name], *child);
}

void emit(const std::string& prefix, int depth, const std::string& name,
          const MergedSpan& span, std::vector<SpanStat>& out) {
  const std::string path = prefix.empty() ? name : prefix + "/" + name;
  std::uint64_t children_ns = 0;
  for (const auto& [child_name, child] : span.children) children_ns += child.total_ns;
  SpanStat stat;
  stat.path = path;
  stat.name = name;
  stat.depth = depth;
  stat.calls = span.calls;
  stat.total_ns = span.total_ns;
  stat.self_ns = span.total_ns > children_ns ? span.total_ns - children_ns : 0;
  out.push_back(std::move(stat));
  for (const auto& [child_name, child] : span.children) {
    emit(path, depth + 1, child_name, child, out);
  }
}

void zero(SpanNode& node) {
  node.calls.store(0, std::memory_order_relaxed);
  node.total_ns.store(0, std::memory_order_relaxed);
  for (auto& child : node.children) zero(*child);
}

struct LaneRegistry {
  std::mutex mutex;
  std::vector<std::string> labels;  // lane id = index + 1 (0 is the functional plane)
};

LaneRegistry& lane_registry() {
  static LaneRegistry* registry = new LaneRegistry();
  return *registry;
}

// Log-line join hook: when tracing is on and a trace is in flight, log
// prefixes carry "trace=<trace>/<span>" so logs and timelines can be joined
// offline.  Installed once at static init; a no-op while tracing is off.
void trace_log_prefix(std::string& out) {
  if (!trace_enabled()) return;
  const TraceContext context = current_context();
  if (!context.active()) return;
  out += " trace=" + std::to_string(context.trace_id) + "/" + std::to_string(context.span_id);
}

[[maybe_unused]] const bool g_log_hook_installed = [] {
  set_log_prefix_hook(&trace_log_prefix);
  return true;
}();

}  // namespace

// --- the span primitive ---------------------------------------------------------------

Span::Span(const char* name, std::string_view tag) noexcept : name_(name) {
  const bool tree = enabled();
  const bool timeline = trace_enabled();
  if (!tree && !timeline) return;
  ThreadRecord& record = local_record();
  record_ = &record;
  if (tree) node_ = record.enter(name);
  start_ns_ = steady_ns();
  if (!timeline) return;
  saved_ = record.context;
  TraceContext context = saved_;
  if (context.trace_id == 0) {
    context.trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  }
  if (!tag.empty()) context.set_tag(tag);
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  context.span_id = span_id_;
  record.context = context;
  ring_of(record).record(RawEvent::Phase::kBegin, name, since_epoch(start_ns_), 0,
                         context.trace_id, span_id_, saved_.span_id, 0, context.tag);
}

Span::~Span() {
  if (record_ == nullptr) return;
  const std::uint64_t end_ns = steady_ns();
  if (span_id_ != 0) {
    // Record the end even if tracing was just switched off: an unbalanced
    // begin would corrupt every later pairing on this lane.
    const TraceContext& context = record_->context;
    record_->ring->record(RawEvent::Phase::kEnd, name_, since_epoch(end_ns), 0,
                          context.trace_id, span_id_, saved_.span_id, 0, context.tag);
    record_->context = saved_;
  }
  if (node_ != nullptr) {
    node_->calls.fetch_add(1, std::memory_order_relaxed);
    node_->total_ns.fetch_add(end_ns - start_ns_, std::memory_order_relaxed);
    record_->current.store(node_->parent, std::memory_order_release);
  }
}

// --- the aggregate tree ---------------------------------------------------------------

std::vector<SpanStat> span_stats() {
  MergedSpan merged_root;
  ThreadRegistry& registry = thread_registry();
  {
    std::lock_guard registry_lock(registry.mutex);
    for (const auto& record : registry.records) {
      std::lock_guard tree_lock(record->mutex);
      absorb(merged_root, record->root);
    }
  }
  std::vector<SpanStat> out;
  for (const auto& [name, span] : merged_root.children) emit("", 0, name, span, out);
  return out;
}

void reset_spans() {
  ThreadRegistry& registry = thread_registry();
  std::lock_guard registry_lock(registry.mutex);
  for (const auto& record : registry.records) {
    std::lock_guard tree_lock(record->mutex);
    zero(record->root);
  }
}

std::vector<std::string> sample_active_stacks() {
  std::vector<std::string> out;
  ThreadRegistry& registry = thread_registry();
  std::lock_guard registry_lock(registry.mutex);
  for (const auto& record : registry.records) {
    const SpanNode* open = record->current.load(std::memory_order_acquire);
    if (open == &record->root) continue;  // thread idle, nothing open
    // Walk leaf -> root, then reverse into the folded root-first order.
    std::vector<const char*> frames;
    for (const SpanNode* node = open; node != nullptr && node->parent != nullptr;
         node = node->parent) {
      frames.push_back(node->name);
    }
    std::string stack;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!stack.empty()) stack += ';';
      stack += *it;
    }
    out.push_back(std::move(stack));
  }
  return out;
}

// --- the timeline ---------------------------------------------------------------------

bool trace_enabled() noexcept { return g_trace_enabled.load(std::memory_order_relaxed); }
void set_trace_enabled(bool on) noexcept {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

TraceContext current_context() noexcept {
  return tls_record != nullptr ? tls_record->context : TraceContext{};
}

void set_current_context(const TraceContext& context) noexcept {
  // A thread without a record already holds the zero context; adopting it
  // (a pool worker running an untraced task) must not create one.
  if (tls_record == nullptr && context.trace_id == 0 && context.span_id == 0 &&
      context.tag[0] == '\0') {
    return;
  }
  local_record().context = context;
}

namespace {

/// An instant or counter sample under the thread's current context.
void record_point(RawEvent::Phase phase, const char* name, std::uint64_t value) noexcept {
  ThreadRecord& record = local_record();
  const TraceContext& context = record.context;
  ring_of(record).record(phase, name, since_epoch(steady_ns()), 0, context.trace_id,
                         context.span_id, context.span_id, value, context.tag);
}

}  // namespace

void trace_instant(const char* name, std::uint64_t value) noexcept {
  if (trace_enabled()) record_point(RawEvent::Phase::kInstant, name, value);
}

void trace_counter(const char* name, std::uint64_t value) noexcept {
  if (trace_enabled()) record_point(RawEvent::Phase::kCounter, name, value);
}

std::uint32_t register_lane(const std::string& label) {
  LaneRegistry& registry = lane_registry();
  std::lock_guard lock(registry.mutex);
  registry.labels.push_back(label);
  return static_cast<std::uint32_t>(registry.labels.size());
}

std::uint64_t sim_begin(std::uint32_t lane, const char* name, double sim_seconds,
                        const TraceContext& context, std::uint64_t value) noexcept {
  if (!trace_enabled()) return 0;
  const std::uint64_t span = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  local_ring().record(RawEvent::Phase::kBegin, name, sim_ns(sim_seconds), lane,
                      context.trace_id, span, context.span_id, value, context.tag);
  return span;
}

void sim_end(std::uint32_t lane, const char* name, double sim_seconds,
             std::uint64_t span_id, const TraceContext& context) noexcept {
  if (span_id == 0) return;  // begin was skipped: stay balanced
  local_ring().record(RawEvent::Phase::kEnd, name, sim_ns(sim_seconds), lane,
                      context.trace_id, span_id, context.span_id, 0, context.tag);
}

void sim_counter(std::uint32_t lane, const char* name, double sim_seconds,
                 std::uint64_t value) noexcept {
  if (!trace_enabled()) return;
  static constexpr char kNoTag[16] = {};
  local_ring().record(RawEvent::Phase::kCounter, name, sim_ns(sim_seconds), lane, 0, 0, 0,
                      value, kNoTag);
}

std::vector<RawEvent> snapshot_events() {
  std::vector<RawEvent> out;
  ThreadRegistry& registry = thread_registry();
  std::lock_guard lock(registry.mutex);
  for (const auto& record : registry.records) {
    if (record->ring != nullptr) record->ring->snapshot(out);
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> lane_labels() {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  LaneRegistry& registry = lane_registry();
  std::lock_guard lock(registry.mutex);
  out.reserve(registry.labels.size());
  for (std::size_t i = 0; i < registry.labels.size(); ++i) {
    out.emplace_back(static_cast<std::uint32_t>(i + 1), registry.labels[i]);
  }
  return out;
}

void set_default_ring_capacity(std::size_t events) {
  g_default_capacity.store(events < 8 ? 8 : events, std::memory_order_relaxed);
}

std::size_t ring_count() noexcept {
  ThreadRegistry& registry = thread_registry();
  std::lock_guard lock(registry.mutex);
  return registry.rings;
}

std::uint64_t events_dropped() noexcept {
  std::uint64_t total = 0;
  ThreadRegistry& registry = thread_registry();
  std::lock_guard lock(registry.mutex);
  for (const auto& record : registry.records) {
    if (record->ring != nullptr) total += record->ring->dropped();
  }
  return total;
}

void reset_events() {
  ThreadRegistry& registry = thread_registry();
  {
    std::lock_guard lock(registry.mutex);
    for (const auto& record : registry.records) {
      if (record->ring != nullptr) record->ring->forget();
    }
  }
  g_next_trace_id.store(1, std::memory_order_relaxed);
  g_next_span_id.store(1, std::memory_order_relaxed);
}

}  // namespace ada::obs
