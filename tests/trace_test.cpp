// Request-timeline recorder tests: the disabled fast path creates nothing,
// ring wraparound keeps the newest events, the Chrome-JSON export is
// byte-stable, contexts propagate across pool workers, and a
// concurrent record/export stress run is data-race-free (the tier's TSan
// coverage under ADA_SANITIZE).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace ada::obs {
namespace {

class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(false);
    reset_events();
  }
  void TearDown() override {
    set_trace_enabled(false);
    reset_events();
    set_default_ring_capacity(8192);
  }

  static std::vector<RawEvent> events_of(RawEvent::Phase phase) {
    std::vector<RawEvent> out;
    for (const RawEvent& event : snapshot_events()) {
      if (event.phase == phase) out.push_back(event);
    }
    return out;
  }
};

// --- disabled fast path ---------------------------------------------------------------

TEST_F(TraceTest, DisabledPathCreatesNoRingAndRecordsNothing) {
  // The acceptance criterion: with tracing disabled an instrumented call
  // site performs one relaxed load and nothing else -- in particular it
  // never allocates the thread's ring.  A fresh thread proves it: after
  // recording "events" while disabled, the global ring count is unchanged.
  const std::size_t rings_before = ring_count();
  std::thread([] {
    const Span span("ingest");
    trace_instant("marker", 7);
    trace_counter("bytes", 42);
    EXPECT_EQ(sim_begin(1, "serve", 0.5, TraceContext{}), 0u);
    sim_end(1, "serve", 1.0, 0, TraceContext{});  // balanced no-op
  }).join();
  EXPECT_EQ(ring_count(), rings_before);
  EXPECT_TRUE(snapshot_events().empty());

  // The same thread pattern with tracing on does create one ring.
  set_trace_enabled(true);
  std::thread([] { const Span span("ingest"); }).join();
  EXPECT_EQ(ring_count(), rings_before + 1);
  EXPECT_EQ(snapshot_events().size(), 2u);  // begin + end
}

TEST_F(TraceTest, SpanEndsStayBalancedAcrossDisableFlip) {
  set_trace_enabled(true);
  {
    const Span outer("outer");
    set_trace_enabled(false);  // flipped off mid-span
    const Span inner("inner");  // records nothing
  }
  const auto begins = events_of(RawEvent::Phase::kBegin);
  const auto ends = events_of(RawEvent::Phase::kEnd);
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);  // outer still closed after the flip
  EXPECT_EQ(begins[0].span_id, ends[0].span_id);
  EXPECT_STREQ(begins[0].name, "outer");
}

// --- span semantics -------------------------------------------------------------------

TEST_F(TraceTest, NestedSpansShareTraceAndChainParents) {
  set_trace_enabled(true);
  {
    const Span root("ingest", "traj_0");
    trace_instant("marker");
    {
      const Span child("preprocess");
      const Span grandchild("decode");
    }
  }
  const auto begins = events_of(RawEvent::Phase::kBegin);
  ASSERT_EQ(begins.size(), 3u);
  const RawEvent& root = begins[0];
  const RawEvent& child = begins[1];
  const RawEvent& grandchild = begins[2];
  EXPECT_NE(root.trace_id, 0u);
  EXPECT_EQ(root.parent_span, 0u);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span, root.span_id);
  EXPECT_EQ(grandchild.trace_id, root.trace_id);
  EXPECT_EQ(grandchild.parent_span, child.span_id);
  // The tag set on the root propagates to descendants.
  EXPECT_STREQ(child.tag, "traj_0");
  // Instants inherit the enclosing span as parent.
  const auto instants = events_of(RawEvent::Phase::kInstant);
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0].span_id, root.span_id);
}

TEST_F(TraceTest, SeparateRootSpansGetDistinctTraceIds) {
  set_trace_enabled(true);
  { const Span a("query"); }
  { const Span b("query"); }
  const auto begins = events_of(RawEvent::Phase::kBegin);
  ASSERT_EQ(begins.size(), 2u);
  EXPECT_NE(begins[0].trace_id, begins[1].trace_id);
}

// --- ring wraparound ------------------------------------------------------------------

TEST_F(TraceTest, WraparoundKeepsTheNewestEvents) {
  set_default_ring_capacity(16);
  set_trace_enabled(true);
  // A fresh thread picks up the small capacity; 100 instants overflow it.
  std::thread([] {
    for (std::uint64_t i = 0; i < 100; ++i) trace_instant("tick", i);
  }).join();
  const auto events = snapshot_events();
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].value, 100 - 16 + i) << "expected the newest 16 events in order";
  }
  EXPECT_EQ(events_dropped(), 100u - 16u);
  reset_events();
  EXPECT_EQ(events_dropped(), 0u);
  EXPECT_TRUE(snapshot_events().empty());
}

// --- sim plane ------------------------------------------------------------------------

TEST_F(TraceTest, SimLanesCarryContextAndStaySortedInExport) {
  set_trace_enabled(true);
  const std::uint32_t lane_a = register_lane("pvfs.s1.stripe");
  const std::uint32_t lane_b = register_lane("pvfs.s2.stripe");
  EXPECT_NE(lane_a, lane_b);
  // Repeated labels get fresh lanes: per-lane timestamps stay monotone even
  // when a model instance is rebuilt per scenario.
  EXPECT_NE(register_lane("pvfs.s1.stripe"), lane_a);

  TraceContext ctx;
  ctx.trace_id = 77;
  ctx.span_id = 5;
  ctx.set_tag("p");
  // Interleave lanes out of timestamp order; the exporter sorts per lane.
  const std::uint64_t b1 = sim_begin(lane_b, "stripe_read", 0.50, ctx, 4096);
  const std::uint64_t a1 = sim_begin(lane_a, "stripe_read", 0.25, ctx, 8192);
  sim_end(lane_b, "stripe_read", 0.90, b1, ctx);
  sim_end(lane_a, "stripe_read", 0.75, a1, ctx);
  sim_counter(lane_a, "queue_length", 0.30, 3);

  const auto events = snapshot_events();
  ASSERT_EQ(events.size(), 5u);
  for (const RawEvent& event : events) {
    if (event.phase != RawEvent::Phase::kCounter) {
      EXPECT_EQ(event.trace_id, 77u);
      EXPECT_EQ(event.parent_span, 5u);
      EXPECT_STREQ(event.tag, "p");
    }
  }

  // Parse the export back: per (pid, tid) timestamps must be monotone.
  const std::string json = to_chrome_json(events, lane_labels());
  std::vector<std::pair<std::uint64_t, std::string>> lanes;
  const auto parsed = parse_chrome_json(json, &lanes).value();
  std::map<std::pair<std::uint32_t, std::uint64_t>, double> last_ts;
  for (const ExportEvent& event : parsed) {
    const auto key = std::make_pair(event.pid, event.tid);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(event.ts_us, it->second);
    }
    last_ts[key] = event.ts_us;
  }
  // Lane labels round-trip through the metadata rows.
  bool found_a = false;
  for (const auto& [tid, label] : lanes) {
    if (tid == lane_a && label == "pvfs.s1.stripe") found_a = true;
  }
  EXPECT_TRUE(found_a);
}

// --- golden export --------------------------------------------------------------------

TEST_F(TraceTest, GoldenChromeJsonExport) {
  // to_chrome_json is a pure function of its inputs; this golden locks the
  // field ordering (tools and goldens elsewhere compare strings).
  RawEvent begin;
  begin.phase = RawEvent::Phase::kBegin;
  begin.name = "query";
  begin.ts_ns = 1500;
  begin.trace_id = 1;
  begin.span_id = 2;
  begin.parent_span = 0;
  begin.lane = 0;
  begin.thread = 0;
  std::snprintf(begin.tag, sizeof begin.tag, "p");
  RawEvent end = begin;
  end.phase = RawEvent::Phase::kEnd;
  end.ts_ns = 3750;
  RawEvent counter;
  counter.phase = RawEvent::Phase::kCounter;
  counter.name = "queue_length";
  counter.ts_ns = 2000;
  counter.value = 3;
  counter.lane = 1;
  counter.thread = 0;

  const std::string json =
      to_chrome_json({begin, end, counter}, {{1, "pvfs.mds"}});
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"functional (wall clock)\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"thread 0\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"simulated (sim time)\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
      "\"args\":{\"name\":\"pvfs.mds\"}},\n"
      "{\"name\":\"query\",\"ph\":\"B\",\"ts\":1.500,\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace\":1,\"span\":2,\"parent\":0,\"tag\":\"p\"}},\n"
      "{\"name\":\"query\",\"ph\":\"E\",\"ts\":3.750,\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace\":1,\"span\":2,\"parent\":0,\"tag\":\"p\"}},\n"
      "{\"name\":\"queue_length\",\"ph\":\"C\",\"ts\":2.000,\"pid\":2,\"tid\":1,"
      "\"args\":{\"value\":3}}\n"
      "],\"displayTimeUnit\":\"ns\"}\n";
  EXPECT_EQ(json, expected);

  // And it parses back to the same events.
  const auto parsed = parse_chrome_json(json).value();
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].name, "query");
  EXPECT_EQ(parsed[0].ph, 'B');
  EXPECT_DOUBLE_EQ(parsed[0].ts_us, 1.5);
  EXPECT_EQ(parsed[0].trace_id, 1u);
  EXPECT_EQ(parsed[0].span_id, 2u);
  EXPECT_EQ(parsed[0].tag, "p");
  EXPECT_EQ(parsed[2].ph, 'C');
  EXPECT_EQ(parsed[2].value, 3u);
}

// --- pool batch propagation -----------------------------------------------------------

TEST_F(TraceTest, ContextPropagatesAcrossParallelRunWorkers) {
  set_trace_enabled(true);
  constexpr std::size_t kTasks = 16;
  {
    const Span root("ingest_batch", "batch");
    // Each job waits until a second thread has entered some job, so the
    // batch provably lands on more than one worker (the calling thread
    // would otherwise race through all of them).
    std::atomic<int> entered{0};
    ThreadPool::shared().run(kTasks, 4, [&entered](std::size_t) {
      const Span task("task");
      entered.fetch_add(1);
      while (entered.load() < 2) std::this_thread::yield();
    });
  }
  const auto begins = events_of(RawEvent::Phase::kBegin);
  std::uint64_t root_trace = 0, root_span = 0;
  std::size_t task_begins = 0;
  std::set<std::uint32_t> threads;
  for (const RawEvent& event : begins) {
    if (std::string_view(event.name) == "ingest_batch") {
      root_trace = event.trace_id;
      root_span = event.span_id;
    }
  }
  ASSERT_NE(root_trace, 0u);
  for (const RawEvent& event : begins) {
    if (std::string_view(event.name) != "task") continue;
    ++task_begins;
    threads.insert(event.thread);
    EXPECT_EQ(event.trace_id, root_trace) << "worker span left the caller's trace";
    EXPECT_EQ(event.parent_span, root_span);
    EXPECT_STREQ(event.tag, "batch");
  }
  EXPECT_EQ(task_begins, kTasks);
  EXPECT_GT(threads.size(), 1u) << "expected tasks on more than one thread";
  // Balanced begin/end overall.
  EXPECT_EQ(begins.size(), events_of(RawEvent::Phase::kEnd).size());
}

// --- log joining ----------------------------------------------------------------------

TEST_F(TraceTest, LogLinesCarryTheActiveTraceId) {
  set_trace_enabled(true);
  const Span span("ingest");
  const TraceContext ctx = current_context();
  testing::internal::CaptureStderr();
  ADA_LOG(kError) << "boom";
  const std::string with_trace = testing::internal::GetCapturedStderr();
  EXPECT_NE(with_trace.find("trace=" + std::to_string(ctx.trace_id) + "/" +
                            std::to_string(ctx.span_id)),
            std::string::npos)
      << with_trace;

  set_trace_enabled(false);
  testing::internal::CaptureStderr();
  ADA_LOG(kError) << "quiet";
  EXPECT_EQ(testing::internal::GetCapturedStderr().find("trace="), std::string::npos);
}

// --- concurrent record/export stress --------------------------------------------------

TEST_F(TraceTest, ConcurrentRecordAndSnapshotIsRaceFree) {
  // Writers hammer their rings (wrapping them many times over) while the
  // main thread snapshots concurrently.  Under ADA_SANITIZE=ON this is the
  // TSan proof that the seqlock slots are data-race-free; unsanitized it
  // still checks that snapshots only ever surface fully-written events.
  set_default_ring_capacity(64);
  set_trace_enabled(true);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kEventsPerWriter = 20000;
  std::atomic<bool> start{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kEventsPerWriter; ++i) {
        const Span span("stress");
        trace_counter("stress.value", (static_cast<std::uint64_t>(w) << 32) | i);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  start.store(true, std::memory_order_release);
  std::size_t snapshots = 0;
  while (done.load(std::memory_order_acquire) < kWriters) {
    const auto events = snapshot_events();
    ++snapshots;
    for (const RawEvent& event : events) {
      // Every surfaced slot is complete: a name from the fixed set and a
      // coherent phase.  Torn slots would show null/garbage names.
      const std::string_view name(event.name);
      EXPECT_TRUE(name == "stress" || name == "stress.value") << name;
    }
  }
  for (auto& writer : writers) writer.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(events_dropped(), 0u);  // the rings wrapped while recording
}

}  // namespace
}  // namespace ada::obs
