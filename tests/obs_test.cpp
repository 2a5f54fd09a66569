// Tests for the observability substrate (src/obs): registry semantics,
// histogram math, span nesting, exporter goldens, and a multi-threaded
// stress run over a shared-pool batch proving no increments are lost.
//
// obs state is process-global; every test brackets itself with
// reset_all()/set_enabled() so the suite also passes when the whole binary
// runs in one process (plain `./obs_test` as well as per-test ctest).
#include <gtest/gtest.h>

#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::obs {
namespace {

class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    reset_all();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    set_trace_enabled(false);
    reset_all();
    reset_events();
  }
};

const SpanStat* find_span(const std::vector<SpanStat>& stats, const std::string& path) {
  for (const auto& stat : stats) {
    if (stat.path == path) return &stat;
  }
  return nullptr;
}

/// Timeline events named `name`, begins and ends alike.
std::vector<RawEvent> events_named(std::string_view name) {
  std::vector<RawEvent> out;
  for (const RawEvent& event : snapshot_events()) {
    if (name == event.name) out.push_back(event);
  }
  return out;
}

// --- registry semantics ---------------------------------------------------------------

TEST_F(ObsTest, LookupIsIdempotent) {
  Registry& registry = Registry::global();
  Counter& a = registry.counter("obs_test.idem");
  Counter& b = registry.counter("obs_test.idem");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&registry.gauge("obs_test.idem_g"), &registry.gauge("obs_test.idem_g"));
  EXPECT_EQ(&registry.histogram("obs_test.idem_h"), &registry.histogram("obs_test.idem_h"));
  // Same name in different instrument families are distinct objects.
  a.add(3);
  EXPECT_EQ(registry.counter_value("obs_test.idem"), 3u);
  EXPECT_EQ(registry.gauge_value("obs_test.idem_g"), 0.0);
}

TEST_F(ObsTest, ResetZeroesButKeepsReferencesValid) {
  Registry& registry = Registry::global();
  Counter& counter = registry.counter("obs_test.reset");
  counter.add(7);
  EXPECT_EQ(counter.value(), 7u);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(2);  // the cached reference still feeds the same instrument
  EXPECT_EQ(registry.counter_value("obs_test.reset"), 2u);
}

TEST_F(ObsTest, UnknownInstrumentReadsAsZero) {
  EXPECT_EQ(Registry::global().counter_value("obs_test.never_created"), 0u);
  EXPECT_EQ(Registry::global().gauge_value("obs_test.never_created"), 0.0);
}

TEST_F(ObsTest, DisabledInstrumentsIgnoreWrites) {
  Registry& registry = Registry::global();
  Counter& counter = registry.counter("obs_test.gate");
  Gauge& gauge = registry.gauge("obs_test.gate_g");
  Histogram& histogram = registry.histogram("obs_test.gate_h");
  set_enabled(false);
  counter.add(5);
  gauge.set(1.5);
  histogram.observe(42);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  set_enabled(true);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge& gauge = Registry::global().gauge("obs_test.gauge");
  gauge.set(10.0);
  gauge.add(-2.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 8.0);
}

// --- histogram math -------------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds zeros; bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 20), 21u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST_F(ObsTest, HistogramCountSumMaxMean) {
  Histogram& h = Registry::global().histogram("obs_test.hist");
  for (std::uint64_t v = 1; v <= 8; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 36u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(2), 2u);  // {2,3}
  EXPECT_EQ(h.bucket_count(3), 4u);  // {4..7}
  EXPECT_EQ(h.bucket_count(4), 1u);  // {8}
}

TEST_F(ObsTest, HistogramPercentiles) {
  Histogram& empty = Registry::global().histogram("obs_test.hist_empty");
  EXPECT_EQ(empty.percentile(0.5), 0.0);

  Histogram& zeros = Registry::global().histogram("obs_test.hist_zeros");
  for (int i = 0; i < 5; ++i) zeros.observe(0);
  EXPECT_EQ(zeros.percentile(0.99), 0.0);

  Histogram& h = Registry::global().histogram("obs_test.hist_pct");
  for (std::uint64_t v = 1; v <= 8; ++v) h.observe(v);
  // rank 4 falls at the start of bucket [4,7]: interpolation lands on 4.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
  // rank 8 is the lone observation in bucket [8,15], clamped by max() = 8.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
  // Quantiles are monotone in q and bounded by the observed max.
  double prev = 0.0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    EXPECT_LE(p, static_cast<double>(h.max())) << "q=" << q;
    prev = p;
  }
}

// The documented accuracy contract (metrics.hpp): interpolation never leaves
// the matched bucket's value range, so edges degrade gracefully and the
// relative error is bounded by the bucket width (a factor of two).
TEST_F(ObsTest, HistogramPercentileAccuracyAtBucketEdges) {
  // An all-identical stream at a lower bucket edge (64 opens bucket [64,127])
  // reports every quantile exactly at that value: the max() clamp collapses
  // the interpolation range [64, 127] down to [64, 64].
  Histogram& edge = Registry::global().histogram("obs_test.hist_edge");
  for (int i = 0; i < 1000; ++i) edge.observe(64);
  for (const double q : {0.01, 0.5, 0.9, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(edge.percentile(q), 64.0) << "q=" << q;
  }

  // A stream at an upper bucket edge (127 closes bucket [64,127]) stays in
  // range too: quantiles land in [64, 127] -- within a factor of two of the
  // true value, never above the observed max.
  Histogram& upper = Registry::global().histogram("obs_test.hist_upper");
  for (int i = 0; i < 1000; ++i) upper.observe(127);
  for (const double q : {0.01, 0.5, 0.999, 1.0}) {
    const double p = upper.percentile(q);
    EXPECT_GE(p, 64.0) << "q=" << q;
    EXPECT_LE(p, 127.0) << "q=" << q;
    EXPECT_GE(p, 127.0 / 2.0) << "factor-of-two bound violated at q=" << q;
  }

  // Mixed distribution: every quantile stays inside its matched bucket's
  // range, so values between the clusters are never invented far off.
  Histogram& mixed = Registry::global().histogram("obs_test.hist_mixed");
  for (int i = 0; i < 50; ++i) mixed.observe(10);    // bucket [8, 15]
  for (int i = 0; i < 50; ++i) mixed.observe(1000);  // bucket [512, 1023]
  const double p25 = mixed.percentile(0.25);
  EXPECT_GE(p25, 8.0);
  EXPECT_LE(p25, 15.0);
  const double p75 = mixed.percentile(0.75);
  EXPECT_GE(p75, 512.0);
  EXPECT_LE(p75, 1000.0);  // max clamp beats the raw bucket top of 1023
}

// percentile_from_buckets is the same interpolation over an explicit bucket
// array -- the telemetry sampler feeds it windowed (diffed) buckets.
TEST_F(ObsTest, PercentileFromBucketsMatchesHistogramContract) {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  EXPECT_EQ(percentile_from_buckets(buckets, 0, 0.5, 0), 0.0);  // empty window

  // 10 zeros: bucket 0 is exact.
  buckets[0] = 10;
  EXPECT_EQ(percentile_from_buckets(buckets, 10, 0.99, 0), 0.0);

  // Add 90 observations of value 1 (bucket 1 covers [1, 1]).
  buckets[1] = 90;
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.5, 1), 1.0);

  // A window whose counts sit in bucket [1024, 2047] but whose stream max
  // is 1500 clamps to the max, honoring the "never past max" clause.
  std::array<std::uint64_t, Histogram::kBuckets> high{};
  high[Histogram::bucket_of(1500)] = 10;
  const double p99 = percentile_from_buckets(high, 10, 0.99, 1500);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 1500.0);

  // Monotone in q over the explicit array, as for the live histogram.
  double prev = 0.0;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double p = percentile_from_buckets(buckets, 100, q, 1);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

// --- macros ---------------------------------------------------------------------------

TEST_F(ObsTest, HotPathMacrosRecordWhenEnabled) {
  ADA_OBS_COUNT("obs_test.macro", 2);
  ADA_OBS_COUNT("obs_test.macro", 3);
  ADA_OBS_OBSERVE("obs_test.macro_h", 16);
  EXPECT_EQ(Registry::global().counter_value("obs_test.macro"), 5u);
  EXPECT_EQ(Registry::global().histogram("obs_test.macro_h").count(), 1u);
  set_enabled(false);
  ADA_OBS_COUNT("obs_test.macro", 100);
  EXPECT_EQ(Registry::global().counter_value("obs_test.macro"), 5u);
}

// --- span nesting ---------------------------------------------------------------------

TEST_F(ObsTest, SpansNestIntoPerThreadTree) {
  {
    const Span outer("obs_outer");
    { const Span inner("obs_inner"); }
    { const Span inner("obs_inner"); }
  }
  { const Span outer("obs_outer"); }

  const auto stats = span_stats();
  const SpanStat* outer = find_span(stats, "obs_outer");
  const SpanStat* inner = find_span(stats, "obs_outer/obs_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->calls, 2u);
  EXPECT_EQ(inner->calls, 2u);
  EXPECT_EQ(inner->name, "obs_inner");
  // A child's time is contained in the parent's; self excludes children.
  EXPECT_LE(inner->total_ns, outer->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  // Depth-first order: the parent precedes its child.
  EXPECT_LT(outer - stats.data(), inner - stats.data());
  // The sibling opened at top level is its own root span.
  EXPECT_EQ(find_span(stats, "obs_inner"), nullptr);
}

TEST_F(ObsTest, SpansDisabledRecordNothing) {
  set_enabled(false);
  { const Span span("obs_gated"); }
  set_enabled(true);
  EXPECT_EQ(find_span(span_stats(), "obs_gated"), nullptr);
}

// --- one span, two sinks --------------------------------------------------------------
//
// obs::enabled() gates the tree and obs::trace_enabled() the ring, each read
// once at open.  Spans open on a fresh thread, so ring_count() shows whether
// the span created a ring.

TEST_F(ObsTest, SpanWithBothSwitchesOffRecordsNothing) {
  set_enabled(false);
  const std::size_t rings = ring_count();
  std::thread([] { const Span span("obs_gate_off"); }).join();
  EXPECT_EQ(ring_count(), rings);
  EXPECT_EQ(find_span(span_stats(), "obs_gate_off"), nullptr);
  EXPECT_TRUE(events_named("obs_gate_off").empty());
}

TEST_F(ObsTest, SpanWithMetricsOnlyRecordsATreeNodeAndNoRing) {
  const std::size_t rings = ring_count();
  std::thread([] { const Span span("obs_gate_tree"); }).join();
  EXPECT_EQ(ring_count(), rings);
  const auto stats = span_stats();
  const SpanStat* span = find_span(stats, "obs_gate_tree");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->calls, 1u);
  EXPECT_TRUE(events_named("obs_gate_tree").empty());
}

TEST_F(ObsTest, SpanWithTracingOnlyRecordsEventsAndNoTreeNode) {
  set_enabled(false);
  set_trace_enabled(true);
  const std::size_t rings = ring_count();
  std::thread([] { const Span span("obs_gate_ring", "p"); }).join();
  EXPECT_EQ(ring_count(), rings + 1);
  const auto events = events_named("obs_gate_ring");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, RawEvent::Phase::kBegin);
  EXPECT_EQ(events[1].phase, RawEvent::Phase::kEnd);
  EXPECT_EQ(events[0].span_id, events[1].span_id);
  EXPECT_STREQ(events[0].tag, "p");
  EXPECT_EQ(find_span(span_stats(), "obs_gate_ring"), nullptr);
}

TEST_F(ObsTest, SpanSinksStayBalancedWhenSwitchesFlipMidSpan) {
  set_trace_enabled(true);
  {
    const Span outer("obs_flip_outer");  // opens in both sinks
    set_enabled(false);
    set_trace_enabled(false);
    const Span inner("obs_flip_inner");  // opens in neither
  }
  // The outer span still closed in both sinks after both switches went off.
  auto stats = span_stats();
  const SpanStat* outer = find_span(stats, "obs_flip_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(find_span(stats, "obs_flip_outer/obs_flip_inner"), nullptr);
  const auto outer_events = events_named("obs_flip_outer");
  ASSERT_EQ(outer_events.size(), 2u);
  EXPECT_EQ(outer_events[0].span_id, outer_events[1].span_id);
  EXPECT_TRUE(events_named("obs_flip_inner").empty());
  EXPECT_TRUE(sample_active_stacks().empty()) << "the open node was not restored";
  EXPECT_EQ(current_context().trace_id, 0u) << "the trace context was not restored";

  // The reverse flip: a span opened with both off records nothing at its
  // close, and one opened after the switch-on is a root in both sinks.
  {
    const Span late("obs_flip_late");
    set_enabled(true);
    set_trace_enabled(true);
    const Span child("obs_flip_child");
  }
  stats = span_stats();
  EXPECT_EQ(find_span(stats, "obs_flip_late"), nullptr);
  const SpanStat* child = find_span(stats, "obs_flip_child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->calls, 1u);
  EXPECT_TRUE(events_named("obs_flip_late").empty());
  const auto child_events = events_named("obs_flip_child");
  ASSERT_EQ(child_events.size(), 2u);
  EXPECT_EQ(child_events[0].parent_span, 0u);
  EXPECT_TRUE(sample_active_stacks().empty());
}

// --- exporter goldens -----------------------------------------------------------------

Snapshot golden_snapshot() {
  Snapshot snapshot;
  snapshot.counters["ingest.bytes_in"] = 1024;
  snapshot.counters["ingest.calls"] = 2;
  snapshot.gauges["queue.depth"] = 1.5;
  Snapshot::HistogramStat h;
  h.count = 3;
  h.sum = 12;
  h.max = 8;
  h.mean = 4.0;
  h.p50 = 2.0;
  h.p90 = 6.5;
  h.p99 = 8.0;
  snapshot.histograms["codec.atoms"] = h;
  SpanStat root;
  root.path = "ingest";
  root.name = "ingest";
  root.depth = 0;
  root.calls = 2;
  root.total_ns = 300;
  root.self_ns = 100;
  SpanStat child;
  child.path = "ingest/decode";
  child.name = "decode";
  child.depth = 1;
  child.calls = 2;
  child.total_ns = 200;
  child.self_ns = 200;
  snapshot.spans = {root, child};
  return snapshot;
}

TEST_F(ObsTest, JsonExportGolden) {
  EXPECT_EQ(
      to_json(golden_snapshot()),
      "{\"version\":1,"
      "\"counters\":{\"ingest.bytes_in\":1024,\"ingest.calls\":2},"
      "\"gauges\":{\"queue.depth\":1.5},"
      "\"histograms\":{\"codec.atoms\":{\"count\":3,\"sum\":12,\"max\":8,"
      "\"mean\":4,\"p50\":2,\"p90\":6.5,\"p99\":8}},"
      "\"spans\":[{\"path\":\"ingest\",\"depth\":0,\"calls\":2,"
      "\"total_ns\":300,\"self_ns\":100},"
      "{\"path\":\"ingest/decode\",\"depth\":1,\"calls\":2,"
      "\"total_ns\":200,\"self_ns\":200}]}");
}

TEST_F(ObsTest, JsonEscapesControlAndQuoteCharacters) {
  Snapshot snapshot;
  snapshot.counters["we\"ird\\name\n"] = 1;
  EXPECT_EQ(to_json(snapshot),
            "{\"version\":1,\"counters\":{\"we\\\"ird\\\\name\\n\":1},"
            "\"gauges\":{},\"histograms\":{},\"spans\":[]}");
}

TEST_F(ObsTest, EmptySnapshotExportsAsEmptyDocument) {
  const Snapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
  EXPECT_EQ(to_json(snapshot),
            "{\"version\":1,\"counters\":{},\"gauges\":{},\"histograms\":{},\"spans\":[]}");
  std::ostringstream os;
  print_tables(snapshot, os);
  EXPECT_EQ(os.str(), "");  // nothing to print, no headers either
}

TEST_F(ObsTest, TableExportGolden) {
  std::ostringstream os;
  print_tables(golden_snapshot(), os);
  const std::string text = os.str();
  // Section order and content; exact column widths are Table's business.
  const auto counters_at = text.find("-- counters --");
  const auto histograms_at = text.find("-- histograms --");
  const auto spans_at = text.find("-- spans --");
  ASSERT_NE(counters_at, std::string::npos);
  ASSERT_NE(histograms_at, std::string::npos);
  ASSERT_NE(spans_at, std::string::npos);
  EXPECT_LT(counters_at, histograms_at);
  EXPECT_LT(histograms_at, spans_at);
  EXPECT_NE(text.find("ingest.bytes_in"), std::string::npos);
  EXPECT_NE(text.find("queue.depth (gauge)"), std::string::npos);
  EXPECT_NE(text.find("codec.atoms"), std::string::npos);
  // The child span is indented two spaces under its parent.
  EXPECT_NE(text.find("\n  decode"), std::string::npos);
}

TEST_F(ObsTest, CaptureRoundTripsRegistryValues) {
  Registry::global().counter("obs_test.cap").add(11);
  Registry::global().gauge("obs_test.cap_g").set(2.5);
  Registry::global().histogram("obs_test.cap_h").observe(4);
  const Snapshot snapshot = capture();
  EXPECT_EQ(snapshot.counters.at("obs_test.cap"), 11u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test.cap_g"), 2.5);
  EXPECT_EQ(snapshot.histograms.at("obs_test.cap_h").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("obs_test.cap_h").max, 4u);
}

// --- multi-threaded stress ------------------------------------------------------------

TEST_F(ObsTest, ParallelRunLosesNoIncrements) {
  constexpr int kTasks = 64;
  constexpr int kIters = 5000;
  Counter& counter = Registry::global().counter("obs_test.stress");
  Histogram& histogram = Registry::global().histogram("obs_test.stress_h");

  ThreadPool::shared().run(kTasks, 8, [&counter, &histogram](std::size_t t) {
    for (int i = 0; i < kIters; ++i) {
      const Span span("obs_stress");
      counter.add(1);
      histogram.observe(static_cast<std::uint64_t>(i));
      // Exercise the concurrent-merge path: snapshots taken while other
      // threads are mid-record must be race-free.
      if (i % 1024 == static_cast<int>(t)) {
        const Snapshot snapshot = capture();
        (void)snapshot;
      }
    }
  });

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kTasks) * kIters);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kTasks) * kIters);
  EXPECT_EQ(histogram.max(), static_cast<std::uint64_t>(kIters) - 1);
  const auto stats = span_stats();
  const SpanStat* span = find_span(stats, "obs_stress");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->calls, static_cast<std::uint64_t>(kTasks) * kIters);
}

}  // namespace
}  // namespace ada::obs
