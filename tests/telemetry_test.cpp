// Telemetry-plane tests: the metrics sampler's delta/reconciliation
// contract, windowed percentiles, the OpenMetrics exposition golden, the
// span-attributed sampling profiler, the rate-limited warning channel, and
// the ada-stats diff/summarize core that the check-perf gate runs.
//
// The e2e differential at the bottom runs the full GPCR pipeline with the
// telemetry sampler and profiler armed and proves (a) the data path is
// byte-identical to an uninstrumented run and (b) the JSONL time series
// reconciles with the final cumulative dump -- the two acceptance claims of
// the continuous-telemetry plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ada/middleware.hpp"
#include "common/json.hpp"
#include "formats/xtc_file.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/warn.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::obs {
namespace {

namespace fs = std::filesystem;

class TelemetryTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = test::unique_temp_dir("ada_telemetry");
    fs::remove_all(root_);
    fs::create_directories(root_);
    reset_all();
    set_enabled(true);
    set_warn_rate(5.0, 10.0);
    reset_warn_state();
  }

  void TearDown() override {
    stop_telemetry();
    stop_profiler();
    set_enabled(false);
    reset_all();
    set_warn_rate(5.0, 10.0);
    reset_warn_state();
    fs::remove_all(root_);
  }

  std::string path(const std::string& leaf) const { return root_ + "/" + leaf; }

  static std::string read_text(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  // Parse a JSONL file into one json::Value per line.
  static std::vector<json::Value> read_jsonl(const std::string& file) {
    std::vector<json::Value> lines;
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto parsed = json::parse(line);
      EXPECT_TRUE(parsed.is_ok()) << "unparseable telemetry line: " << line;
      if (parsed.is_ok()) lines.push_back(std::move(parsed).value());
    }
    return lines;
  }

  static double counter_field(const json::Value& line, const std::string& name,
                              const std::string& field) {
    const json::Value* counters = line.find("counters");
    EXPECT_NE(counters, nullptr);
    const json::Value* entry = counters->find(name);
    EXPECT_NE(entry, nullptr) << "counter " << name << " missing from sample";
    const json::Value* value = entry->find(field);
    EXPECT_NE(value, nullptr);
    return value == nullptr ? -1.0 : value->number;
  }

  static double histogram_field(const json::Value& line, const std::string& name,
                                const std::string& field) {
    const json::Value* histograms = line.find("histograms");
    EXPECT_NE(histograms, nullptr);
    const json::Value* entry = histograms->find(name);
    EXPECT_NE(entry, nullptr) << "histogram " << name << " missing from sample";
    const json::Value* value = entry->find(field);
    EXPECT_NE(value, nullptr);
    return value == nullptr ? -1.0 : value->number;
  }

  std::string root_;
};

// --- MetricsSampler ----------------------------------------------------------

TEST_F(TelemetryTest, SamplerDeltasSumToFinalTotals) {
  const std::string file = path("ts.jsonl");
  auto sampler = MetricsSampler::open({file, 250});
  ASSERT_TRUE(sampler.is_ok()) << sampler.error().to_string();

  Counter& frames = Registry::global().counter("telemetry.frames");
  frames.add(10);
  sampler.value()->sample_now("wall", 100.0);
  frames.add(5);
  sampler.value()->sample_now("wall", 200.0);
  // stop() without start() still appends the final wall sample.
  sampler.value()->stop();
  EXPECT_EQ(sampler.value()->lines_written(), 3u);

  const auto lines = read_jsonl(file);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(counter_field(lines[0], "telemetry.frames", "total"), 10.0);
  EXPECT_EQ(counter_field(lines[0], "telemetry.frames", "delta"), 10.0);
  EXPECT_EQ(counter_field(lines[1], "telemetry.frames", "total"), 15.0);
  EXPECT_EQ(counter_field(lines[1], "telemetry.frames", "delta"), 5.0);
  EXPECT_EQ(counter_field(lines[2], "telemetry.frames", "delta"), 0.0);

  // The reconciliation contract: summed deltas == final cumulative total.
  double delta_sum = 0.0;
  for (const auto& line : lines) delta_sum += counter_field(line, "telemetry.frames", "delta");
  EXPECT_EQ(delta_sum, 15.0);
  EXPECT_EQ(Registry::global().counter_value("telemetry.frames"), 15u);

  // seq increments monotonically across samples.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const json::Value* seq = lines[i].find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->number, static_cast<double>(i));
  }
}

TEST_F(TelemetryTest, SamplerKeepsIndependentBaselinesPerClock) {
  auto sampler = MetricsSampler::open({path("clocks.jsonl"), 250});
  ASSERT_TRUE(sampler.is_ok());

  Counter& ops = Registry::global().counter("telemetry.ops");
  ops.add(8);
  sampler.value()->sample_now("wall", 1.0);
  sampler.value()->sample_now("sim", 1.0);
  ops.add(2);
  sampler.value()->sample_now("sim", 2.0);
  sampler.value()->sample_now("wall", 2.0);

  const auto lines = read_jsonl(path("clocks.jsonl"));
  ASSERT_EQ(lines.size(), 4u);
  // Each clock sees the full history through its own baseline: the sim
  // clock's first sample carries the same 8-delta the wall clock got.
  EXPECT_EQ(counter_field(lines[0], "telemetry.ops", "delta"), 8.0);  // wall
  EXPECT_EQ(counter_field(lines[1], "telemetry.ops", "delta"), 8.0);  // sim
  EXPECT_EQ(counter_field(lines[2], "telemetry.ops", "delta"), 2.0);  // sim
  EXPECT_EQ(counter_field(lines[3], "telemetry.ops", "delta"), 2.0);  // wall
  // Both clocks independently reconcile to the same total.
  EXPECT_EQ(counter_field(lines[2], "telemetry.ops", "total"), 10.0);
  EXPECT_EQ(counter_field(lines[3], "telemetry.ops", "total"), 10.0);
}

TEST_F(TelemetryTest, WindowedPercentilesReflectOnlyTheWindow) {
  auto sampler = MetricsSampler::open({path("win.jsonl"), 250});
  ASSERT_TRUE(sampler.is_ok());

  Histogram& lat = Registry::global().histogram("telemetry.lat");
  for (int i = 0; i < 10; ++i) lat.observe(1024);
  sampler.value()->sample_now("wall", 1.0);
  for (int i = 0; i < 90; ++i) lat.observe(1);
  sampler.value()->sample_now("wall", 2.0);

  const auto lines = read_jsonl(path("win.jsonl"));
  ASSERT_EQ(lines.size(), 2u);
  // First sample: the window is the whole history, all at 1024.
  EXPECT_EQ(histogram_field(lines[0], "telemetry.lat", "win_p50"), 1024.0);
  // Second sample: the window holds only the 90 ones, so its quantiles sit
  // at 1 even though the cumulative p99 still lands in the 1024 bucket.
  EXPECT_EQ(histogram_field(lines[1], "telemetry.lat", "delta"), 90.0);
  EXPECT_EQ(histogram_field(lines[1], "telemetry.lat", "win_p50"), 1.0);
  EXPECT_EQ(histogram_field(lines[1], "telemetry.lat", "win_p99"), 1.0);
  EXPECT_EQ(histogram_field(lines[1], "telemetry.lat", "count"), 100.0);
  EXPECT_EQ(histogram_field(lines[1], "telemetry.lat", "p50"), 1.0);
  EXPECT_EQ(histogram_field(lines[1], "telemetry.lat", "p99"), 1024.0);
}

TEST_F(TelemetryTest, SimTickEmitsOnVirtualInterval) {
  auto sampler = MetricsSampler::open({path("sim.jsonl"), 100});
  ASSERT_TRUE(sampler.is_ok());

  sampler.value()->sim_tick(0.000);  // first sim tick always emits
  sampler.value()->sim_tick(0.050);  // +50ms < 100ms interval: skipped
  sampler.value()->sim_tick(0.100);  // interval reached: emits
  sampler.value()->sim_tick(0.150);  // skipped again
  EXPECT_EQ(sampler.value()->lines_written(), 2u);

  const auto lines = read_jsonl(path("sim.jsonl"));
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    const json::Value* clock = line.find("clock");
    ASSERT_NE(clock, nullptr);
    EXPECT_EQ(clock->string, "sim");
  }
  EXPECT_EQ(lines[0].find("t_ms")->number, 0.0);
  EXPECT_EQ(lines[1].find("t_ms")->number, 100.0);
}

TEST_F(TelemetryTest, StartTelemetryValidatesSpec) {
  EXPECT_FALSE(start_telemetry(path("bad.jsonl") + ",abc").is_ok());
  EXPECT_FALSE(start_telemetry(path("bad.jsonl") + ",0").is_ok());
  EXPECT_FALSE(start_telemetry("").is_ok());
  EXPECT_FALSE(telemetry_active());

  ASSERT_TRUE(start_telemetry(path("global.jsonl") + ",50").is_ok());
  EXPECT_TRUE(telemetry_active());
  EXPECT_FALSE(start_telemetry(path("second.jsonl")).is_ok());  // already running
  stop_telemetry();
  EXPECT_FALSE(telemetry_active());
  // The final flush guarantees at least one (wall) sample even for an
  // instantly-stopped plane.
  EXPECT_GE(read_jsonl(path("global.jsonl")).size(), 1u);
}

TEST_F(TelemetryTest, TelemetrySimTickIsNoOpWhenInactive) {
  telemetry_sim_tick(1.0);  // must not crash or allocate a sampler
  EXPECT_FALSE(telemetry_active());
}

// --- OpenMetrics exposition --------------------------------------------------

TEST_F(TelemetryTest, OpenMetricsGolden) {
  Snapshot snapshot;
  snapshot.counters["ingest.frames"] = 3;
  snapshot.gauges["cache.bytes"] = 42.0;
  Snapshot::HistogramStat lat;
  lat.count = 3;
  lat.sum = 6;
  lat.max = 4;
  lat.buckets[Histogram::bucket_of(0)] += 1;  // bucket 0: exact zero
  lat.buckets[Histogram::bucket_of(2)] += 1;  // bucket 2: [2, 3]
  lat.buckets[Histogram::bucket_of(4)] += 1;  // bucket 3: [4, 7]
  snapshot.histograms["query.lat_ns"] = lat;
  SpanStat span;
  span.path = "ingest/decode";
  span.name = "decode";
  span.depth = 1;
  span.calls = 2;
  span.total_ns = 10;
  span.self_ns = 7;
  snapshot.spans.push_back(span);

  const std::string expected =
      "# HELP ada_ingest_frames ADA counter ingest.frames\n"
      "# TYPE ada_ingest_frames counter\n"
      "ada_ingest_frames_total 3\n"
      "# HELP ada_cache_bytes ADA gauge cache.bytes\n"
      "# TYPE ada_cache_bytes gauge\n"
      "ada_cache_bytes 42\n"
      "# HELP ada_query_lat_ns ADA log-scale histogram query.lat_ns\n"
      "# TYPE ada_query_lat_ns histogram\n"
      "ada_query_lat_ns_bucket{le=\"0\"} 1\n"
      "ada_query_lat_ns_bucket{le=\"1\"} 1\n"
      "ada_query_lat_ns_bucket{le=\"3\"} 2\n"
      "ada_query_lat_ns_bucket{le=\"7\"} 3\n"
      "ada_query_lat_ns_bucket{le=\"+Inf\"} 3\n"
      "ada_query_lat_ns_sum 6\n"
      "ada_query_lat_ns_count 3\n"
      "# HELP ada_span_calls ADA span call counts by tree path\n"
      "# TYPE ada_span_calls counter\n"
      "ada_span_calls_total{path=\"ingest/decode\"} 2\n"
      "# HELP ada_span_time_ns ADA span total (inclusive) nanoseconds\n"
      "# TYPE ada_span_time_ns counter\n"
      "ada_span_time_ns_total{path=\"ingest/decode\"} 10\n"
      "# HELP ada_span_self_ns ADA span self (exclusive) nanoseconds\n"
      "# TYPE ada_span_self_ns counter\n"
      "ada_span_self_ns_total{path=\"ingest/decode\"} 7\n"
      "# EOF\n";
  EXPECT_EQ(to_openmetrics(snapshot), expected);
}

TEST_F(TelemetryTest, OpenMetricsFromLiveRegistry) {
  Registry::global().counter("om.live-counter").add(7);
  const std::string text = to_openmetrics(capture());
  EXPECT_NE(text.find("ada_om_live_counter_total 7\n"), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

// --- Sampling profiler -------------------------------------------------------

TEST_F(TelemetryTest, ProfilerFoldsDeterministicStacks) {
  SamplingProfiler profiler({"", 1000});
  {
    const Span ingest("ingest");
    {
      const Span decode("decode");
      profiler.sample_once();
      profiler.sample_once();
    }
    profiler.sample_once();
  }
  profiler.sample_once();  // idle: every thread at root, nothing recorded

  EXPECT_EQ(profiler.samples(), 4u);
  const auto folded = profiler.folded();
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded.at("ingest;decode"), 2u);
  EXPECT_EQ(folded.at("ingest"), 1u);
  EXPECT_EQ(profiler.folded_text(), "ingest 1\ningest;decode 2\n");

  const auto table = profiler.stage_table();
  ASSERT_EQ(table.size(), 2u);
  // Sorted by self descending: decode leads (leaf in 2 samples).
  EXPECT_EQ(table[0].name, "decode");
  EXPECT_EQ(table[0].self, 2u);
  EXPECT_EQ(table[0].total, 2u);
  EXPECT_EQ(table[1].name, "ingest");
  EXPECT_EQ(table[1].self, 1u);
  EXPECT_EQ(table[1].total, 3u);
}

TEST_F(TelemetryTest, ProfilerStopWritesFoldedFile) {
  const std::string file = path("profile.folded");
  SamplingProfiler profiler({file, 1000});
  {
    const Span query("query");
    profiler.sample_once();
  }
  ASSERT_TRUE(profiler.stop().is_ok());
  EXPECT_EQ(read_text(file), "query 1\n");
}

TEST_F(TelemetryTest, ProfilerAndSamplerSurviveConcurrentStartStop) {
  // Workers hammer spans and counters while the wall tickers run; the test
  // is the absence of races/crashes (run under TSan in the sanitizer job).
  ASSERT_TRUE(start_telemetry(path("stress.jsonl") + ",2").is_ok());
  ASSERT_TRUE(start_profiler(path("stress.folded") + ",200").is_ok());

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([] {
      for (int i = 0; i < 400; ++i) {
        const Span outer("stress");
        const Span inner(i % 2 == 0 ? "even" : "odd");
        ADA_OBS_COUNT("telemetry.stress", 1);
        ADA_OBS_OBSERVE("telemetry.stress_ns", i);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop_profiler();
  stop_telemetry();

  EXPECT_EQ(Registry::global().counter_value("telemetry.stress"), 4u * 400u);
  // The final stop-flush line always lands, whatever the ticker managed.
  const auto lines = read_jsonl(path("stress.jsonl"));
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(counter_field(lines.back(), "telemetry.stress", "total"), 1600.0);
}

// --- Rate-limited warnings ---------------------------------------------------

TEST_F(TelemetryTest, WarnTokenBucketLimitsEmission) {
  set_warn_rate(0.0, 2.0);  // no refill: exactly the burst gets through
  reset_warn_state();
  for (int i = 0; i < 5; ++i) {
    warn(WarnSeverity::kWarn, "test", "warning " + std::to_string(i));
  }
  EXPECT_EQ(warnings_emitted(), 2u);
  EXPECT_EQ(warnings_suppressed(), 3u);
  // The registry mirrors the totals so the telemetry plane sees the storm.
  EXPECT_EQ(Registry::global().counter_value("warn.emitted"), 2u);
  EXPECT_EQ(Registry::global().counter_value("warn.suppressed"), 3u);

  reset_warn_state();  // refills the bucket and zeroes the atomics
  EXPECT_EQ(warnings_emitted(), 0u);
  warn(WarnSeverity::kError, "test", "after reset");
  EXPECT_EQ(warnings_emitted(), 1u);
}

TEST_F(TelemetryTest, WarnCountsSurviveObsDisabled) {
  set_enabled(false);
  set_warn_rate(0.0, 1.0);
  reset_warn_state();
  warn(WarnSeverity::kWarn, "test", "first");
  warn(WarnSeverity::kWarn, "test", "second");
  // The local atomics are live even with the metrics registry gated off.
  EXPECT_EQ(warnings_emitted(), 1u);
  EXPECT_EQ(warnings_suppressed(), 1u);
  EXPECT_EQ(Registry::global().counter_value("warn.emitted"), 0u);
  set_enabled(true);
}

// --- ada-stats core: flatten / diff / summarize ------------------------------

TEST_F(TelemetryTest, FlattenNumbersWalksNestedShapes) {
  const auto parsed = json::parse(
      R"({"a": 1, "b": {"c": 2.5, "d": [3, 4]}, "e": true, "f": "skip", "g": null})");
  ASSERT_TRUE(parsed.is_ok());
  const auto flat = flatten_numbers(parsed.value());
  const std::map<std::string, double> expected = {
      {"a", 1.0}, {"b.c", 2.5}, {"b.d.0", 3.0}, {"b.d.1", 4.0}, {"e", 1.0}};
  EXPECT_EQ(flat, expected);
}

TEST_F(TelemetryTest, DiffMetricsHonorsBudgetAndDirection) {
  const std::map<std::string, double> baseline = {{"ratio", 10.0}, {"lat", 100.0}};
  DiffSpec spec;
  spec.budget = 0.05;
  spec.higher = {"ratio"};
  spec.lower = {"lat"};

  // Within budget both ways: no violations.
  auto report = diff_metrics(baseline, {{"ratio", 9.6}, {"lat", 104.0}}, spec);
  EXPECT_EQ(report.violations, 0u);

  // ratio fell 6% (budget 5%) and lat rose 6%: both keys regress.
  report = diff_metrics(baseline, {{"ratio", 9.4}, {"lat", 106.0}}, spec);
  EXPECT_EQ(report.violations, 2u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_TRUE(report.rows[0].violation);
  EXPECT_NEAR(report.rows[0].change, -0.06, 1e-9);
  EXPECT_TRUE(report.rows[1].violation);

  // An improvement never violates, however large.
  report = diff_metrics(baseline, {{"ratio", 20.0}, {"lat", 1.0}}, spec);
  EXPECT_EQ(report.violations, 0u);
}

TEST_F(TelemetryTest, DiffMetricsFailsOnMissingKeys) {
  DiffSpec spec;
  spec.higher = {"present", "vanished"};
  const auto report =
      diff_metrics({{"present", 1.0}, {"vanished", 5.0}}, {{"present", 1.0}}, spec);
  EXPECT_EQ(report.violations, 1u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_FALSE(report.rows[0].violation);
  EXPECT_TRUE(report.rows[1].missing);
  EXPECT_TRUE(report.rows[1].violation);
}

TEST_F(TelemetryTest, DiffMetricsZeroBaselineOnlyFailsWrongDirection) {
  DiffSpec spec;
  spec.higher = {"h"};
  spec.lower = {"l"};
  // Candidate improved or held from zero: fine.
  auto report = diff_metrics({{"h", 0.0}, {"l", 0.0}}, {{"h", 3.0}, {"l", 0.0}}, spec);
  EXPECT_EQ(report.violations, 0u);
  // Candidate moved the wrong way from zero: unambiguous regression.
  report = diff_metrics({{"h", 0.0}, {"l", 0.0}}, {{"h", -1.0}, {"l", 2.0}}, spec);
  EXPECT_EQ(report.violations, 2u);
}

TEST_F(TelemetryTest, SummarizeTelemetryComputesRatesPerClock) {
  const std::string jsonl =
      R"({"schema":1,"seq":0,"clock":"wall","t_ms":0,"counters":{"c":{"total":10,"delta":10}},"gauges":{},"histograms":{"h":{"count":2,"delta":2,"p50":1,"p90":1,"p99":1,"win_p50":1,"win_p90":1,"win_p99":1}}})"
      "\n"
      R"({"schema":1,"seq":1,"clock":"wall","t_ms":2000,"counters":{"c":{"total":30,"delta":20}},"gauges":{},"histograms":{"h":{"count":4,"delta":2,"p50":2,"p90":3,"p99":3,"win_p50":2,"win_p90":2,"win_p99":2}}})"
      "\n";
  const auto result = summarize_telemetry(jsonl);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  const auto& summaries = result.value();
  ASSERT_EQ(summaries.size(), 1u);
  const TelemetrySummary& wall = summaries[0];
  EXPECT_EQ(wall.clock, "wall");
  EXPECT_EQ(wall.samples, 2u);
  EXPECT_EQ(wall.last_t_ms, 2000.0);
  ASSERT_EQ(wall.counters.size(), 1u);
  EXPECT_EQ(wall.counters[0].total, 30u);
  EXPECT_EQ(wall.counters[0].delta_sum, 30u);  // reconciles with total
  EXPECT_NEAR(wall.counters[0].rate_per_s, 15.0, 1e-9);
  ASSERT_EQ(wall.histograms.size(), 1u);
  EXPECT_EQ(wall.histograms[0].count, 4u);
  EXPECT_EQ(wall.histograms[0].p50, 2.0);
}

TEST_F(TelemetryTest, SummarizeTelemetryRejectsBadSchema) {
  EXPECT_FALSE(summarize_telemetry(R"({"schema":2,"clock":"wall","t_ms":0})").is_ok());
  EXPECT_FALSE(summarize_telemetry("not json\n").is_ok());
  EXPECT_FALSE(
      summarize_telemetry(R"({"schema":1,"t_ms":0,"counters":{}})" "\n").is_ok());
}

}  // namespace
}  // namespace ada::obs

// --- e2e differential: telemetry/profiler on vs off --------------------------

namespace ada::core {
namespace {

namespace fs = std::filesystem;

class TelemetryE2eTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = test::unique_temp_dir("ada_telemetry_e2e");
    fs::remove_all(root_);
    fs::create_directories(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    formats::XtcWriter writer;
    for (std::uint32_t f = 0; f < 4; ++f) {
      ASSERT_TRUE(writer
                      .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                                 gen.next_frame())
                      .is_ok());
    }
    xtc_ = writer.take();
    obs::reset_all();
    obs::set_enabled(false);
  }

  void TearDown() override {
    obs::stop_telemetry();
    obs::stop_profiler();
    obs::set_enabled(false);
    obs::reset_all();
    fs::remove_all(root_);
  }

  // One complete ingest -> query pass in a fresh deployment under `subdir`.
  std::map<Tag, std::vector<std::uint8_t>> run_pipeline(const std::string& subdir) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    const std::string base = root_ + "/" + subdir;
    Ada ada(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(),
        config);
    EXPECT_TRUE(ada.ingest(system_, xtc_, "gpcr.xtc").is_ok());
    std::map<Tag, std::vector<std::uint8_t>> subsets;
    for (const Tag& tag : {kProteinTag, kMiscTag}) {
      auto subset = ada.query("gpcr.xtc", tag);
      EXPECT_TRUE(subset.is_ok());
      if (subset.is_ok()) subsets[tag] = std::move(subset).value();
    }
    return subsets;
  }

  std::string root_;
  chem::System system_;
  std::vector<std::uint8_t> xtc_;
};

TEST_F(TelemetryE2eTest, TelemetryOnAndOffProduceByteIdenticalSubsets) {
  // Pass 1: everything off -- the uninstrumented reference bytes.
  const auto subsets_off = run_pipeline("off");

  // Pass 2: metrics, the telemetry sampler and the profiler all armed.
  obs::reset_all();
  obs::set_enabled(true);
  const std::string ts_path = root_ + "/ts.jsonl";
  ASSERT_TRUE(obs::start_telemetry(ts_path + ",20").is_ok());
  ASSERT_TRUE(obs::start_profiler(root_ + "/profile.folded,500").is_ok());
  const auto subsets_on = run_pipeline("on");
  obs::stop_profiler();
  obs::stop_telemetry();

  // (a) Observation never perturbs the data path.
  ASSERT_EQ(subsets_off.size(), subsets_on.size());
  for (const auto& [tag, bytes] : subsets_off) {
    ASSERT_TRUE(subsets_on.count(tag)) << "tag " << tag << " missing from telemetry run";
    EXPECT_EQ(bytes, subsets_on.at(tag)) << "subset bytes diverged for tag " << tag;
  }

  // (b) The JSONL time series reconciles with the final cumulative dump
  // (what `--metrics=json` prints): per counter, summed wall deltas ==
  // final total == the registry's value.
  const auto summarized = obs::summarize_telemetry([&] {
    std::ifstream in(ts_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }());
  ASSERT_TRUE(summarized.is_ok()) << summarized.error().to_string();
  const obs::Snapshot final_dump = obs::capture();
  EXPECT_FALSE(final_dump.counters.empty());
  bool found_wall = false;
  for (const auto& summary : summarized.value()) {
    if (summary.clock != "wall") continue;
    found_wall = true;
    ASSERT_GE(summary.samples, 1u);  // the stop-flush line at minimum
    for (const auto& row : summary.counters) {
      EXPECT_EQ(row.delta_sum, row.total)
          << "summed deltas diverge from the final total for " << row.name;
      const auto it = final_dump.counters.find(row.name);
      ASSERT_NE(it, final_dump.counters.end()) << row.name;
      EXPECT_EQ(row.total, it->second) << row.name;
    }
  }
  EXPECT_TRUE(found_wall);
}

}  // namespace
}  // namespace ada::core
