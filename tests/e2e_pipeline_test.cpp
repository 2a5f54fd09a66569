// End-to-end differential harness for the observability layer.
//
// Runs the full GPCR pipeline (generate -> ingest -> query) twice -- once
// with metrics collection off, once with it on -- and proves the data path
// is byte-identical either way: instrumentation may observe the pipeline
// but never perturb it.  The metrics-on run is then reconciled against
// ground truth: every byte the dispatcher accounted for is a byte the PLFS
// containers actually hold, and the frame counters match the generator.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ada/middleware.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kFrames = 5;

class E2ePipelineTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/ada_e2e_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    formats::XtcWriter writer;
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      ADA_CHECK(writer
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
    }
    xtc_ = writer.take();
    obs::reset_all();
    obs::set_enabled(false);
  }

  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_all();
    obs::set_trace_enabled(false);
    obs::reset_events();
    fs::remove_all(root_);
  }

  Ada make_ada(const std::string& subdir, unsigned threads = 1) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.threads = threads;
    const std::string base = root_ + "/" + subdir;
    return Ada(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(),
        config);
  }

  // One complete pipeline pass: ingest the prepared trajectory into a fresh
  // deployment under `subdir`, then query every data tag back.
  std::map<Tag, std::vector<std::uint8_t>> run_pipeline(const std::string& subdir,
                                                        IngestReport* report_out = nullptr,
                                                        unsigned threads = 1) {
    Ada ada = make_ada(subdir, threads);
    const auto report = ada.ingest(system_, xtc_, "gpcr.xtc");
    ADA_CHECK(report.is_ok());
    if (report_out != nullptr) *report_out = report.value();
    std::map<Tag, std::vector<std::uint8_t>> subsets;
    for (const Tag& tag : {kProteinTag, kMiscTag}) {
      auto subset = ada.query("gpcr.xtc", tag);
      ADA_CHECK(subset.is_ok());
      subsets[tag] = std::move(subset).value();
    }
    return subsets;
  }

  std::string root_;
  chem::System system_;
  std::vector<std::uint8_t> xtc_;
};

TEST_F(E2ePipelineTest, MetricsOnAndOffProduceByteIdenticalSubsets) {
  // Pass 1: metrics hard off.
  obs::set_enabled(false);
  IngestReport report_off;
  const auto subsets_off = run_pipeline("off", &report_off);
  // Nothing may have been recorded.
  const obs::Snapshot off_snapshot = obs::capture();
  for (const auto& [name, value] : off_snapshot.counters) {
    EXPECT_EQ(value, 0u) << "metrics-off run recorded counter " << name;
  }
  for (const auto& span : off_snapshot.spans) {
    EXPECT_EQ(span.calls, 0u) << "metrics-off run recorded span " << span.path;
  }

  // Pass 2: metrics on, identical input, fresh deployment.
  obs::reset_all();
  obs::set_enabled(true);
  IngestReport report_on;
  const auto subsets_on = run_pipeline("on", &report_on);
  obs::set_enabled(false);

  // The observer must not perturb the observed: identical bytes both ways.
  ASSERT_EQ(subsets_off.size(), subsets_on.size());
  for (const auto& [tag, bytes_off] : subsets_off) {
    ASSERT_TRUE(subsets_on.count(tag)) << tag;
    EXPECT_EQ(bytes_off, subsets_on.at(tag)) << "tag " << tag << " differs with metrics on";
  }
  // And identical reports.
  EXPECT_EQ(report_off.preprocess.frames, report_on.preprocess.frames);
  EXPECT_EQ(report_off.preprocess.subset_bytes, report_on.preprocess.subset_bytes);
  EXPECT_EQ(report_off.backend_of_tag, report_on.backend_of_tag);
}

TEST_F(E2ePipelineTest, CountersReconcileWithContainerGroundTruth) {
  obs::reset_all();
  obs::set_enabled(true);
  Ada ada = make_ada("recon");
  const auto report = ada.ingest(system_, xtc_, "gpcr.xtc").value();

  const obs::Registry& registry = obs::Registry::global();

  // Frames counted == frames generated (== frames reported).
  EXPECT_EQ(registry.counter_value("ingest.frames"), kFrames);
  EXPECT_EQ(report.preprocess.frames, kFrames);

  // Every dispatched byte is accounted per tag, and the per-tag counters
  // sum to the total.
  std::uint64_t per_tag_sum = 0;
  for (const Tag& tag : {kProteinTag, kMiscTag, kLabelFileTag}) {
    per_tag_sum += registry.counter_value("ingest.dispatched_bytes." + tag);
  }
  const std::uint64_t dispatched = registry.counter_value("ingest.dispatched_bytes");
  EXPECT_EQ(per_tag_sum, dispatched);

  // Dispatched bytes == bytes the PLFS layer appended == bytes the
  // containers hold on disk (per tag and in total).
  EXPECT_EQ(dispatched, registry.counter_value("plfs.append.bytes"));
  std::uint64_t on_disk = 0;
  for (const Tag& tag : {kProteinTag, kMiscTag, kLabelFileTag}) {
    const std::uint64_t label_bytes = ada.subset_bytes("gpcr.xtc", tag).value();
    EXPECT_EQ(registry.counter_value("ingest.dispatched_bytes." + tag), label_bytes) << tag;
    on_disk += label_bytes;
  }
  EXPECT_EQ(dispatched, on_disk);

  // The data tags reconcile with the preprocessor's report too.
  for (const auto& [tag, bytes] : report.preprocess.subset_bytes) {
    EXPECT_EQ(registry.counter_value("ingest.dispatched_bytes." + tag), bytes) << tag;
  }

  // The read path accounts what it returns.
  const auto protein = ada.query("gpcr.xtc", kProteinTag).value();
  EXPECT_EQ(registry.counter_value("query.bytes_out"), protein.size());
  EXPECT_EQ(registry.counter_value("query.bytes_out." + kProteinTag), protein.size());
  obs::set_enabled(false);
}

TEST_F(E2ePipelineTest, StageSpansAndJsonCoverThePipeline) {
  obs::reset_all();
  obs::set_enabled(true);
  run_pipeline("spans");
  // A range query assembles its frames out of the fetched extents: a copy.
  ASSERT_TRUE(make_ada("spans").query("gpcr.xtc", kProteinTag, FrameRange{0, 2, 1}).is_ok());
  const obs::Snapshot snapshot = obs::capture();
  obs::set_enabled(false);

  // The span tree contains each pipeline stage, correctly nested.
  auto span_calls = [&](const std::string& path) -> std::uint64_t {
    for (const auto& span : snapshot.spans) {
      if (span.path == path) return span.calls;
    }
    return 0;
  };
  EXPECT_EQ(span_calls("categorize"), 1u);  // runs before ingest: its own root
  EXPECT_EQ(span_calls("ingest"), 1u);
  EXPECT_EQ(span_calls("ingest/preprocess"), 1u);
  EXPECT_EQ(span_calls("ingest/preprocess/decode"), kFrames);  // ranges decode scanned frames only
  EXPECT_EQ(span_calls("ingest/preprocess/split"), kFrames);
  EXPECT_GE(span_calls("ingest/dispatch"), 1u);
  EXPECT_EQ(span_calls("query"), 2u);
  EXPECT_EQ(span_calls("query/retrieve"), 2u);

  // The ledger layers under the ingest's one PLFS publication and under an
  // extent read: each extent (p, m, the label file) is checksummed and
  // written as its own dropping, then the index is written once; every
  // extent read is one pread and one CRC.
  EXPECT_EQ(span_calls("ingest/dispatch/plfs_append"), 1u);
  EXPECT_EQ(span_calls("ingest/dispatch/plfs_append/index_write"), 1u);
  for (const char* layer : {"crc", "dropping_write"}) {
    EXPECT_EQ(span_calls(std::string("ingest/dispatch/plfs_append/") + layer), 3u) << layer;
  }
  EXPECT_EQ(span_calls("query_range/copy"), 1u);
  const std::uint64_t reads = span_calls("query/retrieve/plfs_read/read");
  EXPECT_GE(reads, 2u);
  EXPECT_EQ(span_calls("query/retrieve/plfs_read/crc"), reads);
  // Children nest inside their parent on one thread and one clock, so no
  // node's children add up to more than the node itself.
  for (const auto& parent : snapshot.spans) {
    std::uint64_t children_ns = 0;
    for (const auto& child : snapshot.spans) {
      if (child.depth == parent.depth + 1 && child.path.rfind(parent.path + "/", 0) == 0) {
        children_ns += child.total_ns;
      }
    }
    EXPECT_LE(children_ns, parent.total_ns) << parent.path;
  }

  // The JSON document carries the acceptance-criteria names verbatim.
  const std::string json = obs::to_json(snapshot);
  for (const char* needle :
       {"\"version\":1", "\"ingest.frames\":", "\"ingest.bytes_in\":",
        "\"ingest.dispatched_bytes.p\":", "\"codec.decode.atoms\":",
        "\"path\":\"ingest/preprocess/decode\"", "\"path\":\"ingest/dispatch\"",
        "\"path\":\"query/retrieve\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "JSON missing " << needle;
  }
}

TEST_F(E2ePipelineTest, TreeAndTimelineRecordTheSameSpans) {
  // One span feeds both sinks: with both switches on, every span name in
  // the merged tree is a lane-0 begin name on the timeline, with the same
  // call count (summed over paths: pool-worker spans root their own tree).
  obs::reset_all();
  obs::reset_events();
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  run_pipeline("both_sinks", nullptr, /*threads=*/2);
  obs::set_trace_enabled(false);
  obs::set_enabled(false);

  std::map<std::string, std::uint64_t> tree_calls;
  for (const obs::SpanStat& span : obs::span_stats()) {
    if (span.calls != 0) tree_calls[span.name] += span.calls;
  }
  std::map<std::string, std::uint64_t> timeline_begins;
  for (const obs::RawEvent& event : obs::snapshot_events()) {
    if (event.lane == 0 && event.phase == obs::RawEvent::Phase::kBegin) {
      ++timeline_begins[event.name];
    }
  }
  EXPECT_EQ(obs::events_dropped(), 0u);
  EXPECT_FALSE(tree_calls.empty());
  EXPECT_EQ(tree_calls, timeline_begins);
}

TEST_F(E2ePipelineTest, ParallelIngestMatchesSerialAcrossThreadCounts) {
  // Whole-pipeline differential over the thread budget: the frame-parallel
  // decode must leave every queried subset -- and the ingest report -- byte-
  // identical to the serial deployment, including with the full observability
  // stack (metrics + tracing) watching the parallel path.
  obs::set_enabled(false);
  IngestReport serial_report;
  const auto serial = run_pipeline("threads1", &serial_report, /*threads=*/1);

  for (const unsigned threads : {2u, 8u}) {
    IngestReport report;
    const auto subsets =
        run_pipeline("threads" + std::to_string(threads), &report, threads);
    ASSERT_EQ(serial.size(), subsets.size());
    for (const auto& [tag, bytes] : serial) {
      ASSERT_TRUE(subsets.count(tag)) << tag;
      EXPECT_EQ(bytes, subsets.at(tag)) << "tag " << tag << " @ " << threads << " threads";
    }
    EXPECT_EQ(serial_report.preprocess.frames, report.preprocess.frames);
    EXPECT_EQ(serial_report.preprocess.subset_bytes, report.preprocess.subset_bytes);
    EXPECT_EQ(serial_report.preprocess.subset_atoms, report.preprocess.subset_atoms);
    EXPECT_EQ(serial_report.backend_of_tag, report.backend_of_tag);
  }

  // Once more with the observers on: instrumentation may watch the parallel
  // pipeline but never perturb it.
  obs::reset_all();
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  IngestReport observed_report;
  const auto observed = run_pipeline("threads2_observed", &observed_report, /*threads=*/2);
  obs::set_trace_enabled(false);
  obs::set_enabled(false);
  ASSERT_EQ(serial.size(), observed.size());
  for (const auto& [tag, bytes] : serial) {
    EXPECT_EQ(bytes, observed.at(tag)) << "tag " << tag << " differs with observers on";
  }
  EXPECT_EQ(serial_report.preprocess.subset_bytes, observed_report.preprocess.subset_bytes);
  obs::reset_events();
}

TEST_F(E2ePipelineTest, TracingOnAndOffProduceByteIdenticalSubsets) {
  // Pass 1: tracing hard off -- the recorder must stay empty.
  obs::set_trace_enabled(false);
  obs::reset_events();
  IngestReport report_off;
  const auto subsets_off = run_pipeline("trace_off", &report_off);
  EXPECT_TRUE(obs::snapshot_events().empty()) << "tracing-off run recorded events";

  // Pass 2: tracing on, identical input, fresh deployment.
  obs::set_trace_enabled(true);
  IngestReport report_on;
  const auto subsets_on = run_pipeline("trace_on", &report_on);
  obs::set_trace_enabled(false);

  // The observer must not perturb the observed: identical bytes both ways.
  ASSERT_EQ(subsets_off.size(), subsets_on.size());
  for (const auto& [tag, bytes_off] : subsets_off) {
    ASSERT_TRUE(subsets_on.count(tag)) << tag;
    EXPECT_EQ(bytes_off, subsets_on.at(tag)) << "tag " << tag << " differs with tracing on";
  }
  EXPECT_EQ(report_off.preprocess.frames, report_on.preprocess.frames);
  EXPECT_EQ(report_off.preprocess.subset_bytes, report_on.preprocess.subset_bytes);
  EXPECT_EQ(report_off.backend_of_tag, report_on.backend_of_tag);

  // The traced run produced a coherent timeline: per trace id, begin and
  // end events pair exactly (same span ids, equal counts).
  const auto events = obs::snapshot_events();
  ASSERT_FALSE(events.empty());
  std::map<std::uint64_t, std::multiset<std::uint64_t>> begins_by_trace;
  std::map<std::uint64_t, std::multiset<std::uint64_t>> ends_by_trace;
  for (const obs::RawEvent& event : events) {
    if (event.phase == obs::RawEvent::Phase::kBegin) {
      begins_by_trace[event.trace_id].insert(event.span_id);
    } else if (event.phase == obs::RawEvent::Phase::kEnd) {
      ends_by_trace[event.trace_id].insert(event.span_id);
    }
  }
  ASSERT_FALSE(begins_by_trace.empty());
  EXPECT_EQ(begins_by_trace, ends_by_trace) << "begin/end events unbalanced per trace id";

  // Ingest and the two queries are separate requests: >= 3 distinct traces,
  // and the pipeline stages all show up.
  EXPECT_GE(begins_by_trace.size(), 3u);
  std::set<std::string> names;
  for (const obs::RawEvent& event : events) names.insert(event.name);
  for (const char* stage :
       {"ingest", "preprocess", "decode", "split", "dispatch", "plfs_append", "query",
        "retrieve", "plfs_read"}) {
    EXPECT_TRUE(names.count(stage)) << "missing stage " << stage;
  }

  // The export is valid Chrome JSON and parses back to the same event count
  // (metadata rows aside).
  const std::string json = obs::capture_chrome_json();
  const auto parsed = obs::parse_chrome_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().size(), events.size());
}

}  // namespace
}  // namespace ada::core
