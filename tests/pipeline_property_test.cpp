// Property tests over the scenario pipelines: invariants that must hold for
// any workload size on any platform, independent of calibration constants.
// The tail section covers the functional ingest pipeline: IngestStream's
// chunk-flush bookkeeping for arbitrary (chunk_frames, frames) pairs.
#include <gtest/gtest.h>

#include <filesystem>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "platform/pipeline.hpp"
#include "platform/platform.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::platform {
namespace {

const FrameProfile& profile() { return FrameProfile::paper_gpcr(); }

std::vector<Platform> all_platforms() {
  return {Platform::ssd_server(), Platform::small_cluster(), Platform::fat_node()};
}

const Scenario kScenarios[] = {Scenario::kCompressedFs, Scenario::kRawFs, Scenario::kAdaAll,
                               Scenario::kAdaProtein};

TEST(PipelinePropertyTest, TurnaroundDecomposesIntoPhases) {
  for (const auto& platform : all_platforms()) {
    for (const Scenario scenario : kScenarios) {
      const auto r =
          run_scenario(platform, scenario, WorkloadSizes::from_profile(profile(), 2000));
      EXPECT_NEAR(r.retrieval_s + r.preprocess_s + r.render_s, r.turnaround_s, 1e-9)
          << platform.name << " " << r.label;
    }
  }
}

TEST(PipelinePropertyTest, MonotoneInFrames) {
  // More frames never finish faster, use less memory, or burn less energy.
  Rng rng(31);
  for (const auto& platform : all_platforms()) {
    for (const Scenario scenario : kScenarios) {
      double prev_turnaround = 0;
      double prev_energy = 0;
      for (const std::uint64_t frames : {500u, 2000u, 5000u, 20000u}) {
        const auto r =
            run_scenario(platform, scenario, WorkloadSizes::from_profile(profile(), frames));
        if (r.oom) break;  // kill points truncate the series
        EXPECT_GE(r.turnaround_s, prev_turnaround) << platform.name << " " << r.label;
        EXPECT_GE(r.energy_joules, prev_energy) << platform.name << " " << r.label;
        prev_turnaround = r.turnaround_s;
        prev_energy = r.energy_joules;
      }
    }
  }
}

TEST(PipelinePropertyTest, AdaProteinNeverLosesOnTurnaround) {
  // The protein subset is a strict subset of what every other scenario moves
  // and renders; with identical CPU rates it can never be slower.
  for (const auto& platform : all_platforms()) {
    for (const std::uint64_t frames : {626u, 5006u, 100000u}) {
      const auto sizes = WorkloadSizes::from_profile(profile(), frames);
      const auto protein = run_scenario(platform, Scenario::kAdaProtein, sizes);
      if (protein.oom) continue;
      for (const Scenario other :
           {Scenario::kCompressedFs, Scenario::kRawFs, Scenario::kAdaAll}) {
        const auto r = run_scenario(platform, other, sizes);
        if (r.oom) continue;
        EXPECT_LE(protein.turnaround_s, r.turnaround_s * 1.001)
            << platform.name << " " << r.label << " @ " << frames;
      }
    }
  }
}

TEST(PipelinePropertyTest, AdaProteinUsesLeastMemory) {
  for (const auto& platform : all_platforms()) {
    const auto sizes = WorkloadSizes::from_profile(profile(), 5006);
    const auto results = run_all_scenarios(platform, sizes);
    const double protein_peak = results[3].memory_peak_bytes;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_LT(protein_peak, results[i].memory_peak_bytes) << results[i].label;
    }
  }
}

TEST(PipelinePropertyTest, OomImpliesTruncation) {
  // A killed run must be no longer than the same scenario one step below its
  // kill point, and must end without a render phase completing fully.
  const auto platform = Platform::fat_node();
  const auto killed =
      run_scenario(platform, Scenario::kRawFs, WorkloadSizes::from_profile(profile(), 1'876'800));
  ASSERT_TRUE(killed.oom);
  // The raw retrieval itself overruns memory: no CPU phases after it.
  EXPECT_EQ(killed.phases.back().name, "retrieve");
}

TEST(PipelinePropertyTest, EnergyConsistentWithPower) {
  // Energy / turnaround must sit between baseline and max power per node.
  for (const auto& platform : all_platforms()) {
    const auto sizes = WorkloadSizes::from_profile(profile(), 3000);
    for (const auto& r : run_all_scenarios(platform, sizes)) {
      const double max_power =
          platform.power.baseline_w + platform.power.cpu_active_w + platform.power.disk_active_w;
      const double avg = r.energy_joules / r.turnaround_s / platform.metered_nodes;
      EXPECT_GE(avg, platform.power.baseline_w * 0.999) << platform.name << " " << r.label;
      EXPECT_LE(avg, max_power * 1.001) << platform.name << " " << r.label;
    }
  }
}

TEST(PipelinePropertyTest, CompressedAlwaysRetrievesFastestLocally) {
  // On local file systems the compressed file is ~1/3 of raw: its retrieval
  // must win regardless of scale.
  for (const auto& platform : {Platform::ssd_server(), Platform::fat_node()}) {
    for (const std::uint64_t frames : {626u, 5006u, 62560u}) {
      const auto sizes = WorkloadSizes::from_profile(profile(), frames);
      const auto c = run_scenario(platform, Scenario::kCompressedFs, sizes);
      const auto d = run_scenario(platform, Scenario::kRawFs, sizes);
      if (c.oom || d.oom) continue;
      EXPECT_LT(c.retrieval_s, d.retrieval_s) << platform.name << " @ " << frames;
    }
  }
}

TEST(PipelinePropertyTest, ThrashNeverShrinksTime) {
  // Identical scenario with thrash disabled must be at least as fast.
  Platform with = Platform::fat_node();
  Platform without = Platform::fat_node();
  without.thrash_k = 0.0;
  without.thrash_max_factor = 1.0;
  const auto sizes = WorkloadSizes::from_profile(profile(), 1'564'000);
  for (const Scenario scenario : kScenarios) {
    const auto a = run_scenario(with, scenario, sizes);
    const auto b = run_scenario(without, scenario, sizes);
    EXPECT_GE(a.turnaround_s, b.turnaround_s * 0.999) << a.label;
  }
}

TEST(PipelinePropertyTest, StripeOverrideNeverHelpsBeyondFull) {
  // Using fewer stripe servers can only slow cluster retrieval.
  const auto platform = Platform::small_cluster();
  const auto sizes = WorkloadSizes::from_profile(profile(), 6256);
  PipelineOptions narrow;
  narrow.stripe_servers_override = 1;
  const auto wide = run_scenario(platform, Scenario::kRawFs, sizes);
  const auto one = run_scenario(platform, Scenario::kRawFs, sizes, narrow);
  EXPECT_GE(one.retrieval_s, wide.retrieval_s);
}

}  // namespace
}  // namespace ada::platform

// --- streaming ingest chunking --------------------------------------------------------

namespace ada::core {
namespace {

// For any chunk size, the number of flushed chunks must bracket the frame
// count: every chunk but the last is full, the last holds at least one
// frame.  Checked both on the StreamReport and on the obs counters the
// flush path maintains (stream.frames / stream.chunks).
TEST(StreamChunkPropertyTest, FlushCountersBracketFrameCount) {
  namespace fs = std::filesystem;
  const std::string root = test::unique_temp_dir("ada_stream_prop");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const auto labels = categorize_protein_misc(system);

  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  Ada ada(plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}}).value(),
          config);

  obs::Registry& registry = obs::Registry::global();
  obs::set_enabled(true);
  Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    const auto chunk_frames = static_cast<std::uint32_t>(1 + rng.uniform_index(9));
    const auto frames = static_cast<std::uint32_t>(1 + rng.uniform_index(25));
    const std::string name = "trial" + std::to_string(trial) + ".xtc";

    const std::uint64_t frames_before = registry.counter_value("stream.frames");
    const std::uint64_t chunks_before = registry.counter_value("stream.chunks");

    auto stream = ada.begin_stream(labels, name, chunk_frames).value();
    workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
    for (std::uint32_t f = 0; f < frames; ++f) {
      ASSERT_TRUE(stream
                      .add_frame(gen.current_step(), gen.current_time_ps(), system.box(),
                                 gen.next_frame())
                      .is_ok());
    }
    const auto report = stream.finish().value();

    ASSERT_EQ(report.frames, frames) << "chunk_frames=" << chunk_frames;
    const std::uint64_t chunks = report.chunks;
    EXPECT_GE(chunks * chunk_frames, frames) << "chunk_frames=" << chunk_frames;
    EXPECT_GT(frames, (chunks - 1) * chunk_frames) << "chunk_frames=" << chunk_frames;

    // The instrumentation saw exactly what the report claims.
    EXPECT_EQ(registry.counter_value("stream.frames") - frames_before, frames);
    EXPECT_EQ(registry.counter_value("stream.chunks") - chunks_before, chunks);
  }
  obs::set_enabled(false);
  fs::remove_all(root);
}

}  // namespace
}  // namespace ada::core
