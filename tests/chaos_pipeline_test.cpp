// Chaos suite: seeded fault schedules over whole ingest -> query round trips.
//
// For each seed, a fault plan is derived deterministically (sites, schedule
// shapes, and parameters all come from Rng(seed)), armed, and a full
// ingest -> query -> degraded-query -> fsck cycle runs against a fresh pair
// of backends.  The invariant under EVERY plan:
//
//   each operation either (a) succeeds with byte-identical output to the
//   faultless ground truth, (b) fails with a typed error, or (c) returns a
//   correctly *flagged* partial result -- it NEVER silently serves corrupt
//   or truncated bytes.
//
// A failing seed prints via SCOPED_TRACE so `ADA_CHAOS_SEEDS=1 ctest -L
// chaos` plus the seed reproduces the exact schedule.  ADA_CHAOS_SEEDS sets
// the sweep width (default 8; tools/run_tier1.sh uses a fast budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "formats/raw_traj.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "formats/xtc_file.hpp"
#include "plfs/fsck.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

int seed_budget() {
  if (const char* env = std::getenv("ADA_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

std::vector<std::uint8_t> make_xtc(const chem::System& system, std::uint32_t frames) {
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer;
  for (std::uint32_t f = 0; f < frames; ++f) {
    ADA_CHECK(writer
                  .add_frame(gen.current_step(), gen.current_time_ps(), system.box(),
                             gen.next_frame())
                  .is_ok());
  }
  return writer.take();
}

/// One deterministic fault plan: which sites get which schedules.
struct FaultPlan {
  std::vector<std::pair<std::string, fault::Schedule>> arms;

  std::string to_string() const {
    std::string out;
    for (const auto& [site, schedule] : arms) {
      if (!out.empty()) out += ", ";
      out += site + "<-";
      switch (schedule.effect) {
        case fault::Outcome::Kind::kError: out += "error"; break;
        case fault::Outcome::Kind::kTorn: out += "torn"; break;
        case fault::Outcome::Kind::kCorrupt: out += "corrupt"; break;
        case fault::Outcome::Kind::kDelay: out += "delay"; break;
        case fault::Outcome::Kind::kNone: out += "none"; break;
      }
    }
    return out.empty() ? "(no faults)" : out;
  }
};

/// Everything about the plan is a pure function of the seed.
FaultPlan plan_for_seed(std::uint64_t seed) {
  Rng rng(seed);
  static const char* kSites[] = {
      "plfs.write_dropping", "plfs.read_dropping", "plfs.write_index",
      "plfs.read_index",
  };
  FaultPlan plan;
  const std::uint64_t site_count = 1 + rng.uniform_index(2);  // 1..2 armed sites
  for (std::uint64_t i = 0; i < site_count; ++i) {
    const char* site = kSites[rng.uniform_index(4)];
    fault::Schedule schedule;
    switch (rng.uniform_index(4)) {
      case 0: schedule = fault::Schedule::fail_nth(1 + rng.uniform_index(6)); break;
      case 1:
        schedule = fault::Schedule::fail_probability(0.15 + 0.25 * rng.uniform(), seed ^ i);
        break;
      case 2: {
        const std::uint64_t begin = 1 + rng.uniform_index(4);
        schedule = fault::Schedule::down_window(begin, begin + rng.uniform_index(8));
        break;
      }
      default:
        // Silent-corruption faults only make sense where bytes move.
        if (std::string_view(site) == "plfs.write_dropping") {
          schedule = fault::Schedule::torn_write(0.25 + 0.5 * rng.uniform(),
                                                 1 + rng.uniform_index(4));
        } else if (std::string_view(site) == "plfs.read_dropping") {
          schedule = fault::Schedule::corrupt_read(1 + rng.uniform_index(4), rng.uniform());
        } else {
          schedule = fault::Schedule::fail_nth(1 + rng.uniform_index(4));
        }
        break;
    }
    plan.arms.emplace_back(site, schedule);
  }
  return plan;
}

class ChaosPipelineTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::global().disarm_all();
    root_ = testing::TempDir() + "/ada_chaos_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    xtc_ = make_xtc(system_, 3);
  }
  void TearDown() override {
    fault::Injector::global().disarm_all();
    fs::remove_all(root_);
  }

  /// A fresh middleware over its own backend pair (one per run).
  std::unique_ptr<Ada> open_ada(const std::string& run) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    // The chaos tier runs with the query cache armed: a fault-injected read
    // must never populate it (fills happen only after CRC verification), and
    // fsck repairs must invalidate it -- a stale or corrupt cached subset
    // would show up as a differential failure below.
    config.cache_bytes = 64u << 20;
    RetryPolicy fast;  // keep injected-retry wall time negligible
    fast.max_attempts = 3;
    fast.initial_backoff_s = 1e-4;
    auto ada = std::make_unique<Ada>(
        plfs::PlfsMount::open(
            {{"ssd", root_ + "/" + run + "/ssd"}, {"hdd", root_ + "/" + run + "/hdd"}})
            .value(),
        config);
    ada->mount().set_retry_policy(fast);
    return ada;
  }

  std::string root_;
  chem::System system_;
  std::vector<std::uint8_t> xtc_;
};

TEST_F(ChaosPipelineTest, SeededFaultSweepNeverCorruptsSilently) {
  // Faultless ground truth, computed once.
  auto truth_ada = open_ada("truth");
  ASSERT_TRUE(truth_ada->ingest(system_, xtc_, "bar.xtc").is_ok());
  const auto truth_tags = truth_ada->tags("bar.xtc").value();
  ASSERT_FALSE(truth_tags.empty());
  std::map<Tag, std::vector<std::uint8_t>> truth;
  for (const Tag& tag : truth_tags) truth[tag] = truth_ada->query("bar.xtc", tag).value();

  const int seeds = seed_budget();
  for (int seed = 1; seed <= seeds; ++seed) {
    const FaultPlan plan = plan_for_seed(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("chaos seed " + std::to_string(seed) + ": " + plan.to_string() +
                 "  (reproduce: ADA_CHAOS_SEEDS=" + std::to_string(seed) + ")");
    auto ada = open_ada("seed" + std::to_string(seed));

    for (const auto& [site, schedule] : plan.arms) {
      fault::Injector::global().arm(site, schedule);
    }

    // --- ingest: clean success or typed error, never a hang or crash -----
    const auto ingest = ada->ingest(system_, xtc_, "bar.xtc");
    // (ingest.error() is typed by construction; nothing to assert beyond
    // reaching here without a check failure.)

    // --- per-tag queries under fault (twice: the second may be a cache
    // hit, and a hit is only legal if the first read verified clean) -------
    for (const auto& [tag, expected] : truth) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const auto subset = ada->query("bar.xtc", tag);
        if (subset.is_ok()) {
          EXPECT_EQ(subset.value(), expected)
              << "tag " << tag << " served DIFFERENT bytes under fault (attempt " << attempt
              << ")";
        }
        // else: typed error -- acceptable under an armed schedule.
      }
    }

    // --- degraded query: survivors must be byte-identical, losses flagged
    if (ada->has_dataset("bar.xtc")) {
      const auto partial = ada->query_degraded("bar.xtc");
      if (partial.is_ok()) {
        for (const auto& [tag, bytes] : partial.value().subsets) {
          ASSERT_TRUE(truth.count(tag)) << "degraded query invented tag " << tag;
          EXPECT_EQ(bytes, truth.at(tag))
              << "degraded survivor " << tag << " served DIFFERENT bytes";
        }
        if (ingest.is_ok()) {
          // A failed ingest may legitimately have indexed fewer tags; after
          // a *successful* one, every ground-truth tag must be served or
          // explicitly failed -- never silently missing.
          const std::size_t accounted =
              partial.value().subsets.size() + partial.value().failed.size();
          EXPECT_EQ(accounted, truth.size());
        }
      }
    }

    // --- disarm, then fsck: repair converges and survivors stay intact ---
    fault::Injector::global().disarm_all();
    if (ada->has_dataset("bar.xtc")) {
      const auto repair = plfs::repair_container(ada->mount(), "bar.xtc");
      ASSERT_TRUE(repair.is_ok()) << repair.error().to_string();
      const auto report = plfs::verify_container(ada->mount(), "bar.xtc").value();
      EXPECT_TRUE(report.broken_records.empty()) << "repair left broken records";
      EXPECT_TRUE(report.checksum_bad_records.empty()) << "repair left corrupt extents";
      // Post-repair reads of surviving tags are byte-identical to truth.
      for (const auto& [tag, expected] : truth) {
        const auto subset = ada->query("bar.xtc", tag);
        if (subset.is_ok()) {
          EXPECT_EQ(subset.value(), expected);
        }
      }
    }
    (void)ingest;
  }
}

/// Fault plan for the streaming path: same schedule shapes as
/// plan_for_seed, on its own seed stream.  A failed "plfs.write_index" is
/// the flush whose one publication never lands: its droppings stay
/// unreferenced and the watermark stays put (docs/streaming.md).
FaultPlan stream_plan_for_seed(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  static const char* kSites[] = {
      "plfs.write_dropping", "plfs.read_dropping", "plfs.write_index",
      "plfs.read_index",
  };
  FaultPlan plan;
  const std::uint64_t site_count = 1 + rng.uniform_index(2);
  for (std::uint64_t i = 0; i < site_count; ++i) {
    const char* site = kSites[rng.uniform_index(4)];
    fault::Schedule schedule;
    switch (rng.uniform_index(4)) {
      case 0: schedule = fault::Schedule::fail_nth(1 + rng.uniform_index(6)); break;
      case 1:
        schedule = fault::Schedule::fail_probability(0.15 + 0.25 * rng.uniform(), seed ^ i);
        break;
      case 2: {
        const std::uint64_t begin = 1 + rng.uniform_index(4);
        schedule = fault::Schedule::down_window(begin, begin + rng.uniform_index(8));
        break;
      }
      default:
        if (std::string_view(site) == "plfs.write_dropping") {
          schedule = fault::Schedule::torn_write(0.25 + 0.5 * rng.uniform(),
                                                 1 + rng.uniform_index(4));
        } else if (std::string_view(site) == "plfs.read_dropping") {
          schedule = fault::Schedule::corrupt_read(1 + rng.uniform_index(4), rng.uniform());
        } else {
          schedule = fault::Schedule::fail_nth(1 + rng.uniform_index(4));
        }
        break;
    }
    plan.arms.emplace_back(site, schedule);
  }
  return plan;
}

// The streaming analogue of the sweep above: a producer streams chunk by
// chunk under an armed fault plan and is abandoned at the first error (a
// dying MD process).  The invariant: no matter where the plan killed the
// stream, any successful read -- under fault or after repair -- serves an
// exact byte-prefix of the faultless ground-truth stream, and fsck repair
// converges to a sealed, tail-free container.
TEST_F(ChaosPipelineTest, StreamingFlushFaultSweepKeepsSealedPrefixConsistent) {
  constexpr std::uint32_t kFrames = 8;
  constexpr std::uint32_t kChunk = 2;
  const auto labels = categorize_protein_misc(system_);
  // Pre-generate the trajectory so every seed (and the truth) streams
  // bit-identical frames on identical chunk boundaries.
  workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
  std::vector<std::uint32_t> steps;
  std::vector<float> times;
  std::vector<std::vector<float>> coords;
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    const auto frame = gen.next_frame();
    coords.emplace_back(frame.begin(), frame.end());
    steps.push_back(gen.current_step());
    times.push_back(gen.current_time_ps());
  }

  // Faultless ground truth: kFrames divides kChunk, so every sealed chunk a
  // faulted run publishes is byte-aligned with a truth segment.
  auto truth_ada = open_ada("stream_truth");
  std::map<Tag, std::vector<std::uint8_t>> truth;
  {
    auto stream = truth_ada->begin_stream(labels, "live.xtc", kChunk);
    ASSERT_TRUE(stream.is_ok());
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      ASSERT_TRUE(
          stream.value().add_frame(steps[f], times[f], system_.box(), coords[f]).is_ok());
    }
    ASSERT_TRUE(stream.value().finish().is_ok());
  }
  const auto truth_tags = truth_ada->tags("live.xtc").value();
  for (const Tag& tag : truth_tags) truth[tag] = truth_ada->query("live.xtc", tag).value();
  ASSERT_FALSE(truth.empty());

  const int seeds = seed_budget();
  for (int seed = 1; seed <= seeds; ++seed) {
    const FaultPlan plan = stream_plan_for_seed(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("stream chaos seed " + std::to_string(seed) + ": " + plan.to_string() +
                 "  (reproduce: ADA_CHAOS_SEEDS=" + std::to_string(seed) + ")");
    auto ada = open_ada("stream_seed" + std::to_string(seed));

    for (const auto& [site, schedule] : plan.arms) {
      fault::Injector::global().arm(site, schedule);
    }

    // --- the producer: abandon at the first failed flush -----------------
    {
      auto stream = ada->begin_stream(labels, "live.xtc", kChunk);
      if (stream.is_ok()) {
        bool alive = true;
        for (std::uint32_t f = 0; alive && f < kFrames; ++f) {
          alive = stream.value()
                      .add_frame(steps[f], times[f], system_.box(), coords[f])
                      .is_ok();
        }
        if (alive) (void)stream.value().finish();  // the seal itself may fault
      }
    }

    // --- reads under fault: typed error or an exact prefix of truth ------
    for (const auto& [tag, expected] : truth) {
      const auto subset = ada->query("live.xtc", tag);
      if (subset.is_ok()) {
        ASSERT_LE(subset.value().size(), expected.size());
        EXPECT_TRUE(std::equal(subset.value().begin(), subset.value().end(), expected.begin()))
            << "tag " << tag << " served bytes that are not a prefix of the faultless stream";
      }
    }

    // --- disarm, repair: converge to a sealed, tail-free container -------
    fault::Injector::global().disarm_all();
    if (!ada->has_dataset("live.xtc")) continue;  // plan killed the first flush
    const auto repair = plfs::repair_container(ada->mount(), "live.xtc");
    ASSERT_TRUE(repair.is_ok()) << repair.error().to_string();
    const auto report = plfs::verify_container(ada->mount(), "live.xtc").value();
    EXPECT_TRUE(report.broken_records.empty()) << "repair left broken records";
    EXPECT_TRUE(report.checksum_bad_records.empty()) << "repair left corrupt extents";
    EXPECT_TRUE(report.open_tail_records.empty()) << "repair left an open tail";
    EXPECT_FALSE(report.stream_open) << "repair did not seal the interrupted stream";

    // Post-repair reads are prefixes of truth, frame-aligned at whatever
    // watermark survived; a tail follower terminates against the seal.
    const auto progress = ada->stream_progress("live.xtc");
    if (progress.is_ok() && progress.value().has_value()) {
      EXPECT_TRUE(progress.value()->sealed);
    }
    for (const auto& [tag, expected] : truth) {
      const auto subset = ada->query("live.xtc", tag);
      if (!subset.is_ok()) continue;  // quarantine may have removed the tag
      ASSERT_LE(subset.value().size(), expected.size());
      EXPECT_TRUE(std::equal(subset.value().begin(), subset.value().end(), expected.begin()))
          << "tag " << tag << " served a non-prefix AFTER repair";
      const auto cat = formats::RawTrajCatReader::open(subset.value());
      ASSERT_TRUE(cat.is_ok());
      if (progress.is_ok() && progress.value().has_value()) {
        EXPECT_EQ(cat.value().frame_count(), progress.value()->sealed_frames)
            << "tag " << tag << " disagrees with the sealed watermark";
      }
    }
  }
}

TEST_F(ChaosPipelineTest, DisarmedRunIsByteIdenticalToGroundTruth) {
  // The disarmed plane must not perturb the data path at all (the e2e
  // differential harness asserts the same property across processes; this is
  // the in-process spot check).
  auto a = open_ada("a");
  auto b = open_ada("b");
  ASSERT_TRUE(a->ingest(system_, xtc_, "bar.xtc").is_ok());
  {
    const fault::ScopedFault armed("unrelated.site", fault::Schedule::fail_nth(1));
    ASSERT_TRUE(b->ingest(system_, xtc_, "bar.xtc").is_ok());
  }
  const auto tags = a->tags("bar.xtc").value();
  for (const Tag& tag : tags) {
    EXPECT_EQ(a->query("bar.xtc", tag).value(), b->query("bar.xtc", tag).value());
  }
}

}  // namespace
}  // namespace ada::core
