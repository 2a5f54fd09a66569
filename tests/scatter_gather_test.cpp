// Scatter-gather retrieval suite (`ctest -L check-sg`).
//
// The contract under test: the fetch engine returns BYTE-IDENTICAL results
// for every thread count (its one-thread run included), queue depth,
// completion order, cache state, and failure pattern -- checked against a
// reference cut straight out of the dropping files -- and the DES plane's
// per-server admission window scales the way the bench claims.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>


#include "ada/indexer.hpp"
#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "ada/vfs.hpp"
#include "common/admission.hpp"
#include "common/crc32c.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "platform/pipeline.hpp"
#include "pvfs/pvfs.hpp"
#include "pvfs/striping.hpp"
#include "storage/device.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

// --- AdmissionWindow -----------------------------------------------------------------

TEST(AdmissionWindowTest, DepthZeroNeverBlocks) {
  AdmissionWindow window(/*keys=*/2, /*depth=*/0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(window.acquire(0), 0u);  // no release: unbounded is a no-op
  }
}

TEST(AdmissionWindowTest, BlocksAtDepthUntilRelease) {
  AdmissionWindow window(/*keys=*/1, /*depth=*/1);
  ASSERT_EQ(window.acquire(0), 0u);
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    const std::uint64_t waits = window.acquire(0);
    EXPECT_GE(waits, 1u);  // it had to wait for the release
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load()) << "second acquire must block at depth 1";
  window.release(0);
  blocked.join();
  EXPECT_TRUE(acquired.load());
  window.release(0);
}

TEST(AdmissionWindowTest, KeysHaveIndependentBudgets) {
  AdmissionWindow window(/*keys=*/2, /*depth=*/1);
  EXPECT_EQ(window.acquire(0), 0u);
  EXPECT_EQ(window.acquire(1), 0u);  // key 1 unaffected by key 0's slot
  window.release(0);
  window.release(1);
}

// --- middleware differential ---------------------------------------------------------

/// Disarm every fault site on scope exit so a failing ASSERT can't leak an
/// armed schedule into the next test.
struct DisarmGuard {
  ~DisarmGuard() { fault::Injector::global().disarm_all(); }
};

class ScatterGatherTest : public testing::Test {
 protected:
  static constexpr std::uint32_t kFrames = 17;  // chunks of 3: extents 3,3,3,3,3,2

  void SetUp() override {
    root_ = test::unique_temp_dir("ada_sg_test");
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    serial_ = open_ada(/*read_threads=*/1, /*queue_depth=*/4, /*cache_bytes=*/0);

    // Streamed ingest with small chunks: every chunk flushes one dropping
    // per tag, so each tag's subset spans six extents -- the multi-extent
    // shape the scatter-gather engine fans over.
    const LabelMap labels = categorize_protein_misc(system_);
    auto stream = serial_->begin_stream(labels, "traj.xtc", /*chunk_frames=*/3);
    ASSERT_TRUE(stream.is_ok()) << stream.error().to_string();
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      const auto frame = gen.next_frame();
      ASSERT_TRUE(stream.value()
                      .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(), frame)
                      .is_ok());
    }
    ASSERT_TRUE(stream.value().finish().is_ok());

    const auto tags = serial_->tags("traj.xtc");
    ASSERT_TRUE(tags.is_ok());
    tags_ = tags.value();
    ASSERT_GE(tags_.size(), 2u);
    // Independent reference: each located extent cut out of its raw dropping
    // file at physical_offset, concatenated in location order -- no
    // retriever code involved, so the serial engine is checked too.
    for (const Tag& tag : tags_) {
      const auto locations = Indexer(serial_->mount()).locate("traj.xtc", tag);
      ASSERT_TRUE(locations.is_ok()) << locations.error().to_string();
      std::vector<std::uint8_t>& reference = reference_[tag];
      for (const DatasetLocation& location : locations.value()) {
        const auto dropping = plfs::read_dropping_file(location.host_path);
        ASSERT_TRUE(dropping.is_ok()) << dropping.error().to_string();
        ASSERT_GE(dropping.value().size(), location.physical_offset + location.bytes);
        const auto* extent = dropping.value().data() + location.physical_offset;
        reference.insert(reference.end(), extent, extent + location.bytes);
      }
    }
  }
  void TearDown() override { fs::remove_all(root_); }

  std::unique_ptr<Ada> open_ada(unsigned read_threads, unsigned queue_depth,
                                std::uint64_t cache_bytes) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.read_threads = read_threads;
    config.read_queue_depth = queue_depth;
    config.cache_bytes = cache_bytes;
    return std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", root_ + "/ssd"}, {"hdd", root_ + "/hdd"}}).value(),
        config);
  }

  void expect_matches_reference(Ada& ada, const std::string& context) {
    for (const Tag& tag : tags_) {
      const auto got = ada.query("traj.xtc", tag);
      ASSERT_TRUE(got.is_ok()) << context << ": " << got.error().to_string();
      EXPECT_EQ(got.value(), reference_.at(tag)) << context << " tag " << tag;
    }
  }

  std::string root_;
  chem::System system_;
  std::unique_ptr<Ada> serial_;
  std::vector<Tag> tags_;
  std::map<Tag, std::vector<std::uint8_t>> reference_;
};

TEST_F(ScatterGatherTest, ParallelMatchesSerialAcrossMatrix) {
  for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
    for (const unsigned depth : {0u, 1u, 2u, 4u}) {
      auto ada = open_ada(threads, depth, /*cache_bytes=*/0);
      expect_matches_reference(*ada, "threads=" + std::to_string(threads) +
                                         " depth=" + std::to_string(depth));
    }
  }
}

TEST_F(ScatterGatherTest, AdversarialCompletionOrderStaysOrdered) {
  // Random per-read delays scramble worker completion order; the ordered
  // merge must still assemble extents in logical order, every round.
  DisarmGuard guard;
  ASSERT_TRUE(
      fault::Injector::global().arm_spec("plfs.read_dropping=delay:0.002:0.5").is_ok());
  auto ada = open_ada(/*read_threads=*/4, /*queue_depth=*/2, /*cache_bytes=*/0);
  for (int round = 0; round < 4; ++round) {
    expect_matches_reference(*ada, "adversarial round " + std::to_string(round));
  }
}

TEST_F(ScatterGatherTest, FirstLogicalErrorWinsLikeSerial) {
  // Break two extents; serial stops at the earliest broken one in logical
  // order, and the parallel merge must surface that SAME error even though
  // a later extent may fail first on the wall clock.
  const auto locations = Indexer(serial_->mount()).locate("traj.xtc", tags_[0]).value();
  ASSERT_GE(locations.size(), 4u);
  fs::remove(locations[3].host_path);
  fs::remove(locations[1].host_path);

  const auto serial_result = serial_->query("traj.xtc", tags_[0]);
  ASSERT_FALSE(serial_result.is_ok());
  auto parallel = open_ada(/*read_threads=*/4, /*queue_depth=*/2, /*cache_bytes=*/0);
  const auto parallel_result = parallel->query("traj.xtc", tags_[0]);
  ASSERT_FALSE(parallel_result.is_ok());
  EXPECT_EQ(parallel_result.error().to_string(), serial_result.error().to_string());
}

TEST_F(ScatterGatherTest, RangeFastPathMatchesSerial) {
  auto parallel = open_ada(/*read_threads=*/4, /*queue_depth=*/4, /*cache_bytes=*/0);
  const FrameRange ranges[] = {{0, kFrames, 1}, {2, 11, 2}, {5, 6, 1}, {0, kFrames, 3}};
  for (const Tag& tag : tags_) {
    for (const FrameRange& range : ranges) {
      const auto want = serial_->query("traj.xtc", tag, range);
      const auto got = parallel->query("traj.xtc", tag, range);
      ASSERT_TRUE(want.is_ok()) << want.error().to_string();
      ASSERT_TRUE(got.is_ok()) << got.error().to_string();
      EXPECT_EQ(got.value(), want.value())
          << "range [" << range.begin << "," << range.end << ") stride " << range.stride
          << " tag " << tag;
    }
  }
}

TEST_F(ScatterGatherTest, CacheArmedDoubleReadStaysIdentical) {
  // First read fills the subset cache through the parallel path; the second
  // is a cache hit.  Both must equal the uncached serial bytes.
  auto parallel = open_ada(/*read_threads=*/4, /*queue_depth=*/4, /*cache_bytes=*/64u << 20);
  expect_matches_reference(*parallel, "cache fill");
  expect_matches_reference(*parallel, "cache hit");
}

TEST_F(ScatterGatherTest, VfsUntaggedFanoutMatchesSerial) {
  VfsShim serial_shim(*serial_, root_ + "/host_s");
  auto parallel = open_ada(/*read_threads=*/4, /*queue_depth=*/4, /*cache_bytes=*/0);
  VfsShim parallel_shim(*parallel, root_ + "/host_p");
  const auto want = serial_shim.read("traj.xtc", "vmd");
  const auto got = parallel_shim.read("traj.xtc", "vmd");
  ASSERT_TRUE(want.is_ok()) << want.error().to_string();
  ASSERT_TRUE(got.is_ok()) << got.error().to_string();
  EXPECT_EQ(got.value(), want.value());
}

TEST_F(ScatterGatherTest, DegradedQueryServesSurvivorsUnderParallelReads) {
  // A downed extent behind one tag: the degraded read must flag that tag
  // and serve the other tags' bytes unchanged through the parallel path.
  const auto locations = Indexer(serial_->mount()).locate("traj.xtc", tags_[0]).value();
  ASSERT_FALSE(locations.empty());
  fs::remove(locations[0].host_path);

  auto parallel = open_ada(/*read_threads=*/4, /*queue_depth=*/2, /*cache_bytes=*/0);
  const auto partial = parallel->query_degraded("traj.xtc");
  ASSERT_TRUE(partial.is_ok()) << partial.error().to_string();
  EXPECT_TRUE(partial.value().partial());
  ASSERT_EQ(partial.value().failed.size(), 1u);
  EXPECT_EQ(partial.value().failed[0].tag, tags_[0]);
  for (const Tag& tag : tags_) {
    if (tag == tags_[0]) continue;
    EXPECT_EQ(partial.value().subsets.at(tag), reference_.at(tag)) << "survivor tag " << tag;
  }
}

TEST_F(ScatterGatherTest, StressConcurrentQueriesStayIdentical) {
  // Many application threads querying one parallel middleware at once: the
  // shared pool, admission windows, and block cache must stay race-free
  // (run under TSan via the sanitizer build).
  auto parallel = open_ada(/*read_threads=*/4, /*queue_depth=*/2, /*cache_bytes=*/8u << 20);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (const Tag& tag : tags_) {
          const auto got = parallel->query("traj.xtc", tag);
          if (!got.is_ok() || got.value() != reference_.at(tag)) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- piece engine ---------------------------------------------------------------------

/// Extents of every size around the piece boundary, written straight
/// through PLFS: a batch container with one tag per size, and a streamed
/// container whose one tag spans every size, one chunk publication each.
class PieceReadTest : public testing::Test {
 protected:
  static constexpr std::uint64_t kPiece = IoRetriever::kPieceBytes;
  static constexpr std::uint64_t kSizes[] = {0, 1, kPiece - 1, kPiece, kPiece + 1, 3 * kPiece + 17};
  static constexpr std::size_t kLargest = 5;  // four pieces
  static constexpr unsigned kThreadCounts[] = {1, 2, 0};

  void SetUp() override {
    fault::Injector::global().disarm_all();
    root_ = test::unique_temp_dir("ada_piece_test");
    fs::remove_all(root_);
    mount_ = std::make_unique<plfs::PlfsMount>(
        plfs::PlfsMount::open({{"ssd", root_ + "/ssd"}, {"hdd", root_ + "/hdd"}}).value());
    RetryPolicy fast;  // keep injected-retry wall time negligible
    fast.max_attempts = 3;
    fast.initial_backoff_s = 1e-4;
    mount_->set_retry_policy(fast);

    Rng rng(23);
    std::vector<plfs::Extent> batch;
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      std::vector<std::uint8_t> bytes(kSizes[i]);
      for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
      stream_bytes_.insert(stream_bytes_.end(), bytes.begin(), bytes.end());
      bytes_.push_back(std::move(bytes));
    }
    for (std::size_t i = 0; i < bytes_.size(); ++i) {
      batch.push_back(plfs::Extent{tag(i), static_cast<std::uint32_t>(i % 2), bytes_[i], {}});
    }
    ASSERT_TRUE(mount_->create_container("batch").is_ok());
    ASSERT_TRUE(mount_->append("batch", batch).is_ok());
    plfs::StreamState state;
    ASSERT_TRUE(mount_->create_container("stream", state).is_ok());
    for (std::size_t i = 0; i < bytes_.size(); ++i) {
      state.sealed_chunks = i + 1;
      state.sealed = i + 1 == bytes_.size();
      const plfs::Extent chunk{"p", static_cast<std::uint32_t>(i % 2), bytes_[i], {}};
      ASSERT_TRUE(mount_->append("stream", {chunk}, state).is_ok());
    }
  }
  void TearDown() override {
    fault::Injector::global().disarm_all();
    fs::remove_all(root_);
  }

  static Tag tag(std::size_t i) { return std::string(1, 's') += std::to_string(i); }

  std::vector<DatasetLocation> locate(const std::string& name, const Tag& tag) const {
    return Indexer(*mount_).locate(name, tag).value();
  }

  Result<std::vector<std::uint8_t>> read(const std::string& name, const Tag& tag,
                                         unsigned threads) const {
    ADA_ASSIGN_OR_RETURN(const auto locations, Indexer(*mount_).locate(name, tag));
    return IoRetriever(*mount_, RetrieveOptions{threads, 4}).retrieve(locations);
  }

  /// An answer as one comparable string: its bytes' size and CRC, or the
  /// error's code and message.
  static std::string describe(const Result<std::vector<std::uint8_t>>& answer) {
    if (!answer.is_ok()) return answer.error().to_string();
    return "ok " + std::to_string(answer.value().size()) + " bytes, crc " +
           std::to_string(crc32c(answer.value()));
  }

  /// Flip one byte of a dropping on disk.
  static void flip_on_disk(const std::string& path, std::uint64_t at) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open()) << path;
    file.seekg(static_cast<std::streamoff>(at));
    const int byte = file.get();
    file.seekp(static_cast<std::streamoff>(at));
    file.put(static_cast<char>(byte ^ 0x01));
  }

  std::string root_;
  std::unique_ptr<plfs::PlfsMount> mount_;
  std::vector<std::vector<std::uint8_t>> bytes_;
  std::vector<std::uint8_t> stream_bytes_;
};

TEST_F(PieceReadTest, AnswersAreByteIdenticalAcrossThreadCounts) {
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE("read_threads " + std::to_string(threads));
    for (std::size_t i = 0; i < bytes_.size(); ++i) {
      const auto got = read("batch", tag(i), threads);
      ASSERT_TRUE(got.is_ok()) << got.error().to_string();
      EXPECT_EQ(got.value(), bytes_[i]) << kSizes[i] << "-byte extent";
    }
    const auto streamed = read("stream", "p", threads);
    ASSERT_TRUE(streamed.is_ok()) << streamed.error().to_string();
    EXPECT_EQ(streamed.value(), stream_bytes_);
    const auto extents =
        IoRetriever(*mount_, RetrieveOptions{threads, 4}).retrieve_extents(locate("stream", "p"));
    ASSERT_TRUE(extents.is_ok()) << extents.error().to_string();
    EXPECT_EQ(extents.value(), bytes_);
  }
}

TEST_F(PieceReadTest, CorruptByteInAnyPieceIsCorruptData) {
  const DatasetLocation location = locate("batch", tag(kLargest)).front();
  ASSERT_EQ(location.bytes, 3 * kPiece + 17);
  for (const std::uint64_t at : {std::uint64_t{100}, kPiece + kPiece / 2, 3 * kPiece + 5}) {
    SCOPED_TRACE("byte " + std::to_string(at));
    // A simulated media error from the fault site, flipped after its
    // piece's pread and before that piece's checksum.
    const double fraction = (static_cast<double>(at) + 0.5) / static_cast<double>(location.bytes);
    for (const unsigned threads : kThreadCounts) {
      const fault::ScopedFault corrupt("plfs.read_dropping",
                                       fault::Schedule::corrupt_read(1, fraction));
      const auto got = read("batch", tag(kLargest), threads);
      ASSERT_FALSE(got.is_ok()) << "read_threads " << threads;
      EXPECT_EQ(got.error().code(), ErrorCode::kCorruptData);
      EXPECT_EQ(got.error().message(), "checksum mismatch on " + location.host_path);
    }
    // The same byte damaged on disk.
    flip_on_disk(location.host_path, location.physical_offset + at);
    for (const unsigned threads : kThreadCounts) {
      const auto got = read("batch", tag(kLargest), threads);
      ASSERT_FALSE(got.is_ok()) << "read_threads " << threads;
      EXPECT_EQ(got.error().code(), ErrorCode::kCorruptData);
      EXPECT_EQ(got.error().message(), "checksum mismatch on " + location.host_path);
    }
    flip_on_disk(location.host_path, location.physical_offset + at);
    EXPECT_TRUE(read("batch", tag(kLargest), 0).is_ok());
  }
}

TEST_F(PieceReadTest, TruncatedDroppingFailsAsTheSerialRun) {
  const DatasetLocation batch = locate("batch", tag(kLargest)).front();
  fs::resize_file(batch.host_path, batch.physical_offset + 2 * kPiece);
  const DatasetLocation chunk = locate("stream", "p")[4];
  fs::resize_file(chunk.host_path, chunk.physical_offset + 1);
  for (const auto& [name, subset] : {std::pair<std::string, Tag>{"batch", tag(kLargest)},
                                     std::pair<std::string, Tag>{"stream", "p"}}) {
    const auto serial = read(name, subset, 1);
    ASSERT_FALSE(serial.is_ok()) << name;
    EXPECT_EQ(serial.error().code(), ErrorCode::kCorruptData) << name;
    for (const unsigned threads : {2u, 0u}) {
      EXPECT_EQ(describe(read(name, subset, threads)), describe(serial))
          << name << " at read_threads " << threads;
    }
  }
}

TEST_F(PieceReadTest, FaultSiteIsHitOncePerExtent) {
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE("read_threads " + std::to_string(threads));
    {
      const fault::ScopedFault count("plfs.read_dropping", fault::Schedule::fail_nth(1u << 30));
      ASSERT_TRUE(read("batch", tag(kLargest), threads).is_ok());
      EXPECT_EQ(fault::Injector::global().hits("plfs.read_dropping"), 1u);
    }
    const fault::ScopedFault count("plfs.read_dropping", fault::Schedule::fail_nth(1u << 30));
    ASSERT_TRUE(read("stream", "p", threads).is_ok());
    EXPECT_EQ(fault::Injector::global().hits("plfs.read_dropping"), std::size(kSizes));
  }
}

TEST_F(PieceReadTest, FaultSchedulesAnswerAlikeAtEveryThreadCount) {
  // The schedule shapes the chaos tier arms at the read site.  Site hits
  // follow location order at every thread count, so each schedule picks the
  // same extents and every answer, code and message is the serial run's.
  std::vector<fault::Schedule> schedules;
  for (std::uint64_t k = 1; k <= 6; ++k) schedules.push_back(fault::Schedule::fail_nth(k));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    schedules.push_back(fault::Schedule::fail_probability(0.3, seed));
  }
  schedules.push_back(fault::Schedule::down_window(2, 4));
  schedules.push_back(fault::Schedule::down_window(1, 9));
  for (std::uint64_t k = 1; k <= 6; ++k) {
    schedules.push_back(fault::Schedule::corrupt_read(k, 0.1 * static_cast<double>(k)));
  }
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    std::string serial;
    for (const unsigned threads : kThreadCounts) {
      const fault::ScopedFault armed("plfs.read_dropping", schedules[s]);
      std::string answers = describe(read("stream", "p", threads));
      for (std::size_t i = 0; i < bytes_.size(); ++i) {
        answers += " | " + describe(read("batch", tag(i), threads));
      }
      if (threads == 1) {
        serial = answers;
      } else {
        EXPECT_EQ(answers, serial) << "read_threads " << threads;
      }
    }
  }
}

TEST_F(PieceReadTest, OnePieceFetchStaysOnTheCaller) {
  obs::reset_all();
  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  const std::uint64_t submitted = registry.counter_value("pool.submitted");
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {  // 1 byte, one full piece
    ASSERT_TRUE(read("batch", tag(i), 0).is_ok());
  }
  EXPECT_EQ(registry.counter_value("pool.submitted"), submitted);
  EXPECT_EQ(registry.counter_value("retrieve.pieces"), 2u);
  ASSERT_TRUE(read("batch", tag(kLargest), 0).is_ok());
  EXPECT_EQ(registry.counter_value("retrieve.pieces"), 6u);
  if (ThreadPool::shared().worker_count() > 0) {
    EXPECT_GT(registry.counter_value("pool.submitted"), submitted)
        << "a four-piece fetch fans out onto the pool";
  }
  obs::set_enabled(false);
  obs::reset_all();
}

// --- DES plane -----------------------------------------------------------------------

double sim_read_seconds(unsigned servers, unsigned queue_depth, double extent_bytes) {
  platform::ClusterConfig cluster;
  cluster.compute_nodes = 1;
  cluster.hdd_storage_nodes = servers;
  cluster.ssd_storage_nodes = 1;
  platform::ClusterReadSpec spec;
  spec.reads = {platform::ClusterRead{platform::ClusterRead::Instance::kHdd, 16.0 * 1024 * 1024}};
  spec.sg_extent_bytes = extent_bytes;
  spec.sg_queue_depth = queue_depth;
  return platform::simulate_cluster_read(cluster, spec).seconds;
}

constexpr double kExtent = 512.0 * 1024;

TEST(ScatterGatherSimTest, ServerScalingIsMonotone) {
  const double t1 = sim_read_seconds(1, 4, kExtent);
  const double t2 = sim_read_seconds(2, 4, kExtent);
  const double t4 = sim_read_seconds(4, 4, kExtent);
  const double t9 = sim_read_seconds(9, 4, kExtent);
  EXPECT_GT(t1, t2);
  EXPECT_GT(t2, t4);
  EXPECT_GT(t4, t9);
  EXPECT_GT(t1 / t9, 4.0) << "nine HDD servers should beat one by well over 4x";
}

TEST(ScatterGatherSimTest, DeeperQueuesNeverSlower) {
  const double unbounded = sim_read_seconds(9, 0, kExtent);
  double previous = sim_read_seconds(9, 1, kExtent);
  for (const unsigned depth : {2u, 4u, 8u, 16u}) {
    const double seconds = sim_read_seconds(9, depth, kExtent);
    EXPECT_LE(seconds, previous + 1e-9) << "depth " << depth;
    previous = seconds;
  }
  EXPECT_GE(previous, unbounded - 1e-9) << "unbounded is the floor";
}

TEST(ScatterGatherSimTest, OneExtentPerServerReproducesReadFile) {
  // read_extents with each server's whole share as one extent at unbounded
  // depth must replay read_file's exact event schedule.
  sim::Simulator simulator;
  sim::FlowNetwork network(simulator);
  net::Fabric fabric(simulator, network, net::FabricSpec{4.5e9, 40e9, 2e-6}, /*node_count=*/4);
  const std::vector<pvfs::IoServer> servers = {{1, storage::DeviceSpec::wd_hdd_1tb(), 2},
                                               {2, storage::DeviceSpec::wd_hdd_1tb(), 2},
                                               {3, storage::DeviceSpec::wd_hdd_1tb(), 2}};
  const double bytes = 48.0 * 1024 * 1024;

  pvfs::PvfsModel whole(simulator, fabric, "whole", servers, 1);
  double whole_done = -1;
  whole.read_file(bytes, /*client=*/0, [&] { whole_done = simulator.now(); });
  simulator.run();

  sim::Simulator simulator2;
  sim::FlowNetwork network2(simulator2);
  net::Fabric fabric2(simulator2, network2, net::FabricSpec{4.5e9, 40e9, 2e-6}, 4);
  pvfs::PvfsModel sg(simulator2, fabric2, "sg", servers, 1);
  const auto shares = sg.layout().distribution(static_cast<std::uint64_t>(bytes));
  std::vector<pvfs::ExtentRead> extents;
  for (std::uint32_t s = 0; s < shares.size(); ++s) {
    if (shares[s] != 0) {
      extents.push_back(pvfs::ExtentRead{static_cast<double>(shares[s]), s});
    }
  }
  double sg_done = -1;
  sg.read_extents(extents, /*client=*/0, pvfs::SgParams{0},
                  [&](const Status&) { sg_done = simulator2.now(); });
  simulator2.run();

  ASSERT_GT(whole_done, 0.0);
  EXPECT_DOUBLE_EQ(sg_done, whole_done);
}

TEST(ScatterGatherSimTest, DownedServerFailsReadAfterRetries) {
  DisarmGuard guard;
  ASSERT_TRUE(fault::Injector::global()
                  .arm_spec("pvfs.stripe_read.s1=down:1:1000000000")
                  .is_ok());
  platform::ClusterConfig cluster;
  cluster.compute_nodes = 1;
  cluster.hdd_storage_nodes = 9;
  cluster.ssd_storage_nodes = 1;
  platform::ClusterReadSpec spec;
  spec.reads = {platform::ClusterRead{platform::ClusterRead::Instance::kHdd, 16.0 * 1024 * 1024}};
  spec.sg_extent_bytes = kExtent;
  spec.sg_queue_depth = 4;
  const auto outcome = platform::simulate_cluster_read(cluster, spec);
  EXPECT_EQ(outcome.io_errors, 1u) << "the op fails for good once retries are exhausted";
  EXPECT_GT(outcome.seconds, 0.0);
}

}  // namespace
}  // namespace ada::core
