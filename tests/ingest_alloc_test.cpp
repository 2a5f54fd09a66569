// Allocation count of the frame-parallel decode on pool worker threads.
//
// A worker thread that allocates gets its own malloc arena, and the arena
// keeps the decode buffers' pages after the ingest returns: the process
// RSS then grows with the pool size although no data outlives the call.
// The decode engine therefore sizes every buffer on the calling thread --
// split()'s final per-tag images, the pipelined ingest's per-slot staging
// records and open droppings, and one scratch frame per concurrent range --
// and its ranges must not allocate on the workers at all, neither to
// decode nor, in Ada::ingest, to checksum and write each record.  This
// binary replaces the global operator new to count allocations made by
// any thread other than the test's own, which here are the pool workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/middleware.hpp"
#include "ada/preprocessor.hpp"
#include "common/parallel.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "test_util.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_other_thread_allocs{0};
thread_local bool t_test_thread = false;

// Allocations of at least g_large_bytes on any thread while counting: how
// many, and the sizes of the first kLargeKept.
constexpr std::size_t kLargeKept = 64;
std::atomic<std::size_t> g_large_bytes{~std::size_t{0}};
std::atomic<std::size_t> g_large_count{0};
std::array<std::atomic<std::size_t>, kLargeKept> g_large_sizes{};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    if (!t_test_thread) g_other_thread_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size >= g_large_bytes.load(std::memory_order_relaxed)) {
      const std::size_t at = g_large_count.fetch_add(1, std::memory_order_relaxed);
      if (at < kLargeKept) g_large_sizes[at].store(size, std::memory_order_relaxed);
    }
  }
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Allocations made off the test thread while `fn` runs on it.
std::uint64_t other_thread_allocs(const std::function<void()>& fn) {
  t_test_thread = true;
  g_other_thread_allocs.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_other_thread_allocs.load();
}

/// Sizes of the allocations of at least `bytes` bytes, made on any thread
/// while `fn` runs on this one.
std::vector<std::size_t> large_allocs(std::size_t bytes, const std::function<void()>& fn) {
  g_large_count.store(0);
  g_large_bytes.store(bytes);
  other_thread_allocs(fn);
  g_large_bytes.store(~std::size_t{0});
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < std::min(g_large_count.load(), kLargeKept); ++i) {
    sizes.push_back(g_large_sizes[i].load());
  }
  return sizes;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ada::core {
namespace {

TEST(ParallelIngestAllocTest, CounterSeesPoolWorkerAllocations) {
  // The control: work that allocates on the pool is counted.
  std::atomic<int> off_test_thread{0};
  const auto allocs = other_thread_allocs([&] {
    for (int round = 0; round < 20 && off_test_thread.load() == 0; ++round) {
      std::vector<std::function<void()>> tasks;
      for (int t = 0; t < 16; ++t) {
        tasks.push_back([&] {
          if (!t_test_thread) off_test_thread.fetch_add(1);
          std::vector<int> scratch(1024);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));  // let workers wake
        });
      }
      parallel_run(std::move(tasks), 4);
    }
  });
  ASSERT_GT(off_test_thread.load(), 0) << "no task ever ran on a pool worker";
  EXPECT_GT(allocs, 0u);
}

/// Eight frames of the paper-size system.
std::vector<std::uint8_t> paper_xtc(const chem::System& system,
                                    codec::CodecVersion version = codec::CodecVersion::kV1) {
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer({}, version);
  for (int f = 0; f < 8; ++f) {
    const std::uint32_t step = gen.current_step();
    const float time_ps = gen.current_time_ps();
    EXPECT_TRUE(writer.add_frame(step, time_ps, system.box(), gen.next_frame()).is_ok());
  }
  return writer.take();
}

TEST(ParallelIngestAllocTest, SplitAtBudgetFourAllocatesNothingOnPoolWorkers) {
  // Eight paper-size frames at budget 4: eight one-frame ranges on four
  // threads.  Repeated so the workers take ranges on every round.
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::paper_default()).build();
  const auto xtc = paper_xtc(system);
  const DataPreProcessor preprocessor(categorize_protein_misc(system));
  const auto serial = preprocessor.split(xtc, nullptr, 1).value();

  for (int round = 0; round < 5; ++round) {
    Result<std::map<Tag, std::vector<std::uint8_t>>> parallel = internal_error("not run");
    const auto allocs = other_thread_allocs([&] { parallel = preprocessor.split(xtc, nullptr, 4); });
    ASSERT_TRUE(parallel.is_ok());
    EXPECT_EQ(parallel.value(), serial) << "round " << round;
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
}

TEST(ParallelIngestAllocTest, IngestAtBudgetFourAllocatesNothingOnPoolWorkers) {
  // The whole pipelined Ada::ingest: the workers decode, encode, checksum
  // and pwrite every record into the droppings without one allocation.
  namespace fs = std::filesystem;
  const std::string root = test::unique_temp_dir("ada_ingest_alloc");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::paper_default()).build();
  const auto xtc = paper_xtc(system);
  const auto serial = DataPreProcessor(categorize_protein_misc(system)).split(xtc).value();
  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  config.threads = 4;
  Ada ada(plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}}).value(),
          config);

  for (int round = 0; round < 5; ++round) {
    const std::string name = "round" + std::to_string(round) + ".xtc";
    Result<IngestReport> report = internal_error("not run");
    const auto allocs = other_thread_allocs([&] { report = ada.ingest(system, xtc, name); });
    ASSERT_TRUE(report.is_ok()) << report.error().to_string();
    EXPECT_EQ(allocs, 0u) << "round " << round;
    for (const auto& [tag, image] : serial) {
      EXPECT_EQ(ada.query(name, tag).value(), image) << "round " << round << ", tag " << tag;
    }
  }
  fs::remove_all(root);
}

TEST(ParallelIngestAllocTest, V1IngestAtBudgetFourAllocatesNoWholeFrame) {
  // A v1 frame decodes straight into its per-tag records, so no thread
  // allocates 3 x atom_count floats or more but the slots' staging, one
  // frame's records for every tag per slot.  The v2 ingest is the control:
  // its predicted frames decode through a scratch frame per slot, and the
  // counter must see one.
  namespace fs = std::filesystem;
  const std::string root = test::unique_temp_dir("ada_ingest_whole_frame");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::paper_default()).build();
  const LabelMap labels = categorize_protein_misc(system);
  std::size_t frame_records_bytes = 0;
  for (const auto& [tag, selection] : labels.groups) {
    frame_records_bytes += formats::raw_frame_bytes(static_cast<std::uint32_t>(selection.count()));
  }
  const std::size_t whole_frame_bytes = std::size_t{3} * system.atom_count() * sizeof(float);
  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  config.threads = 4;
  Ada ada(plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}}).value(),
          config);

  for (const auto version : {codec::CodecVersion::kV1, codec::CodecVersion::kV2}) {
    const auto xtc = paper_xtc(system, version);
    const std::string name = "v" + std::to_string(static_cast<int>(version)) + ".xtc";
    Result<IngestReport> report = internal_error("not run");
    const auto sizes =
        large_allocs(whole_frame_bytes, [&] { report = ada.ingest_with_labels(labels, xtc, name); });
    ASSERT_TRUE(report.is_ok()) << report.error().to_string();
    ASSERT_FALSE(sizes.empty()) << "the staging is at least one frame's records";
    const auto scratch_frames = std::count(sizes.begin(), sizes.end(), whole_frame_bytes);
    if (version == codec::CodecVersion::kV1) {
      for (const std::size_t size : sizes) {
        EXPECT_EQ(size % frame_records_bytes, 0u)
            << size << " bytes: neither staging nor below 3 x atom_count floats";
      }
    } else {
      EXPECT_GE(scratch_frames, 1) << "the control must see the v2 scratch frames";
    }
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace ada::core
