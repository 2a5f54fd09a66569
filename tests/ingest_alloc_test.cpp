// Allocation count of the frame-parallel split on pool worker threads.
//
// A worker thread that allocates gets its own malloc arena, and the arena
// keeps the decode buffers' pages after the ingest returns: the process
// RSS then grows with the pool size although no data outlives the call.
// DataPreProcessor::split therefore sizes every buffer on the calling
// thread -- the final per-tag images and one scratch frame per concurrent
// range -- and its ranges must not allocate on the workers at all.  This
// binary replaces the global operator new to count allocations made by
// any thread other than the test's own, which here are the pool workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/preprocessor.hpp"
#include "common/parallel.hpp"
#include "formats/xtc_file.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_other_thread_allocs{0};
thread_local bool t_test_thread = false;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed) && !t_test_thread) {
    g_other_thread_allocs.fetch_add(1, std::memory_order_relaxed);
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

TEST(ParallelIngestAllocTest, SplitAtBudgetFourAllocatesNothingOnPoolWorkers) {
  // Eight paper-size frames at budget 4: eight one-frame ranges on four
  // threads.  Repeated so the workers take ranges on every round.
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::paper_default()).build();
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer;
  for (int f = 0; f < 8; ++f) {
    const std::uint32_t step = gen.current_step();
    const float time_ps = gen.current_time_ps();
    ASSERT_TRUE(writer.add_frame(step, time_ps, system.box(), gen.next_frame()).is_ok());
  }
  const auto xtc = writer.take();
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

}  // namespace
}  // namespace ada::core
