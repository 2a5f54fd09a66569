// Tests for the shared thread pool's one primitive, ThreadPool::run
// (common/thread_pool.hpp).
//
// The ingest and read paths lean on these properties: every index of a
// batch runs exactly once under any parallelism cap, a budget of one runs
// the batch inline in index order, batches nest without deadlock (frame
// ranges under file-level batches), helpers adopt the caller's trace
// context, and a batch lives only in its caller's frame: a caller that
// drained every index before any helper woke returns at once, and no
// worker touches that frame afterwards.  The stress test exists for
// `-DADA_SANITIZE=thread` runs: several threads drive the shared pool at
// once so TSan sees every join, wake and leave.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace ada {
namespace {

using namespace std::chrono_literals;

// Spin (politely) until `done` holds or the deadline passes.
bool wait_for(const std::function<bool()>& done,
              std::chrono::milliseconds deadline = 10'000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(ThreadPoolTest, RunBatchExecutesEveryTaskOnceUnderAnyCap) {
  for (const unsigned cap : {0u, 1u, 2u, 3u, 8u, 64u}) {
    constexpr std::size_t kJobs = 257;
    std::vector<int> hits(kJobs, 0);  // each slot has one owner
    ThreadPool::shared().run(kJobs, cap, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kJobs; ++i) {
      ASSERT_EQ(hits[i], 1) << "job " << i << " under cap " << cap;
    }
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonBatches) {
  int hits = 0;
  ThreadPool::shared().run(0, 0, [&hits](std::size_t) { ++hits; });  // returns at once
  EXPECT_EQ(hits, 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ThreadPool::shared().run(1, 0, [&](std::size_t i) {
    hits += static_cast<int>(i) + 1;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(ran_on, caller) << "a singleton batch runs inline";
}

TEST(ThreadPoolTest, BudgetOneRunsInlineInIndexOrder) {
  // run_until_failure's serial contract: a budget of one is a plain loop.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool off_caller = false;
  ThreadPool::shared().run(9, 1, [&](std::size_t i) {
    order.push_back(i);
    off_caller = off_caller || std::this_thread::get_id() != caller;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_FALSE(off_caller);
}

TEST(ThreadPoolTest, NestedRunBatchDoesNotDeadlock) {
  // Frame ranges nest under file-level batches: every outer job runs an
  // inner batch on the same pool.  The caller of every batch drains it
  // itself, so this completes even when all workers are busy outside.
  std::atomic<int> inner_hits{0};
  ThreadPool::shared().run(4, 0, [&inner_hits](std::size_t) {
    ThreadPool::shared().run(8, 0, [&inner_hits](std::size_t) {
      inner_hits.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ThreadPoolTest, RunBatchTasksShareTheCallersTrace) {
  obs::reset_events();
  obs::set_trace_enabled(true);
  constexpr std::size_t kJobs = 24;
  std::vector<std::uint64_t> seen(kJobs, 0);
  std::uint64_t expected = 0;
  {
    const obs::Span span("pool_batch_trace");
    expected = obs::current_context().trace_id;
    ThreadPool::shared().run(kJobs, 0, [&seen](std::size_t i) {
      seen[i] = obs::current_context().trace_id;
    });
  }
  obs::set_trace_enabled(false);
  obs::reset_events();
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(seen[i], expected) << "job " << i;
  }
}

// Runs a 64-index batch in this frame; returns how many indices ran off
// the calling thread.
[[gnu::noinline]] int run_batch_in_this_frame(ThreadPool& pool, int& calls) {
  const std::thread::id caller = std::this_thread::get_id();
  int foreign = 0;
  pool.run(64, 0, [&](std::size_t) {
    ++calls;
    if (std::this_thread::get_id() != caller) ++foreign;
  });
  return foreign;
}

// Overwrites the stack where the batch above lived.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[8192];
  for (auto& byte : junk) byte = 0xA5;
}

TEST(ThreadPoolTest, CallerDrainedBatchReturnsAndIsNeverTouchedAgain) {
  // Hold both workers of a private pool inside a gate batch, so the batch
  // below is offered to helpers that cannot wake: its caller drains every
  // index, must return without waiting for them, and once released no
  // worker may read the frame the batch lived in (TSan flags a read of the
  // scribbled stack).
  ThreadPool pool(2);
  std::atomic<int> held{0};
  std::atomic<bool> release{false};
  std::thread gate([&] {
    pool.run(3, 0, [&](std::size_t) {
      held.fetch_add(1);
      while (!release.load(std::memory_order_acquire)) std::this_thread::sleep_for(1ms);
    });
  });
  ASSERT_TRUE(wait_for([&] { return held.load() == 3; }));

  int calls = 0;
  int foreign = -1;
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    foreign = run_batch_in_this_frame(pool, calls);
    scribble_stack();
    returned.store(true, std::memory_order_release);
  });
  const bool on_time = wait_for([&] { return returned.load(std::memory_order_acquire); });
  release.store(true, std::memory_order_release);
  caller.join();
  gate.join();
  ASSERT_TRUE(on_time) << "the caller waited for helpers that never joined";
  EXPECT_EQ(calls, 64);
  EXPECT_EQ(foreign, 0);

  // The released workers go back to the open-batch list; a fresh batch
  // still gets every index exactly once.
  std::vector<int> hits(16, 0);
  pool.run(hits.size(), 0, [&hits](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, std::vector<int>(16, 1));
}

TEST(ThreadPoolTest, StressConcurrentBatches) {
  // TSan fodder (-DADA_SANITIZE=thread): several threads drive the shared
  // pool at once with flat and nested batches, so every join, wake and
  // leave happens under contention.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  constexpr int kJobsPerBatch = 8;
  std::atomic<int> batch_hits{0};
  std::atomic<int> nested_hits{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        ThreadPool::shared().run(kJobsPerBatch, 0, [&batch_hits](std::size_t) {
          batch_hits.fetch_add(1, std::memory_order_relaxed);
        });
        ThreadPool::shared().run(2, 0, [&nested_hits](std::size_t) {
          ThreadPool::shared().run(3, 2, [&nested_hits](std::size_t) {
            nested_hits.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(batch_hits.load(), kThreads * kRounds * kJobsPerBatch);
  EXPECT_EQ(nested_hits.load(), kThreads * kRounds * 6);
}

}  // namespace
}  // namespace ada
