// Tests for the persistent work-stealing thread pool (common/thread_pool.hpp).
//
// The pool replaced parallel_run's spawn-per-batch threads on the ingest
// hot path, so these tests pin down the properties the pipeline leans on:
// every task of a batch runs exactly once under any parallelism cap, batches
// nest without deadlock (frame-level under file-level parallelism), workers
// adopt the submitter's trace context, idle workers steal from their
// siblings' deques, and the pool's own instruments account for what ran.
// The stress test exists for `-DADA_SANITIZE=thread` runs: it hammers the
// shared pool from several threads at once so TSan can see the handoffs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "obs/metrics.hpp"

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
    constexpr std::size_t kTasks = 257;
    std::vector<int> hits(kTasks, 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      tasks.push_back([&hits, i] { ++hits[i]; });  // each slot has one owner
    }
    ThreadPool::shared().run_batch(std::move(tasks), cap);
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[i], 1) << "task " << i << " under cap " << cap;
    }
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonBatches) {
  ThreadPool::shared().run_batch({});  // no tasks: returns immediately
  int hits = 0;
  std::vector<std::function<void()>> one;
  one.push_back([&hits] { ++hits; });
  ThreadPool::shared().run_batch(std::move(one), 0);
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPoolTest, NestedRunBatchDoesNotDeadlock) {
  // Frame-level parallelism nests under file-level parallelism: outer batch
  // tasks each run an inner batch on the same pool.  The caller of every
  // batch participates in draining it, so this completes even when all
  // workers are busy with outer tasks.
  std::atomic<int> inner_hits{0};
  std::vector<std::function<void()>> outer;
  for (int o = 0; o < 4; ++o) {
    outer.push_back([&inner_hits] {
      std::vector<std::function<void()>> inner;
      for (int i = 0; i < 8; ++i) {
        inner.push_back([&inner_hits] { inner_hits.fetch_add(1, std::memory_order_relaxed); });
      }
      ThreadPool::shared().run_batch(std::move(inner), 0);
    });
  }
  ThreadPool::shared().run_batch(std::move(outer), 0);
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ThreadPoolTest, ParallelRunIsThePoolNow) {
  // The legacy entry point must drain through the shared pool (no
  // spawn-per-batch threads) with the same complete-every-task contract.
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 31; ++i) {
    tasks.push_back([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  parallel_run(std::move(tasks), 3);
  EXPECT_EQ(hits.load(), 31);
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> hits{0};
  for (int i = 0; i < 16; ++i) {
    // Release: the waiting load must order the task's last touch of `hits`
    // before the stack slot is reused.
    ThreadPool::shared().submit([&hits] { hits.fetch_add(1, std::memory_order_release); });
  }
  ASSERT_TRUE(wait_for([&] { return hits.load() == 16; }));
}

TEST(ThreadPoolTest, WorkerAdoptsSubmitterTraceContext) {
  obs::reset_events();
  obs::set_trace_enabled(true);
  std::atomic<std::uint64_t> seen{0};
  std::atomic<bool> ran{false};
  std::uint64_t expected = 0;
  {
    const obs::Span span("pool_context_test");
    expected = obs::current_context().trace_id;
    ASSERT_NE(expected, 0u);
    ThreadPool::shared().submit([&seen, &ran] {
      seen.store(obs::current_context().trace_id, std::memory_order_relaxed);
      ran.store(true, std::memory_order_release);
    });
    ASSERT_TRUE(wait_for([&] { return ran.load(std::memory_order_acquire); }));
  }
  obs::set_trace_enabled(false);
  obs::reset_events();
  EXPECT_EQ(seen.load(), expected) << "worker did not join the submitter's trace";
}

TEST(ThreadPoolTest, RunBatchTasksShareTheCallersTrace) {
  obs::reset_events();
  obs::set_trace_enabled(true);
  constexpr std::size_t kTasks = 24;
  std::vector<std::uint64_t> seen(kTasks, 0);
  std::uint64_t expected = 0;
  {
    const obs::Span span("pool_batch_trace");
    expected = obs::current_context().trace_id;
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
      tasks.push_back([&seen, i] { seen[i] = obs::current_context().trace_id; });
    }
    ThreadPool::shared().run_batch(std::move(tasks), 0);
  }
  obs::set_trace_enabled(false);
  obs::reset_events();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(seen[i], expected) << "task " << i;
  }
}

TEST(ThreadPoolTest, IdleWorkerStealsFromSiblingDeque) {
  // Deterministic imbalance on a private 2-worker pool: occupy both workers
  // with gate tasks, queue four quick tasks (round-robin lands two per
  // deque), then free exactly one worker.  It must drain its own deque and
  // steal the other's two tasks -- the blocked worker can't.
  obs::set_enabled(true);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t steal_before = registry.counter_value("pool.steal");
  const std::uint64_t tasks_before = registry.counter_value("pool.tasks");
  {
    ThreadPool pool(2);
    std::atomic<int> held{0};
    std::atomic<bool> release_a{false};
    std::atomic<bool> release_b{false};
    for (std::atomic<bool>* release : {&release_a, &release_b}) {
      pool.submit([&held, release] {
        held.fetch_add(1, std::memory_order_relaxed);
        while (!release->load(std::memory_order_acquire)) std::this_thread::sleep_for(1ms);
      });
    }
    ASSERT_TRUE(wait_for([&] { return held.load() == 2; }));

    std::atomic<int> done{0};
    for (int i = 0; i < 4; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    release_a.store(true, std::memory_order_release);
    ASSERT_TRUE(wait_for([&] { return done.load() == 4; }));
    release_b.store(true, std::memory_order_release);
  }  // joins the pool
  obs::set_enabled(false);
  EXPECT_GE(registry.counter_value("pool.steal") - steal_before, 2u);
  // 2 gates + 4 tasks; >= because the shared pool's counters are the same
  // named instruments and a stray drain job from an earlier batch may land
  // while metrics are on here.
  EXPECT_GE(registry.counter_value("pool.tasks") - tasks_before, 6u);
}

TEST(ThreadPoolTest, PoolInstrumentsAccountForSubmissions) {
  obs::set_enabled(true);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t submitted_before = registry.counter_value("pool.submitted");
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  ASSERT_TRUE(wait_for([&] { return hits.load() == 8; }));
  obs::set_enabled(false);
  EXPECT_EQ(registry.counter_value("pool.submitted") - submitted_before, 8u);
  // The queue-depth gauge was touched by the submissions (its last-written
  // level depends on drain timing; existence is the contract).
  const auto gauges = registry.gauge_values();
  EXPECT_TRUE(gauges.count("pool.queue_depth"));
}

TEST(ThreadPoolTest, StressConcurrentBatchesAndSubmits) {
  // TSan fodder (-DADA_SANITIZE=thread): several threads drive the shared
  // pool at once, mixing nested batches and detached submits, so every
  // steal/sleep/wake handoff gets exercised under contention.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  constexpr int kTasksPerBatch = 8;
  std::atomic<int> batch_hits{0};
  std::atomic<int> submit_hits{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < kTasksPerBatch; ++i) {
          tasks.push_back(
              [&batch_hits] { batch_hits.fetch_add(1, std::memory_order_relaxed); });
        }
        ThreadPool::shared().run_batch(std::move(tasks), 0);
        ThreadPool::shared().submit(
            [&submit_hits] { submit_hits.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(batch_hits.load(), kThreads * kRounds * kTasksPerBatch);
  ASSERT_TRUE(wait_for([&] { return submit_hits.load() == kThreads * kRounds; }));
}

}  // namespace
}  // namespace ada
