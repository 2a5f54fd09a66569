// Minimal task parallelism for the ingest and read paths.
//
// ADA's storage-node pre-processing is embarrassingly parallel across
// trajectory files (one .pdb guides multiple .xtc phases, each ingested
// independently) and, since the frame-parallel pipeline, across the frames
// inside each file.  parallel_run executes a batch of independent tasks on
// the shared persistent work-stealing pool (common/thread_pool.hpp) --
// nothing spawns per-batch threads anymore.  Exceptions are not used in
// this codebase (Result<> carries failures), so tasks communicate through
// their captures.
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"

namespace ada {

/// Run every task, using up to `threads` concurrent workers (0 = one per
/// pool worker plus the caller).  Blocks until all tasks finish.  Tasks must
/// be independent; they run in unspecified order on unspecified threads, and
/// adopt the submitting thread's trace context (spans opened inside a task
/// join the caller's trace).
inline void parallel_run(std::vector<std::function<void()>> tasks, unsigned threads = 0) {
  ThreadPool::shared().run_batch(std::move(tasks), threads);
}

/// Run job(i) for every index in `order` with at most `threads` jobs in
/// flight: 0 follows the pool (one per worker plus the caller), 1 runs them
/// inline on the caller in `order`, and so does a single job.
/// job(i) returns false when it failed.  A job whose index is above a failed
/// one is skipped unless it already started, so the lowest failing index
/// always runs: a serial run stops at its first failure exactly like a loop,
/// and a parallel run still reaches the failure that loop would stop on.
template <class Job>
void run_until_failure(std::span<const std::size_t> order, unsigned threads, Job job) {
  std::atomic<std::size_t> first_failure{std::numeric_limits<std::size_t>::max()};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(order.size());
  for (const std::size_t index : order) {
    tasks.push_back([&first_failure, &job, index] {
      if (index > first_failure.load()) return;
      if (job(index)) return;
      std::size_t seen = first_failure.load();
      while (index < seen && !first_failure.compare_exchange_weak(seen, index)) {
      }
    });
  }
  ThreadPool::shared().run_batch(std::move(tasks), threads);
}

}  // namespace ada
