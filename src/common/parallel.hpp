// First-failure batches on the shared pool (common/thread_pool.hpp), for
// the piece reads and the VFS untagged read.  Failures travel through the
// jobs' captures (this codebase uses Result<>, not exceptions).
#pragma once

#include <atomic>
#include <limits>
#include <span>

#include "common/thread_pool.hpp"

namespace ada {

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
  ThreadPool::shared().run(order.size(), threads, [&](std::size_t k) {
    const std::size_t index = order[k];
    if (index > first_failure.load() || job(index)) return;
    std::size_t seen = first_failure.load();
    while (index < seen && !first_failure.compare_exchange_weak(seen, index)) {
    }
  });
}

}  // namespace ada
