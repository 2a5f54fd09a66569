// Persistent thread pool for the ingest and read hot paths.
//
// One primitive: run(count, max_parallelism, job) calls job(i) for every i
// in [0, count).  The batch lives in run()'s stack frame (an atomic next
// index, a helper cap, a joined-helper count, the caller's TraceContext, a
// non-allocating reference to `job`) and sits in the pool's list of open
// batches while its caller drains it.  An idle worker joins the first open
// batch with a free helper slot, adopts its trace context (spans opened in
// a job join the caller's trace) and claims indices until none is left.
// The caller claims indices too, so a job may call run() again (frame
// ranges nested under file-level batches) without deadlock.  Then the
// caller unlinks the batch and waits until every helper that joined has
// left: no worker touches a finished batch, and no worker frees anything
// the caller allocated.  Failures travel through the jobs' captures.
//
// Counters (behind the global obs switch): pool.submitted (batches offered
// to the workers), pool.tasks (helper joins), pool.busy_ns (helper time).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace ada {

class ThreadPool {
 public:
  /// `workers` == 0 means hardware concurrency (minimum 1).
  explicit ThreadPool(unsigned workers = 0) {
    const unsigned count =
        std::max(workers != 0 ? workers : std::thread::hardware_concurrency(), 1u);
    threads_.reserve(count);
    for (unsigned w = 0; w < count; ++w) threads_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  /// The process-wide pool every ingest and read path shares.  Created on
  /// first use, joined at process exit.
  static ThreadPool& shared() {
    static ThreadPool pool;
    return pool;
  }

  unsigned worker_count() const noexcept { return static_cast<unsigned>(threads_.size()); }

  /// Jobs a concurrency budget of `threads` runs at once: the budget
  /// itself, or one per pool worker plus the caller for 0.
  unsigned budget(unsigned threads) const noexcept {
    return threads != 0 ? threads : worker_count() + 1;
  }

  /// Call job(i) for every i in [0, count), with at most `max_parallelism`
  /// calls in flight (0 = one per pool worker plus the caller).  Indices are
  /// claimed in increasing order, on the caller and on the workers that
  /// join; with no room for a helper they all run inline, in order.
  /// Returns when every call has returned.
  template <class Job>
  void run(std::size_t count, unsigned max_parallelism, const Job& job) {
    const std::size_t helpers = std::min<std::size_t>(
        {budget(max_parallelism) - 1, threads_.size(), count == 0 ? 0 : count - 1});
    if (helpers == 0) {
      for (std::size_t i = 0; i < count; ++i) job(i);
      return;
    }
    Batch batch{count, helpers, &job,
                [](const void* fn, std::size_t i) { (*static_cast<const Job*>(fn))(i); }};
    if (obs::trace_enabled()) batch.context = obs::current_context();
    std::unique_lock<std::mutex> lock(mutex_);
    Batch** link = &open_;
    while (*link != nullptr) link = &(*link)->next_open;
    *link = &batch;
    lock.unlock();
    for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();  // one per helper slot
    ADA_OBS_COUNT("pool.submitted", 1);
    batch.drain();
    lock.lock();
    for (link = &open_; *link != &batch;) link = &(*link)->next_open;
    *link = batch.next_open;
    batch.helpers_left.wait(lock, [&] { return batch.joined == 0; });
  }

 private:
  /// One run() call's state, on its caller's stack.  `joined` and
  /// `next_open` are guarded by the pool mutex.
  struct Batch {
    void drain() {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
        call(job, i);
      }
    }
    bool open_to_helper() const {
      return joined < helper_cap && next.load(std::memory_order_relaxed) < count;
    }

    const std::size_t count;
    const std::size_t helper_cap;
    const void* const job;
    void (*const call)(const void*, std::size_t);
    obs::TraceContext context{};
    std::atomic<std::size_t> next{0};
    std::size_t joined = 0;
    Batch* next_open = nullptr;
    std::condition_variable helpers_left{};
  };

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      Batch* batch = open_;
      while (batch != nullptr && !batch->open_to_helper()) batch = batch->next_open;
      if (batch == nullptr) {
        if (stop_) return;
        wake_.wait(lock);
        continue;
      }
      ++batch->joined;
      lock.unlock();
      ADA_OBS_COUNT("pool.tasks", 1);
      const obs::ScopedTraceContext adopt(batch->context);
      const Stopwatch busy;
      batch->drain();
      ADA_OBS_COUNT("pool.busy_ns", busy.elapsed_seconds() * 1e9);
      lock.lock();
      // Notified under the mutex: the caller cannot return, and end the
      // batch's lifetime, until this helper has released it.
      if (--batch->joined == 0) batch->helpers_left.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  Batch* open_ = nullptr;  // open batches, oldest first
  bool stop_ = false;
};

}  // namespace ada
