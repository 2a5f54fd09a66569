// Persistent work-stealing thread pool for the ingest hot path.
//
// parallel_run used to spawn fresh std::threads for every batch; at frame
// granularity that tax dominates the work.  ThreadPool keeps one set of
// workers alive for the life of the process (ThreadPool::shared()), gives
// each worker its own deque, and lets idle workers steal from the back of
// their siblings' deques, so uneven frame ranges rebalance without a global
// queue bottleneck.
//
// Submitted tasks capture the submitting thread's TraceContext and adopt it
// on the worker, so spans opened inside a task join the caller's trace
// (exactly the guarantee parallel_run gave).  Exceptions are not used in
// this codebase (Result<> carries failures); tasks communicate through
// their captures.
//
// run_batch() is the bulk interface: it drains a batch of independent tasks
// under a parallelism cap, with the calling thread participating.  A thread
// already running on the pool may call run_batch() again (frame-level
// parallelism nested under file-level parallelism); the caller always drains
// the batch itself when no worker is free, so nesting cannot deadlock.
//
// Observability (all behind the global obs switches, one relaxed load when
// off):  counters pool.tasks / pool.steal / pool.submitted, gauge
// pool.queue_depth, counter pool.busy_ns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
    unsigned count = workers != 0 ? workers : std::thread::hardware_concurrency();
    if (count == 0) count = 1;
    workers_.reserve(count);
    for (unsigned w = 0; w < count; ++w) workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(count);
    for (unsigned w = 0; w < count; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~ThreadPool() {
    stop_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
    }
    sleep_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool every ingest path shares.  Created on first use,
  /// joined at process exit.
  static ThreadPool& shared() {
    static ThreadPool pool;
    return pool;
  }

  unsigned worker_count() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Tasks a concurrency budget of `threads` runs at once: the budget
  /// itself, or one per pool worker plus the caller for 0.
  unsigned budget(unsigned threads) const noexcept {
    return threads != 0 ? threads : worker_count() + 1;
  }

  /// Queue one task.  The worker adopts the submitting thread's trace
  /// context, so spans opened inside `fn` join the caller's trace.
  void submit(std::function<void()> fn) {
    Task task;
    task.fn = std::move(fn);
    if (obs::trace_enabled()) task.context = obs::current_context();
    const std::size_t home = round_robin_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    {
      std::lock_guard<std::mutex> lock(workers_[home]->mutex);
      workers_[home]->tasks.push_back(std::move(task));
    }
    const std::size_t depth = pending_.fetch_add(1, std::memory_order_release) + 1;
    ADA_OBS_COUNT("pool.submitted", 1);
    if (obs::enabled()) {
      static obs::Gauge& queue_depth = obs::Registry::global().gauge("pool.queue_depth");
      queue_depth.set(static_cast<double>(depth));
    }
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
    }
    sleep_cv_.notify_one();
  }

  /// Run every task, with at most `max_parallelism` tasks of this batch in
  /// flight at once (0 = one per pool worker plus the caller).  Blocks until
  /// all tasks finish; the calling thread participates, so a pool worker may
  /// nest run_batch() without deadlocking.  Tasks run in unspecified order
  /// on unspecified threads.
  void run_batch(std::vector<std::function<void()>> tasks, unsigned max_parallelism = 0) {
    if (tasks.empty()) return;
    const unsigned drainers =
        static_cast<unsigned>(std::min<std::size_t>(budget(max_parallelism), tasks.size()));
    if (drainers <= 1) {
      for (auto& task : tasks) task();
      return;
    }

    auto state = std::make_shared<BatchState>();
    state->tasks = std::move(tasks);
    auto drain = [state] {
      while (true) {
        const std::size_t index = state->next.fetch_add(1, std::memory_order_relaxed);
        if (index >= state->tasks.size()) return;
        state->tasks[index]();
        if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->tasks.size()) {
          std::lock_guard<std::mutex> lock(state->mutex);
          state->cv.notify_all();
        }
      }
    };
    for (unsigned w = 1; w < drainers; ++w) submit(drain);
    drain();  // the calling thread participates
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->tasks.size();
    });
  }

 private:
  struct Task {
    std::function<void()> fn;
    obs::TraceContext context;
  };

  struct Worker {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  /// One batch's shared drain state.  Stray drain jobs that wake after the
  /// batch finished exit through the `next` bound; the shared_ptr keeps the
  /// state alive for them.
  struct BatchState {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
  };

  /// Pop from the home deque's front, else steal from a sibling's back.
  bool try_take(std::size_t home, Task& out) {
    {
      Worker& own = *workers_[home];
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.tasks.empty()) {
        out = std::move(own.tasks.front());
        own.tasks.pop_front();
        pending_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    for (std::size_t i = 1; i < workers_.size(); ++i) {
      Worker& victim = *workers_[(home + i) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        out = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        pending_.fetch_sub(1, std::memory_order_relaxed);
        ADA_OBS_COUNT("pool.steal", 1);
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t index) {
    while (true) {
      Task task;
      if (try_take(index, task)) {
        ADA_OBS_COUNT("pool.tasks", 1);
        const obs::ScopedTraceContext adopt(task.context);
        if (obs::enabled()) {
          const Stopwatch busy;
          task.fn();
          ADA_OBS_COUNT("pool.busy_ns", busy.elapsed_seconds() * 1e9);
        } else {
          task.fn();
        }
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleep_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_acquire) != 0;
      });
      if (stop_.load(std::memory_order_acquire) &&
          pending_.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> round_robin_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace ada
