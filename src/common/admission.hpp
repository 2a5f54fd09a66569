// Per-key admission windows: a bounded in-flight budget per resource.
//
// The scatter-gather retriever fans extent reads onto the shared thread
// pool, but an unbounded fan-out would let one query swamp a single backend
// (or, in a real deployment, a single PVFS server) with every outstanding
// request.  AdmissionWindow bounds the number of in-flight operations *per
// key* (backend id, server id, tenant id): acquire() blocks until the key's
// window has a free slot, release() frees it.
//
// Wakeup discipline: each key owns its own lock and a FIFO queue of
// waiters, each with a private condition variable.  release() hands the
// freed slot directly to the OLDEST waiter of that key and notifies exactly
// that one waiter -- one wakeup per release, never a thundering herd across
// every key (an every-waiter-every-release broadcast would scale as waiters
// x releases).
// Because the slot is handed off rather than returned to a free pool, a
// late acquire() can never barge past a queued waiter: grants are strictly
// FIFO per key.
//
// Deadlock discipline: a holder of a slot must never block on acquiring
// another slot of the same window.  The retriever acquires exactly one slot
// per task, does its I/O, and releases -- so a blocked acquire() is always
// waiting on a task that is actively running, and the window drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/check.hpp"

namespace ada {

class AdmissionWindow {
 public:
  /// `keys` resources, each admitting at most `depth` concurrent holders.
  /// depth == 0 means unbounded (acquire never blocks).
  AdmissionWindow(std::size_t keys, unsigned depth) : depth_(depth), keys_(keys) {
    if (depth_ != 0) slots_ = std::make_unique<Key[]>(keys_);
  }

  AdmissionWindow(const AdmissionWindow&) = delete;
  AdmissionWindow& operator=(const AdmissionWindow&) = delete;

  /// Block until key's window has room, then take a slot.  Returns the
  /// number of times this call had to wait (0 = admitted immediately).
  /// Waiters are granted strictly in arrival order.
  std::uint64_t acquire(std::size_t key) {
    if (slots_ == nullptr) return 0;
    ADA_CHECK(key < keys_);
    Key& slot = slots_[key];
    std::unique_lock<std::mutex> lock(slot.mutex);
    if (slot.in_flight < depth_ && slot.waiters.empty()) {
      ++slot.in_flight;
      return 0;
    }
    Waiter self;
    slot.waiters.push_back(&self);
    std::uint64_t waits = 0;
    while (!self.granted) {
      ++waits;
      self.cv.wait(lock);
    }
    // The releaser handed its slot to us: in_flight already accounts for it.
    return waits;
  }

  void release(std::size_t key) {
    if (slots_ == nullptr) return;
    ADA_CHECK(key < keys_);
    Key& slot = slots_[key];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    ADA_CHECK(slot.in_flight > 0);
    if (slot.waiters.empty()) {
      --slot.in_flight;
      return;
    }
    // Hand the slot to the oldest waiter of THIS key: exactly one wakeup,
    // FIFO grant.  in_flight is unchanged -- the slot never went free.
    Waiter* next = slot.waiters.front();
    slot.waiters.pop_front();
    next->granted = true;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    next->cv.notify_one();
  }

  /// Slots currently held on `key` (test/diagnostic hook).
  unsigned in_flight(std::size_t key) const {
    if (slots_ == nullptr) return 0;
    ADA_CHECK(key < keys_);
    const std::lock_guard<std::mutex> lock(slots_[key].mutex);
    return slots_[key].in_flight;
  }

  /// Waiters currently queued on `key` (test/diagnostic hook).
  std::size_t waiting(std::size_t key) const {
    if (slots_ == nullptr) return 0;
    ADA_CHECK(key < keys_);
    const std::lock_guard<std::mutex> lock(slots_[key].mutex);
    return slots_[key].waiters.size();
  }

  /// Total waiter notifications issued: exactly one per slot handoff, so
  /// this never exceeds the number of releases (the regression contract for
  /// the old notify-everyone-on-every-release behavior).
  std::uint64_t wakeups() const noexcept { return wakeups_.load(std::memory_order_relaxed); }

 private:
  /// One queued acquire(), parked on its own condition variable so a
  /// release can wake precisely this waiter.  Lives on the acquirer's
  /// stack; the key mutex guards its lifetime (the releaser still holds
  /// the mutex when it notifies, and acquire cannot return -- and destroy
  /// the Waiter -- until it reacquires that mutex and observes granted).
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;
  };

  /// One admission key: private lock domain + FIFO waiter queue.
  struct Key {
    mutable std::mutex mutex;
    std::deque<Waiter*> waiters;
    unsigned in_flight = 0;
  };

  const unsigned depth_;
  const std::size_t keys_;
  std::unique_ptr<Key[]> slots_;
  std::atomic<std::uint64_t> wakeups_{0};
};

}  // namespace ada
