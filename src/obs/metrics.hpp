// Process-wide metrics: named counters, gauges and log-scale histograms.
//
// The observability substrate for the ingest/query hot paths.  Instruments
// live in a global Registry and are updated through lock-free std::atomic
// fast paths, so the shared pool's workers (common/thread_pool.hpp) can
// hammer the same counter without contention or lost increments.  Creation
// (name -> instrument) takes a mutex once; hot call sites cache the returned
// reference in a function-local static.  Registry::reset() zeroes values but
// never invalidates references, so cached pointers stay good for the life of
// the process.
//
// Everything honors a global enabled() switch: with metrics off the fast
// paths reduce to one relaxed atomic load, and the differential e2e harness
// (tests/e2e_pipeline_test.cpp) proves the data path is byte-identical
// either way.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ada::obs {

/// Global metrics switch.  Off by default: libraries pay one relaxed load
/// per instrument call until a tool, bench or test turns observation on.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonically increasing event/byte count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    if (!enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (queue depths, configured sizes).
class Gauge {
 public:
  void set(double value) noexcept {
    if (!enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void add(double delta) noexcept {
    if (!enabled()) return;
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta, std::memory_order_relaxed)) {
    }
  }

  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale (power-of-two bucket) histogram of non-negative integers.
/// Bucket b >= 1 covers [2^(b-1), 2^b - 1]; bucket 0 holds exact zeros.
///
/// Quantiles interpolate linearly inside the matched bucket.  The accuracy
/// contract (unit-tested in tests/obs_test.cpp):
///   * bucket 0 is exact: if the quantile falls on a zero observation the
///     result is exactly 0;
///   * otherwise the result lies in the matched bucket's value range
///     [2^(b-1), 2^b - 1] clamped to the observed max, so the relative
///     error against the true quantile is bounded by a factor of two (the
///     bucket width) -- the right trade for latency-in-nanoseconds and
///     bytes-per-op distributions;
///   * an all-identical stream of value v == 2^(b-1) (a lower bucket edge)
///     therefore reports every quantile in [v, min(2v - 1, max)] == [v, v]
///     after the max clamp -- edges degrade gracefully, never past max;
///   * percentile(1.0) is always <= max(), and monotone in q.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t value) noexcept {
    if (!enabled()) return;
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  double mean() const noexcept;

  /// Approximate value at quantile q in [0, 1] (0 when empty).
  double percentile(double q) const noexcept;

  std::uint64_t bucket_count(std::size_t bucket) const noexcept {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

  static std::size_t bucket_of(std::uint64_t value) noexcept {
    return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Name -> instrument directory.  Lookup is idempotent: the first call
/// creates, every later call returns the same object.
class Registry {
 public:
  /// The process-wide registry every instrumented module reports into.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Current value by name; 0 when the instrument was never created.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  std::size_t counter_count() const;

  /// Zero every instrument.  References handed out earlier remain valid.
  void reset();

  /// Stable (sorted) copies of all current values, for the exporters.
  std::map<std::string, std::uint64_t> counter_values() const;
  std::map<std::string, double> gauge_values() const;
  std::map<std::string, const Histogram*> histogram_entries() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Quantile over an explicit log-scale bucket-count array (the Histogram
/// bucket shape), with the same interpolation and accuracy contract as
/// Histogram::percentile.  `count` is the total observation count in
/// `buckets`; `max_value` clamps the top end (pass the observed max, or the
/// cumulative max as an upper bound for windowed deltas).  Shared by
/// Histogram::percentile and the telemetry sampler's windowed percentiles
/// (obs/telemetry.hpp), which diffs two bucket snapshots and asks for the
/// quantile of just the window.
double percentile_from_buckets(const std::array<std::uint64_t, 65>& buckets,
                               std::uint64_t count, double q,
                               std::uint64_t max_value) noexcept;

/// Hot-path helpers: cache the instrument in a function-local static so the
/// per-event cost is one branch + one relaxed atomic op.
#define ADA_OBS_COUNT(name_literal, delta)                                    \
  do {                                                                        \
    if (::ada::obs::enabled()) {                                              \
      static ::ada::obs::Counter& ada_obs_counter__ =                         \
          ::ada::obs::Registry::global().counter(name_literal);               \
      ada_obs_counter__.add(static_cast<std::uint64_t>(delta));               \
    }                                                                         \
  } while (false)

#define ADA_OBS_OBSERVE(name_literal, value)                                  \
  do {                                                                        \
    if (::ada::obs::enabled()) {                                              \
      static ::ada::obs::Histogram& ada_obs_hist__ =                          \
          ::ada::obs::Registry::global().histogram(name_literal);             \
      ada_obs_hist__.observe(static_cast<std::uint64_t>(value));              \
    }                                                                         \
  } while (false)

}  // namespace ada::obs
