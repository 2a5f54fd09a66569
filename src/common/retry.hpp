// Bounded retry with exponential backoff + deterministic jitter.
//
// Transient storage errors (kIoError, kUnavailable, kResourceExhausted) are
// retried up to max_attempts with backoff initial * multiplier^(attempt-1),
// jittered by a seeded Rng so sleep sequences are reproducible; every other
// error code is permanent and returns immediately.  An optional per-op
// timeout converts exhaustion-by-time into kDeadlineExceeded.  retry_sync
// drives real (wall-clock) I/O such as the PLFS dropping paths; the PVFS
// client path reimplements the same policy on the simulated clock
// (pvfs/pvfs.cpp) so retries cost sim time, not test time.
//
// Observability: `retry.attempts` counts re-executions (not first tries),
// `retry.exhausted` counts give-ups, and each backoff sleep is a "retry"
// span so retries show up in the span tree and on request timelines.
#pragma once

#include <string_view>
#include <thread>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/warn.hpp"

namespace ada {

struct RetryPolicy {
  int max_attempts = 4;              // total tries, including the first
  double initial_backoff_s = 0.001;  // before the first retry
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.25;  // each sleep scaled by U[1-j, 1+j]
  double op_timeout_s = 0.0;      // whole-op deadline; 0 = none
  std::uint64_t seed = 0x7e7;     // jitter Rng seed (deterministic sleeps)

  static RetryPolicy none() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }

  /// Backoff before retry number `retry` (1-based), jittered.
  double backoff_for(int retry, Rng& rng) const {
    double backoff = initial_backoff_s;
    for (int i = 1; i < retry; ++i) backoff *= backoff_multiplier;
    if (jitter_fraction > 0.0) {
      backoff *= rng.uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
    }
    return backoff;
  }
};

/// True for error codes worth retrying; everything else is permanent.
constexpr bool is_transient(ErrorCode code) noexcept {
  return code == ErrorCode::kIoError || code == ErrorCode::kUnavailable ||
         code == ErrorCode::kResourceExhausted;
}

/// Run `fn` (returning Status or Result<T>) under `policy`.  `op` names the
/// operation in error messages and tags each "retry" span (the span copies
/// it as its tag).
template <typename Fn>
auto retry_sync(const char* op, const RetryPolicy& policy, Fn&& fn)
    -> decltype(fn()) {
  Rng rng(policy.seed);
  const Stopwatch deadline;
  for (int attempt = 1;; ++attempt) {
    auto result = fn();
    if (result.is_ok() || !is_transient(result.error().code())) return result;
    if (attempt >= policy.max_attempts) {
      ADA_OBS_COUNT("retry.exhausted", 1);
      obs::warn(obs::WarnSeverity::kError, "retry",
                std::string(op) + " gave up after " + std::to_string(attempt) +
                    " attempt(s): " + result.error().to_string());
      return result;
    }
    const double backoff = policy.backoff_for(attempt, rng);
    if (policy.op_timeout_s > 0.0 &&
        deadline.elapsed_seconds() + backoff >= policy.op_timeout_s) {
      ADA_OBS_COUNT("retry.exhausted", 1);
      obs::warn(obs::WarnSeverity::kError, "retry",
                std::string(op) + " hit the " + std::to_string(policy.op_timeout_s) +
                    "s op timeout after " + std::to_string(attempt) + " attempt(s)");
      return Error(ErrorCode::kDeadlineExceeded,
                   std::string(op) + " exceeded " + std::to_string(policy.op_timeout_s) +
                       "s after " + std::to_string(attempt) + " attempt(s): " +
                       result.error().to_string());
    }
    ADA_OBS_COUNT("retry.attempts", 1);
    const obs::Span span("retry", op);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

}  // namespace ada
