// AdaService: the multi-tenant serving layer over one shared Ada middleware.
//
// Everything below Ada models one user on a private mount; the paper's
// deployment target is the opposite -- one acquirer in front of many VMD
// sessions replaying the same trajectories (ROADMAP open item 1).  This
// layer adds the three things a shared deployment needs and nothing else:
//
//   * Request coalescing.  N concurrent readers of the same (logical_name,
//     tag) -- or the same range selection -- join one in-flight backend
//     fill and share the refcounted cache image, single-flight keyed on the
//     container's mutation generation observed at join time.  A write
//     racing the fill changes the generation, so a late joiner starts a
//     second fill instead of sharing bytes that may predate the write:
//     duplicate work is possible under races, a stale share is not.
//
//   * Per-tenant admission control.  Each tenant gets its own lane (a
//     bounded in-flight count), an optional in-memory response-byte
//     budget, and an I/O byte quantum consumed by a deficit-round-robin
//     scheduler (charged in arrears with the actual response size), so one
//     hot tenant replaying a big subset cannot starve a cold tenant's first
//     frame.
//
//   * Backpressure.  Per-tenant queues are bounded; a full queue rejects
//     the request immediately with a typed kOverloaded error instead of
//     queueing unboundedly.  Degraded and tail queries flow through the
//     same lanes -- there is no side door around admission.
//
// Threading: submit() never blocks on backend I/O (it enqueues or rejects);
// a fixed worker pool drains the queues.  Callbacks run on worker threads
// and must not block on another submit() of the same service at saturation.
//
// Overload semantics and the tenancy model are documented in
// docs/serving.md; serve.* counters in docs/observability.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ada/middleware.hpp"
#include "common/result.hpp"

namespace ada::serve {

/// Per-tenant resource limits.  Zero means "unbounded" for every field
/// except io_quantum_bytes (the DRR share; zero falls back to the default).
struct TenantQuota {
  /// Concurrent requests in service for this tenant (its lane's bound).
  unsigned max_inflight = 4;
  /// Queued-but-not-started requests before submit() sheds with kOverloaded.
  std::size_t queue_capacity = 64;
  /// Response bytes allowed in flight at once; a request whose (learned)
  /// size alone exceeds this is rejected with kResourceExhausted.  One
  /// request is always allowed through, so a tenant can never wedge itself.
  std::uint64_t memory_bytes = 0;
  /// Deficit-round-robin share: bytes of backend I/O this tenant may
  /// consume per scheduling round relative to other backlogged tenants.
  std::uint64_t io_quantum_bytes = 4ull << 20;
};

struct ServeConfig {
  /// Worker threads draining the request queues.
  unsigned workers = 4;
  /// Start with dispatch paused (tests pre-load queues, then resume()).
  bool start_paused = false;
  /// Quota for tenants not listed in `tenant_quotas`.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
};

enum class RequestKind { kSubset, kRange, kTail, kDegraded };

struct Request {
  std::string tenant = "default";
  std::string logical_name;
  core::Tag tag;                                 // unused for kDegraded
  RequestKind kind = RequestKind::kSubset;
  core::FrameRange range;                        // kRange only
  std::uint64_t from_frame = 0;                  // kTail only
};

struct Response {
  /// The payload: a refcounted RAW image shared with the cache and with
  /// every coalesced reader (kDegraded: the surviving subsets concatenated
  /// in tag order).  Never null on success; may hold zero bytes (an empty
  /// tail poll).
  core::QueryCache::Image image;
  /// This response shared another request's backend fill.
  bool coalesced = false;
  std::uint64_t from_frame = 0;                  // kTail
  std::uint64_t frames = 0;                      // kTail
  bool sealed = false;                           // kTail
  std::vector<core::Ada::TagFailure> failed_tags;  // kDegraded survivors' complement
};

struct TenantStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t bytes_served = 0;
  std::size_t queue_peak = 0;
  unsigned inflight_peak = 0;
};

struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t coalesced = 0;
  /// Backend fills actually executed (coalesced joiners excluded).
  std::uint64_t fills = 0;
  /// Deficit-recredit rounds the scheduler ran (fairness was exercised).
  std::uint64_t drr_rounds = 0;
  std::uint64_t bytes_served = 0;
  std::map<std::string, TenantStats> tenants;
};

class AdaService {
 public:
  using Callback = std::function<void(Result<Response>)>;

  /// The service serves queries through `ada`, which must outlive it.
  /// Arm AdaConfig::cache_bytes on `ada`: coalescing works without the
  /// cache, but only a cached fill is shareable with later requests.
  AdaService(core::Ada& ada, ServeConfig config);
  ~AdaService();

  AdaService(const AdaService&) = delete;
  AdaService& operator=(const AdaService&) = delete;

  /// Enqueue a request.  Returns immediately: ok() means `done` will be
  /// invoked exactly once from a worker thread; an error means it never
  /// will (kOverloaded: tenant queue full; kResourceExhausted: the request
  /// cannot fit the tenant's memory quota; kUnavailable: stopping).
  Status submit(Request request, Callback done);

  /// submit() + wait: the blocking convenience for tools and tests.
  Result<Response> execute(const Request& request);

  /// Release a start_paused service's dispatcher.
  void resume();

  /// Stop accepting work, fail queued requests with kUnavailable, finish
  /// in-flight ones, join the workers.  Idempotent; the destructor calls it.
  void stop();

  ServeStats stats() const;

 private:
  struct Tenant;

  struct Job {
    Request request;
    Callback done;
    Tenant* tenant = nullptr;
    std::string key;                 // request identity: coalescing + size learning
    std::uint64_t expected_bytes = 0;  // charged against the memory quota while in flight
    bool coalesced = false;
  };
  using JobPtr = std::shared_ptr<Job>;

  /// One in-flight backend fill that identical requests join.
  struct Flight {
    std::uint64_t generation = 0;
    std::vector<JobPtr> joiners;
  };

  struct Tenant {
    Tenant(std::string tenant_name, const TenantQuota& q)
        : name(std::move(tenant_name)), quota(q) {
      if (quota.io_quantum_bytes == 0) quota.io_quantum_bytes = TenantQuota{}.io_quantum_bytes;
      deficit = static_cast<std::int64_t>(quota.io_quantum_bytes);
    }
    std::string name;
    TenantQuota quota;
    std::deque<JobPtr> queue;
    unsigned inflight = 0;
    std::uint64_t inflight_bytes = 0;
    std::int64_t deficit = 0;
    /// Last observed response size per request key: the admission
    /// controller's size oracle (0 / absent = unknown, admitted on faith).
    std::map<std::string, std::uint64_t> last_bytes;
    TenantStats stats;
  };

  Tenant& tenant_for(const std::string& name);  // caller holds mu_
  JobPtr pick_next(Tenant** picked_tenant);     // caller holds mu_
  void publish_queue_depth() const;             // caller holds mu_
  void worker_loop();
  void run_job(Tenant& tenant, const JobPtr& job);
  Result<Response> backend_call(const Request& request) const;
  void finish_jobs(const std::vector<std::pair<Tenant*, JobPtr>>& jobs,
                   const Result<Response>& result);

  core::Ada& ada_;
  ServeConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool paused_ = false;
  bool stopping_ = false;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::vector<Tenant*> tenant_order_;  // DRR rotation order (insertion order)
  std::size_t rr_pos_ = 0;
  std::map<std::string, std::shared_ptr<Flight>> flights_;

  std::uint64_t fills_ = 0;
  std::uint64_t drr_rounds_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace ada::serve
