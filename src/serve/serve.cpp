#include "serve/serve.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::serve {

namespace {

// Request identity: the single-flight key and the admission controller's
// size-learning key.  '\x01'..'\x03' cannot appear in a label tag (the label
// file is line-oriented text), so the kinds can never collide.
std::string request_key(const Request& request) {
  std::string key = request.logical_name;
  key += '\0';
  switch (request.kind) {
    case RequestKind::kSubset:
      key += request.tag;
      break;
    case RequestKind::kRange:
      key += request.tag;
      key += '\x01';
      key += std::to_string(request.range.begin) + ':' + std::to_string(request.range.end) +
             ':' + std::to_string(request.range.stride);
      break;
    case RequestKind::kTail:
      key += request.tag;
      key += '\x02';
      break;
    case RequestKind::kDegraded:
      key += '\x03';
      break;
  }
  return key;
}

bool coalescable(RequestKind kind) {
  // Tail polls advance a cursor and degraded queries aggregate per-tag
  // failures -- neither is an idempotent read of one immutable image, so
  // they ride the lanes without joining flights.
  return kind == RequestKind::kSubset || kind == RequestKind::kRange;
}

core::QueryCache::Image wrap(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

}  // namespace

AdaService::AdaService(core::Ada& ada, ServeConfig config)
    : ada_(ada), config_(std::move(config)), paused_(config_.start_paused) {
  if (config_.workers == 0) config_.workers = 1;
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AdaService::~AdaService() { stop(); }

AdaService::Tenant& AdaService::tenant_for(const std::string& name) {
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return *it->second;
  const auto quota_it = config_.tenant_quotas.find(name);
  const TenantQuota& quota =
      quota_it != config_.tenant_quotas.end() ? quota_it->second : config_.default_quota;
  auto tenant = std::make_unique<Tenant>(name, quota);
  Tenant& ref = *tenant;
  tenants_.emplace(name, std::move(tenant));
  tenant_order_.push_back(&ref);
  return ref;
}

void AdaService::publish_queue_depth() const {
  if (!obs::enabled()) return;
  static obs::Gauge& gauge = obs::Registry::global().gauge("serve.queue_depth");
  std::size_t depth = 0;
  for (const Tenant* tenant : tenant_order_) depth += tenant->queue.size();
  gauge.set(static_cast<double>(depth));
}

Status AdaService::submit(Request request, Callback done) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->done = std::move(done);
  job->key = request_key(job->request);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return unavailable("serve: service is stopping");
    Tenant& tenant = tenant_for(job->request.tenant);
    job->tenant = &tenant;
    // Hard memory-quota reject: a request whose learned size alone exceeds
    // the budget would never become dispatchable -- fail it now, typed.
    std::uint64_t known = 0;
    if (const auto it = tenant.last_bytes.find(job->key); it != tenant.last_bytes.end()) {
      known = it->second;
    }
    if (tenant.quota.memory_bytes != 0 && known > tenant.quota.memory_bytes) {
      ++tenant.stats.rejected_quota;
      ADA_OBS_COUNT("serve.rejected_quota", 1);
      return resource_exhausted("serve: tenant " + tenant.name + " response of " +
                                std::to_string(known) + " bytes exceeds the memory quota of " +
                                std::to_string(tenant.quota.memory_bytes) + " bytes");
    }
    // Backpressure: shed at the door instead of queueing unboundedly.
    if (tenant.quota.queue_capacity != 0 &&
        tenant.queue.size() >= tenant.quota.queue_capacity) {
      ++tenant.stats.rejected_overload;
      ADA_OBS_COUNT("serve.overloaded", 1);
      return overloaded("serve: tenant " + tenant.name + " queue is full (" +
                        std::to_string(tenant.quota.queue_capacity) + " pending)");
    }
    ++tenant.stats.accepted;
    tenant.queue.push_back(std::move(job));
    tenant.stats.queue_peak = std::max(tenant.stats.queue_peak, tenant.queue.size());
    publish_queue_depth();
  }
  ADA_OBS_COUNT("serve.requests", 1);
  work_cv_.notify_one();
  return Status::ok();
}

Result<Response> AdaService::execute(const Request& request) {
  std::promise<Result<Response>> promise;
  std::future<Result<Response>> future = promise.get_future();
  const Status accepted =
      submit(request, [&promise](Result<Response> result) { promise.set_value(std::move(result)); });
  if (!accepted.is_ok()) return accepted.error();
  return future.get();
}

void AdaService::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void AdaService::stop() {
  std::vector<JobPtr> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (Tenant* tenant : tenant_order_) {
      for (JobPtr& job : tenant->queue) orphans.push_back(std::move(job));
      tenant->queue.clear();
    }
    publish_queue_depth();
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  for (const JobPtr& job : orphans) {
    job->done(unavailable("serve: service stopped before dispatch"));
  }
}

AdaService::JobPtr AdaService::pick_next(Tenant** picked_tenant) {
  const std::size_t n = tenant_order_.size();
  if (n == 0) return nullptr;
  while (true) {
    bool deficit_blocked = false;
    for (std::size_t i = 0; i < n; ++i) {
      Tenant* tenant = tenant_order_[(rr_pos_ + i) % n];
      if (tenant->queue.empty()) continue;
      // Gate order matters: the deficit check runs before the in-flight
      // bound so a tenant blocked purely on its I/O share is visible below.
      if (tenant->deficit <= 0) {
        deficit_blocked = true;
        continue;
      }
      if (tenant->quota.max_inflight != 0 && tenant->inflight >= tenant->quota.max_inflight) {
        continue;
      }
      JobPtr job = tenant->queue.front();
      job->expected_bytes = 0;
      if (const auto it = tenant->last_bytes.find(job->key); it != tenant->last_bytes.end()) {
        job->expected_bytes = it->second;
      }
      // Memory gate: hold the request back while the known in-flight bytes
      // plus this one would overflow the budget -- but always admit into an
      // idle lane, so an oversized learned size can't wedge the tenant
      // (submit() already hard-rejects the truly unserveable ones).
      if (tenant->quota.memory_bytes != 0 && tenant->inflight > 0 &&
          tenant->inflight_bytes + job->expected_bytes > tenant->quota.memory_bytes) {
        continue;
      }
      tenant->queue.pop_front();
      ++tenant->inflight;
      tenant->stats.inflight_peak = std::max(tenant->stats.inflight_peak, tenant->inflight);
      tenant->inflight_bytes += job->expected_bytes;
      rr_pos_ = ((rr_pos_ + i) % n + 1) % n;
      *picked_tenant = tenant;
      return job;
    }
    if (!deficit_blocked) return nullptr;
    // Every runnable tenant is out of I/O budget: start a new DRR round.
    // Deficits are charged in arrears with actual response bytes, so a
    // tenant that served a huge subset sits out rounds proportional to the
    // overshoot; capping at +quantum stops idle tenants from hoarding.
    for (Tenant* tenant : tenant_order_) {
      if (tenant->queue.empty()) continue;
      const auto quantum = static_cast<std::int64_t>(tenant->quota.io_quantum_bytes);
      tenant->deficit = std::min(tenant->deficit + quantum, quantum);
    }
    ++drr_rounds_;
    ADA_OBS_COUNT("serve.drr_rounds", 1);
  }
}

void AdaService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (stopping_) return;
    if (!paused_) {
      Tenant* tenant = nullptr;
      JobPtr job = pick_next(&tenant);
      if (job != nullptr) {
        publish_queue_depth();
        lock.unlock();
        run_job(*tenant, job);
        lock.lock();
        continue;
      }
    }
    work_cv_.wait(lock);
  }
}

Result<Response> AdaService::backend_call(const Request& request) const {
  switch (request.kind) {
    case RequestKind::kSubset: {
      auto image = ada_.query_image(request.logical_name, request.tag);
      if (!image.is_ok()) return image.error();
      Response response;
      response.image = std::move(image).value();
      return response;
    }
    case RequestKind::kRange: {
      auto bytes = ada_.query(request.logical_name, request.tag, request.range);
      if (!bytes.is_ok()) return bytes.error();
      Response response;
      response.image = wrap(std::move(bytes).value());
      return response;
    }
    case RequestKind::kTail: {
      auto chunk = ada_.query_tail(request.logical_name, request.tag, request.from_frame);
      if (!chunk.is_ok()) return chunk.error();
      Response response;
      response.from_frame = chunk.value().from_frame;
      response.frames = chunk.value().frames;
      response.sealed = chunk.value().sealed;
      response.image = wrap(std::move(chunk).value().image);
      return response;
    }
    case RequestKind::kDegraded: {
      auto partial = ada_.query_degraded(request.logical_name);
      if (!partial.is_ok()) return partial.error();
      Response response;
      response.image = wrap(partial.value().concat());
      response.failed_tags = std::move(partial).value().failed;
      return response;
    }
  }
  return internal_error("serve: unknown request kind");
}

void AdaService::run_job(Tenant& tenant, const JobPtr& job) {
  const obs::Span span("serve_request", tenant.name);
  std::shared_ptr<Flight> flight;
  if (coalescable(job->request.kind)) {
    // The single-flight clock: observed BEFORE joining or leading, so a
    // joiner can only share a fill whose leader read under the very same
    // generation -- a racing write forces a second fill, never a stale
    // share.  The mutation clock is deliberately the coarse one (every
    // index write advances it): a streaming flush between two "identical"
    // open-ended range reads changes the correct answer, and only the
    // mutation clock sees it.
    const std::uint64_t generation =
        ada_.mount().mutation_generation(job->request.logical_name);
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = flights_.find(job->key);
    if (it != flights_.end() && it->second->generation == generation) {
      job->coalesced = true;
      it->second->joiners.push_back(job);
      ++tenant.stats.coalesced;
      ADA_OBS_COUNT("serve.coalesced", 1);
      return;  // the leader completes this job with its shared image
    }
    flight = std::make_shared<Flight>();
    flight->generation = generation;
    flights_[job->key] = flight;  // replaces a mismatched-generation flight
  }

  const Result<Response> result = backend_call(job->request);

  std::vector<std::pair<Tenant*, JobPtr>> finished;
  finished.emplace_back(&tenant, job);
  if (flight != nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (JobPtr& joiner : flight->joiners) {
      finished.emplace_back(joiner->tenant, std::move(joiner));
    }
    flight->joiners.clear();
    // Erase only our own entry: a mismatched-generation successor may
    // already have replaced it, and its leader owns that one.
    const auto it = flights_.find(job->key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  ADA_OBS_COUNT("serve.fills", 1);
  finish_jobs(finished, result);
}

void AdaService::finish_jobs(const std::vector<std::pair<Tenant*, JobPtr>>& jobs,
                             const Result<Response>& result) {
  const std::uint64_t actual = result.is_ok() ? result.value().image->size() : 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++fills_;  // one backend call retired (however many jobs it served)
    for (const auto& [tenant, job] : jobs) {
      // Arrears accounting: the deficit is charged what the response
      // actually weighed, which the scheduler could not know up front.
      tenant->deficit -= static_cast<std::int64_t>(actual);
      --tenant->inflight;
      tenant->inflight_bytes -= job->expected_bytes;
      if (result.is_ok()) {
        tenant->last_bytes[job->key] = actual;
        ++tenant->stats.completed;
        tenant->stats.bytes_served += actual;
      } else {
        ++tenant->stats.failed;
      }
    }
  }
  work_cv_.notify_all();  // slots and deficits moved: every worker re-scans
  for (const auto& [tenant, job] : jobs) {
    if (result.is_ok()) {
      ADA_OBS_COUNT("serve.completed", 1);
      ADA_OBS_COUNT("serve.bytes_out", actual);
      Response response = result.value();
      response.coalesced = job->coalesced;
      job->done(std::move(response));
    } else {
      ADA_OBS_COUNT("serve.failed", 1);
      job->done(result.error());
    }
  }
}

ServeStats AdaService::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  ServeStats stats;
  stats.fills = fills_;
  stats.drr_rounds = drr_rounds_;
  for (const Tenant* tenant : tenant_order_) {
    stats.tenants.emplace(tenant->name, tenant->stats);
    stats.accepted += tenant->stats.accepted;
    stats.completed += tenant->stats.completed;
    stats.failed += tenant->stats.failed;
    stats.rejected_overload += tenant->stats.rejected_overload;
    stats.rejected_quota += tenant->stats.rejected_quota;
    stats.coalesced += tenant->stats.coalesced;
    stats.bytes_served += tenant->stats.bytes_served;
  }
  return stats;
}

}  // namespace ada::serve
