// Multi-tenant serving suite (`ctest -L check-serve`).
//
// The contract under test: AdaService in front of one shared Ada gives N
// concurrent VMD sessions (a) request coalescing -- identical concurrent
// queries share exactly ONE backend fill and one refcounted image, fenced
// by the container's mutation generation so a racing write can force a
// second fill but never a stale share; (b) per-tenant admission -- bounded
// in-flight windows, memory quotas, deficit-round-robin I/O fairness; and
// (c) backpressure -- a full tenant queue sheds with a typed kOverloaded
// instead of queueing without bound.  Plus the AdmissionWindow FIFO-handoff
// regressions (one wakeup per release, grants in arrival order) and the
// spool IPC round trip.  Run the battery under TSan via -DADA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "ada/indexer.hpp"
#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "common/admission.hpp"
#include "common/faults.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "plfs/plfs.hpp"
#include "serve/serve.hpp"
#include "serve/spool.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// --- AdmissionWindow: FIFO handoff + bounded wakeups ---------------------------------

// Regression for the notify_all thundering herd: every release used to wake
// EVERY waiter of every key, so 4 queued waiters drained with 10 wakeups
// (4+3+2+1) and no grant-order guarantee.  The handoff design wakes exactly
// one waiter per release and grants strictly in arrival order.
TEST(AdmissionWindowTest, GrantsAreFifoWithOneWakeupPerHandoff) {
  AdmissionWindow window(/*keys=*/1, /*depth=*/1);
  ASSERT_EQ(window.acquire(0), 0u);

  constexpr int kWaiters = 4;
  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&window, &order_mu, &order, i] {
      EXPECT_GE(window.acquire(0), 1u);  // everyone parks behind the holder
      {
        const std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
      window.release(0);
    });
    // Pin the arrival order: don't start waiter i+1 until i is parked.
    while (window.waiting(0) != static_cast<std::size_t>(i + 1)) {
      std::this_thread::sleep_for(1ms);
    }
  }

  window.release(0);  // hand the slot down the queue
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3})) << "grants must follow arrival order";
  // 5 releases, 4 of them handoffs: exactly one notification each.  The
  // broadcast behavior would have issued 10.
  EXPECT_EQ(window.wakeups(), 4u);
  EXPECT_EQ(window.in_flight(0), 0u);
  EXPECT_EQ(window.waiting(0), 0u);
}

TEST(AdmissionWindowTest, ReleaseDoesNotWakeOtherKeys) {
  AdmissionWindow window(/*keys=*/2, /*depth=*/1);
  ASSERT_EQ(window.acquire(0), 0u);
  ASSERT_EQ(window.acquire(1), 0u);

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    window.acquire(1);
    granted.store(true);
    window.release(1);
  });
  while (window.waiting(1) != 1) std::this_thread::sleep_for(1ms);

  window.release(0);  // frees key 0: key 1's waiter must not stir
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(granted.load()) << "a release on key 0 woke key 1's waiter";
  EXPECT_EQ(window.wakeups(), 0u);

  window.release(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(window.wakeups(), 1u);
}

// --- QueryCache: the duplicate-fill counter ------------------------------------------

// The concurrent-cold-miss race made visible: two fills of the same key and
// generation mean one backend read was pure waste.  The cache keeps the
// incumbent image (so every holder shares one allocation) and counts the
// duplicate; lookup_or_fill's single flight exists to keep it at zero.
TEST(QueryCacheDuplicateFillTest, SameGenerationInsertKeepsIncumbentAndCounts) {
  core::QueryCache cache(1 << 20);
  const std::vector<std::uint8_t> first_bytes{1, 2, 3, 4};
  const std::vector<std::uint8_t> second_bytes{9, 9, 9, 9};

  const auto incumbent = cache.insert("bar.xtc", "p", /*generation=*/5, first_bytes);
  const auto duplicate = cache.insert("bar.xtc", "p", /*generation=*/5, second_bytes);
  EXPECT_EQ(incumbent.get(), duplicate.get()) << "the incumbent image must be kept";
  EXPECT_EQ(*duplicate, first_bytes);
  EXPECT_EQ(cache.stats().duplicate_fills, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // A NEWER generation is not a duplicate: the old entry is stale, replace it.
  const auto fresh = cache.insert("bar.xtc", "p", /*generation=*/6, second_bytes);
  EXPECT_NE(fresh.get(), incumbent.get());
  EXPECT_EQ(*fresh, second_bytes);
  EXPECT_EQ(cache.stats().duplicate_fills, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// The race ELIMINATED: lookup_or_fill makes the second cold miss wait for
// the first one's insert instead of paying its own backend read, so a
// concurrent wave of misses is one leader plus waiters that all hit.
TEST(QueryCacheDuplicateFillTest, LookupOrFillBlocksConcurrentMissesOnOneLeader) {
  core::QueryCache cache(1 << 20);
  const std::vector<std::uint8_t> bytes{7, 7, 7};

  core::QueryCache::FillGuard leader;
  ASSERT_EQ(cache.lookup_or_fill("bar.xtc", "p", /*generation=*/3, &leader), nullptr);
  ASSERT_TRUE(static_cast<bool>(leader)) << "first miss must claim leadership";

  // A second caller of the same key+generation must park until the leader
  // resolves -- not claim a second flight.
  std::atomic<bool> waiter_done{false};
  core::QueryCache::Image waited;
  std::thread waiter([&] {
    core::QueryCache::FillGuard follower;
    waited = cache.lookup_or_fill("bar.xtc", "p", /*generation=*/3, &follower);
    EXPECT_FALSE(static_cast<bool>(follower)) << "the waiter must not become a second leader";
    waiter_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(waiter_done.load()) << "the waiter ran ahead of the in-flight fill";

  const auto inserted = cache.insert("bar.xtc", "p", /*generation=*/3, bytes);
  leader.reset();  // insert landed: release the waiters
  waiter.join();
  EXPECT_EQ(waited.get(), inserted.get()) << "the waiter must share the leader's image";
  EXPECT_EQ(cache.stats().duplicate_fills, 0u);
  EXPECT_EQ(cache.stats().misses, 1u) << "only the leader's miss pays a backend read";
  EXPECT_EQ(cache.stats().hits, 1u);

  // A newer generation never waits on a stale flight: it fills on its own.
  core::QueryCache::FillGuard stale_leader;
  ASSERT_EQ(cache.lookup_or_fill("bar.xtc", "p", /*generation=*/4, &stale_leader), nullptr);
  core::QueryCache::FillGuard newer;
  EXPECT_EQ(cache.lookup_or_fill("bar.xtc", "p", /*generation=*/5, &newer), nullptr);
  EXPECT_TRUE(static_cast<bool>(newer)) << "a newer generation must displace the stale flight";
}

// A leader whose backend read fails must not strand its waiters: dropping
// the guard without an insert elects the next waiter as the new leader.
TEST(QueryCacheDuplicateFillTest, AbandonedFillElectsTheNextLeader) {
  core::QueryCache cache(1 << 20);
  auto leader = std::make_unique<core::QueryCache::FillGuard>();
  ASSERT_EQ(cache.lookup_or_fill("bar.xtc", "p", /*generation=*/1, leader.get()), nullptr);

  std::atomic<bool> elected{false};
  std::thread waiter([&] {
    core::QueryCache::FillGuard follower;
    const auto image = cache.lookup_or_fill("bar.xtc", "p", /*generation=*/1, &follower);
    EXPECT_EQ(image, nullptr) << "nothing was inserted: the waiter must see a miss";
    EXPECT_TRUE(static_cast<bool>(follower)) << "the waiter must take over leadership";
    elected.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(elected.load());
  leader.reset();  // the read failed; abandon without inserting
  waiter.join();
  EXPECT_TRUE(elected.load());
}

// --- fixture -------------------------------------------------------------------------

/// Disarm every fault site on scope exit so a failing ASSERT can't leak an
/// armed schedule into the next test.
struct DisarmGuard {
  ~DisarmGuard() { fault::Injector::global().disarm_all(); }
};

/// Hold the leader's backend fill open: delay the FIRST dropping read only,
/// so the fill stays in flight long enough for every joiner to arrive while
/// the rest of the test runs at full speed.
fault::Schedule first_read_delay(double seconds) {
  fault::Schedule schedule;
  schedule.trigger = fault::Schedule::Trigger::kNth;
  schedule.nth = 1;
  schedule.effect = fault::Outcome::Kind::kDelay;
  schedule.delay_seconds = seconds;
  return schedule;
}

/// Completion rendezvous: collects callback results and wakes the test when
/// the expected number have landed.
class Collector {
 public:
  explicit Collector(std::size_t expected) : remaining_(expected) {}

  AdaService::Callback callback() {
    return [this](Result<Response> result) {
      const std::lock_guard<std::mutex> lock(mu_);
      results_.push_back(std::move(result));
      if (--remaining_ == 0) cv_.notify_all();
    };
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

  std::vector<Result<Response>> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(results_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_;
  std::vector<Result<Response>> results_;
};

class ServeTest : public testing::Test {
 protected:
  static constexpr std::uint32_t kFrames = 17;  // chunks of 3: extents 3,3,3,3,3,2

  void SetUp() override {
    root_ = test::unique_temp_dir("ada_serve_test");
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    serial_ = open_ada(/*threads=*/1, /*cache_bytes=*/0);

    // Streamed ingest with small chunks: every tag's subset spans six
    // extents, so a held-open fill has several dropping reads to delay.
    const core::LabelMap labels = core::categorize_protein_misc(system_);
    auto stream = serial_->begin_stream(labels, "traj.xtc", /*chunk_frames=*/3);
    ASSERT_TRUE(stream.is_ok()) << stream.error().to_string();
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      const auto frame = gen.next_frame();
      ASSERT_TRUE(stream.value()
                      .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(), frame)
                      .is_ok());
    }
    ASSERT_TRUE(stream.value().finish().is_ok());

    const auto tags = serial_->tags("traj.xtc");
    ASSERT_TRUE(tags.is_ok());
    tags_ = tags.value();
    ASSERT_GE(tags_.size(), 2u);
    for (const core::Tag& tag : tags_) {
      reference_[tag] = serial_->query("traj.xtc", tag).value();
    }
  }
  void TearDown() override { fs::remove_all(root_); }

  std::unique_ptr<core::Ada> open_ada(unsigned threads, std::uint64_t cache_bytes) {
    core::AdaConfig config;
    config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
    config.threads = threads;
    config.cache_bytes = cache_bytes;
    return std::make_unique<core::Ada>(
        plfs::PlfsMount::open({{"ssd", root_ + "/ssd"}, {"hdd", root_ + "/hdd"}}).value(),
        config);
  }

  Request subset_request(const core::Tag& tag, std::string tenant = "default") const {
    Request request;
    request.tenant = std::move(tenant);
    request.logical_name = "traj.xtc";
    request.tag = tag;
    return request;
  }

  Request range_request(const core::Tag& tag, core::FrameRange range,
                        std::string tenant = "default") const {
    Request request = subset_request(tag, std::move(tenant));
    request.kind = RequestKind::kRange;
    request.range = range;
    return request;
  }

  std::string root_;
  chem::System system_;
  std::unique_ptr<core::Ada> serial_;
  std::vector<core::Tag> tags_;
  std::map<core::Tag, std::vector<std::uint8_t>> reference_;
};

// --- query_image: the shareable read path --------------------------------------------

TEST_F(ServeTest, QueryImageSharesOneRefcountedAllocation) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/8 << 20);
  const auto first = ada->query_image("traj.xtc", tags_[0]);
  ASSERT_TRUE(first.is_ok()) << first.error().to_string();
  const auto second = ada->query_image("traj.xtc", tags_[0]);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().get(), second.value().get())
      << "a repeated query must share the cached allocation, not copy it";
  EXPECT_EQ(*first.value(), reference_.at(tags_[0]));
  const auto stats = ada->query_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.duplicate_fills, 0u);
}

// --- coalescing ----------------------------------------------------------------------

// The tentpole differential: N concurrent identical queries -> exactly ONE
// backend fill, one cache miss, zero duplicate fills, every response
// byte-identical to the serial reference AND pointer-identical to each
// other (one shared allocation).
TEST_F(ServeTest, CoalescingCollapsesConcurrentIdenticalQueriesToOneFill) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/8 << 20);
  ServeConfig config;
  config.workers = 4;
  config.default_quota.max_inflight = 0;  // unbounded: admission is not the subject
  config.default_quota.queue_capacity = 0;
  AdaService service(*ada, config);

  DisarmGuard guard;
  const fault::ScopedFault slow("plfs.read_dropping", first_read_delay(0.4));

  constexpr std::size_t kClients = 8;
  Collector collector(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(service.submit(subset_request(tags_[0]), collector.callback()).is_ok());
  }
  collector.wait();

  const auto results = collector.take();
  ASSERT_EQ(results.size(), kClients);
  std::size_t coalesced = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
    EXPECT_EQ(*result.value().image, reference_.at(tags_[0]));
    EXPECT_EQ(result.value().image.get(), results.front().value().image.get())
        << "every coalesced reader must hold the same allocation";
    if (result.value().coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, kClients - 1);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.fills, 1u) << "N identical concurrent queries must pay ONE backend fill";
  EXPECT_EQ(stats.coalesced, kClients - 1);
  EXPECT_EQ(stats.completed, kClients);

  const auto cache = ada->query_cache()->stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.duplicate_fills, 0u)
      << "single-flight must eliminate the concurrent-cold-miss duplicate fill";
}

TEST_F(ServeTest, ProfilerSamplesTheServeRequestSpan) {
  // serve_request is an obs::Span, so the sampling profiler's folded
  // stacks attribute a served read to it, down to the delayed pread.
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/0);
  AdaService service(*ada, ServeConfig{});
  DisarmGuard guard;
  const fault::ScopedFault slow("plfs.read_dropping", first_read_delay(0.4));
  obs::reset_all();
  obs::set_enabled(true);
  obs::SamplingProfiler profiler({"", 1000});
  Collector collector(1);
  ASSERT_TRUE(service.submit(subset_request(tags_[0]), collector.callback()).is_ok());
  const std::string stack = "serve_request;query;retrieve;plfs_read;read";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.folded().count(stack) == 0 && std::chrono::steady_clock::now() < deadline) {
    profiler.sample_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  collector.wait();
  obs::set_enabled(false);
  obs::reset_all();
  EXPECT_EQ(profiler.folded().count(stack), 1u) << profiler.folded_text();
  ASSERT_EQ(collector.take().size(), 1u);
}

TEST_F(ServeTest, RangeQueriesCoalesceOnTheFullSelection) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/8 << 20);
  ServeConfig config;
  config.workers = 4;
  config.default_quota.max_inflight = 0;
  config.default_quota.queue_capacity = 0;
  AdaService service(*ada, config);

  const core::FrameRange range{2, 11, 3};
  const auto reference = serial_->query("traj.xtc", tags_[0], range);
  ASSERT_TRUE(reference.is_ok());

  DisarmGuard guard;
  const fault::ScopedFault slow("plfs.read_dropping", first_read_delay(0.4));

  constexpr std::size_t kClients = 6;
  Collector collector(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(service.submit(range_request(tags_[0], range), collector.callback()).is_ok());
  }
  collector.wait();

  for (const auto& result : collector.take()) {
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
    EXPECT_EQ(*result.value().image, reference.value());
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.fills, 1u);
  EXPECT_EQ(stats.coalesced, kClients - 1);
}

// Generation fencing: a write landing between two "identical" requests must
// split them into two fills -- duplicate work is acceptable under a race, a
// stale share never is.
TEST_F(ServeTest, WriterRacingReadersForcesASecondFillNeverAStaleShare) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/8 << 20);
  ServeConfig config;
  config.workers = 4;
  config.default_quota.max_inflight = 0;
  config.default_quota.queue_capacity = 0;
  AdaService service(*ada, config);

  DisarmGuard guard;
  const fault::ScopedFault slow("plfs.read_dropping", first_read_delay(0.5));

  Collector collector(2);
  ASSERT_TRUE(service.submit(subset_request(tags_[0]), collector.callback()).is_ok());
  std::this_thread::sleep_for(150ms);  // the leader is now parked inside its fill

  // A content-preserving index rewrite: the bytes answer does not change,
  // but the mutation generation does -- exactly what a racing writer does
  // to the single-flight key.
  const auto records = ada->mount().read_index("traj.xtc");
  ASSERT_TRUE(records.is_ok());
  ASSERT_TRUE(ada->mount().rewrite_index("traj.xtc", records.value()).is_ok());

  ASSERT_TRUE(service.submit(subset_request(tags_[0]), collector.callback()).is_ok());
  collector.wait();

  for (const auto& result : collector.take()) {
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
    EXPECT_EQ(*result.value().image, reference_.at(tags_[0]));
    EXPECT_FALSE(result.value().coalesced);
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.fills, 2u) << "a mismatched generation must start a second fill";
  EXPECT_EQ(stats.coalesced, 0u);
}

// --- admission: backpressure, quotas, fairness ---------------------------------------

TEST_F(ServeTest, FullTenantQueueShedsWithTypedOverload) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/0);
  ServeConfig config;
  config.workers = 2;
  config.start_paused = true;  // nothing dispatches: the queue fills deterministically
  config.default_quota.queue_capacity = 2;
  config.default_quota.max_inflight = 0;
  AdaService service(*ada, config);

  Collector collector(2);
  ASSERT_TRUE(service.submit(subset_request(tags_[0]), collector.callback()).is_ok());
  ASSERT_TRUE(service.submit(subset_request(tags_[1]), collector.callback()).is_ok());
  const Status shed = service.submit(subset_request(tags_[0]), [](Result<Response>) {
    FAIL() << "a shed request must never invoke its callback";
  });
  ASSERT_FALSE(shed.is_ok());
  EXPECT_EQ(shed.error().code(), ErrorCode::kOverloaded);
  EXPECT_EQ(service.stats().rejected_overload, 1u);

  service.resume();
  collector.wait();
  for (const auto& result : collector.take()) {
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  }
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST_F(ServeTest, MemoryQuotaRejectsRequestsItHasLearnedCannotFit) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/0);
  ServeConfig config;
  config.workers = 2;
  config.default_quota.memory_bytes = 64;  // far below any subset image
  config.default_quota.queue_capacity = 0;
  config.default_quota.max_inflight = 0;
  AdaService service(*ada, config);

  // First request: size unknown, admitted on faith into the idle lane (the
  // quota must not wedge a tenant whose every response is oversized).
  const auto first = service.execute(subset_request(tags_[0]));
  ASSERT_TRUE(first.is_ok()) << first.error().to_string();
  ASSERT_GT(first.value().image->size(), 64u);

  // Second request of the same key: the learned size exceeds the budget, so
  // the reject happens at submit time, typed.
  const auto second = service.execute(subset_request(tags_[0]));
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_quota, 1u);

  // A different key is still unknown-size: admitted.
  const auto other = service.execute(subset_request(tags_[1]));
  ASSERT_TRUE(other.is_ok()) << other.error().to_string();
}

TEST_F(ServeTest, PerTenantWindowBoundsConcurrentDispatch) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/0);
  ServeConfig config;
  config.workers = 4;  // more workers than the lane admits
  config.default_quota.max_inflight = 1;
  config.default_quota.queue_capacity = 0;
  AdaService service(*ada, config);

  constexpr std::uint32_t kRequests = 6;
  Collector collector(kRequests);
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service
                    .submit(range_request(tags_[0], core::FrameRange{i, i + 2, 1}),
                            collector.callback())
                    .is_ok());
  }
  collector.wait();
  for (const auto& result : collector.take()) {
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, kRequests);
  ASSERT_EQ(stats.tenants.count("default"), 1u);
  EXPECT_EQ(stats.tenants.at("default").inflight_peak, 1u)
      << "max_inflight=1 must serialize the tenant even with idle workers";
}

// DRR fairness: a hot tenant with a deep backlog cannot starve a cold
// tenant's single request -- the cold request completes second, not last,
// and the scheduler actually ran deficit-recredit rounds (the quanta are
// far below one response, so every completion exhausts the tenant's share).
TEST_F(ServeTest, DrrSchedulingDoesNotStarveTheColdTenant) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/8 << 20);
  ServeConfig config;
  config.workers = 1;        // sequential completions: the order IS the schedule
  config.start_paused = true;  // pre-load both queues, then release
  TenantQuota quota;
  quota.max_inflight = 0;
  quota.queue_capacity = 0;
  quota.io_quantum_bytes = 1024;
  config.tenant_quotas["hot"] = quota;
  config.tenant_quotas["cold"] = quota;
  AdaService service(*ada, config);

  constexpr std::size_t kHotBacklog = 6;
  std::mutex order_mu;
  std::vector<std::string> order;
  Collector collector(kHotBacklog + 1);
  const auto tagged = [&](const std::string& who) {
    auto inner = collector.callback();
    return [&order_mu, &order, who, inner](Result<Response> result) {
      {
        const std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(who);
      }
      inner(std::move(result));
    };
  };
  for (std::size_t i = 0; i < kHotBacklog; ++i) {
    ASSERT_TRUE(service.submit(subset_request(tags_[0], "hot"), tagged("hot")).is_ok());
  }
  ASSERT_TRUE(service.submit(subset_request(tags_[0], "cold"), tagged("cold")).is_ok());

  service.resume();
  collector.wait();
  for (const auto& result : collector.take()) {
    ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  }

  const auto cold_pos = std::find(order.begin(), order.end(), "cold") - order.begin();
  EXPECT_LE(cold_pos, 1) << "the cold tenant's only request sat behind the hot backlog";
  EXPECT_GE(service.stats().drr_rounds, 1u) << "the deficit scheduler never cycled";
}

// --- tail/degraded ride the same lanes -----------------------------------------------

TEST_F(ServeTest, TailAndDegradedFlowThroughTheService) {
  auto ada = open_ada(/*threads=*/8, /*cache_bytes=*/8 << 20);
  ServeConfig config;
  config.workers = 2;
  AdaService service(*ada, config);

  Request tail = subset_request(tags_[0]);
  tail.kind = RequestKind::kTail;
  tail.from_frame = 0;
  const auto tail_result = service.execute(tail);
  ASSERT_TRUE(tail_result.is_ok()) << tail_result.error().to_string();
  EXPECT_TRUE(tail_result.value().sealed);
  EXPECT_EQ(tail_result.value().from_frame, 0u);
  EXPECT_EQ(tail_result.value().frames, kFrames);
  const auto sliced = serial_->query("traj.xtc", tags_[0], core::FrameRange{0, kFrames, 1});
  ASSERT_TRUE(sliced.is_ok());
  EXPECT_EQ(*tail_result.value().image, sliced.value());

  Request degraded;
  degraded.logical_name = "traj.xtc";
  degraded.kind = RequestKind::kDegraded;
  const auto degraded_result = service.execute(degraded);
  ASSERT_TRUE(degraded_result.is_ok()) << degraded_result.error().to_string();
  EXPECT_TRUE(degraded_result.value().failed_tags.empty());
  std::vector<std::uint8_t> expected;
  for (const auto& [tag, image] : reference_) {
    expected.insert(expected.end(), image.begin(), image.end());
  }
  EXPECT_EQ(*degraded_result.value().image, expected);

  // Both rode the admission lanes: two fills, nothing coalesced.
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.fills, 2u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST_F(ServeTest, StopFailsQueuedRequestsWithUnavailable) {
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/0);
  ServeConfig config;
  config.workers = 2;
  config.start_paused = true;  // queued work never dispatches
  AdaService service(*ada, config);

  Collector collector(2);
  ASSERT_TRUE(service.submit(subset_request(tags_[0]), collector.callback()).is_ok());
  ASSERT_TRUE(service.submit(subset_request(tags_[1]), collector.callback()).is_ok());
  service.stop();
  collector.wait();
  for (const auto& result : collector.take()) {
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
  }
  const Status late = service.submit(subset_request(tags_[0]), [](Result<Response>) {});
  ASSERT_FALSE(late.is_ok());
  EXPECT_EQ(late.error().code(), ErrorCode::kUnavailable);
}

// --- stress: the TSan battery --------------------------------------------------------

// Many tenants, many client threads, every request kind, the parallel
// retriever and the cache armed: the lock-order and lifetime battery meant
// to run under -DADA_SANITIZE=thread.
TEST_F(ServeTest, StressManyTenantsMixedKinds) {
  auto ada = open_ada(/*threads=*/2, /*cache_bytes=*/4 << 20);
  ServeConfig config;
  config.workers = 4;
  config.default_quota.max_inflight = 4;
  config.default_quota.queue_capacity = 0;
  AdaService service(*ada, config);

  constexpr int kThreads = 6;
  constexpr int kIterations = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "viz" + std::to_string(t % 3);
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t tag_index = static_cast<std::size_t>(i) % tags_.size();
        Result<Response> result = internal_error("unset");
        switch (i % 3) {
          case 0: {
            result = service.execute(subset_request(tags_[tag_index], tenant));
            if (result.is_ok() && *result.value().image != reference_.at(tags_[tag_index])) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            const std::uint32_t begin = static_cast<std::uint32_t>(i) % (kFrames - 2);
            result = service.execute(
                range_request(tags_[0], core::FrameRange{begin, begin + 2, 1}, tenant));
            break;
          }
          default: {
            Request tail = subset_request(tags_[0], tenant);
            tail.kind = RequestKind::kTail;
            tail.from_frame = static_cast<std::uint64_t>(i) % kFrames;
            result = service.execute(tail);
            break;
          }
        }
        if (!result.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(ada->query_cache()->stats().duplicate_fills, 0u);
}

// --- spool IPC -----------------------------------------------------------------------

TEST(SpoolProtocolTest, EncodeParseRoundTripsEveryField) {
  Request request;
  request.tenant = "viz7";
  request.logical_name = "bar.xtc";
  request.tag = "p";
  request.kind = RequestKind::kRange;
  request.range = core::FrameRange{3, 12, 2};
  request.from_frame = 5;
  const auto parsed = parse_spool_request(encode_spool_request(request));
  ASSERT_TRUE(parsed.is_ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().tenant, "viz7");
  EXPECT_EQ(parsed.value().logical_name, "bar.xtc");
  EXPECT_EQ(parsed.value().tag, "p");
  EXPECT_EQ(parsed.value().kind, RequestKind::kRange);
  EXPECT_EQ(parsed.value().range.begin, 3u);
  EXPECT_EQ(parsed.value().range.end, 12u);
  EXPECT_EQ(parsed.value().range.stride, 2u);
  EXPECT_EQ(parsed.value().from_frame, 5u);
}

TEST(SpoolProtocolTest, RejectsMalformedRequestsTyped) {
  const auto torn = parse_spool_request("this line has no separator\n");
  ASSERT_FALSE(torn.is_ok());
  EXPECT_EQ(torn.error().code(), ErrorCode::kCorruptData);

  const auto bad_kind = parse_spool_request("name=bar.xtc\nkind=bogus\n");
  ASSERT_FALSE(bad_kind.is_ok());
  EXPECT_EQ(bad_kind.error().code(), ErrorCode::kInvalidArgument);

  const auto nameless = parse_spool_request("tag=p\nkind=subset\n");
  ASSERT_FALSE(nameless.is_ok());
  EXPECT_EQ(nameless.error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(ServeTest, SpoolRoundTripServesBytesIdenticalToDirectQuery) {
  const std::string spool = root_ + "/spool";
  fs::create_directories(spool);
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/8 << 20);
  ServeConfig config;
  config.workers = 2;
  AdaService service(*ada, config);
  SpoolServer server(service, spool);

  std::optional<Result<SpoolReply>> reply;
  std::atomic<bool> done{false};
  std::thread client([&] {
    SpoolClient spool_client(spool);
    reply = spool_client.call(subset_request(tags_[0]), /*timeout_s=*/20.0, /*poll_s=*/0.005);
    done.store(true);
  });
  while (!done.load()) {
    server.poll_once();
    std::this_thread::sleep_for(2ms);
  }
  client.join();

  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->is_ok()) << reply->error().to_string();
  EXPECT_EQ(reply->value().payload, reference_.at(tags_[0]));
  EXPECT_FALSE(reply->value().coalesced);
}

TEST_F(ServeTest, SpoolPropagatesTypedOverloadToTheClient) {
  const std::string spool = root_ + "/spool";
  fs::create_directories(spool);
  auto ada = open_ada(/*threads=*/0, /*cache_bytes=*/0);
  ServeConfig config;
  config.workers = 2;
  config.start_paused = true;
  config.default_quota.queue_capacity = 1;
  AdaService service(*ada, config);
  SpoolServer server(service, spool);

  std::optional<Result<SpoolReply>> replies[2];
  std::atomic<int> finished{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      SpoolClient spool_client(spool);
      replies[i] = spool_client.call(subset_request(tags_[0]), /*timeout_s=*/20.0,
                                     /*poll_s=*/0.005);
      finished.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(200ms);  // both .req files are on disk
  server.poll_once();                  // claims both: one queues, one sheds typed
  service.resume();
  while (finished.load() != 2) {
    server.poll_once();
    std::this_thread::sleep_for(2ms);
  }
  for (std::thread& client : clients) client.join();

  int ok = 0, overloaded = 0;
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    if (reply->is_ok()) {
      ++ok;
      EXPECT_EQ(reply->value().payload, reference_.at(tags_[0]));
    } else if (reply->error().code() == ErrorCode::kOverloaded) {
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(overloaded, 1) << "the shed request must reach the client as kOverloaded";
}

}  // namespace
}  // namespace ada::serve
