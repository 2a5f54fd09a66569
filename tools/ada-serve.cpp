// ada-serve: a long-lived multi-tenant query service over one shared Ada.
//
//   ada-serve --ssd /mnt/ssd --hdd /mnt/hdd --spool /run/ada
//             [--workers <n>] [--cache <bytes>]
//             [--threads <n: 0 = pool (default), 1 = serial>]
//             [--queue-cap <n>] [--inflight <n>]
//             [--memory-quota <bytes>] [--quantum <bytes>]
//             [--stop-file <path>] [--idle-timeout-s <s>] [--poll-ms <ms>]
//             [--metrics[=json]]
//
// The service mounts the backends once, arms the subset cache, and serves
// spool-protocol requests (docs/serving.md) dropped into --spool by
// `ada-query --serve-spool` clients: concurrent identical queries coalesce
// into one backend fill, each tenant gets a bounded in-flight window plus
// quotas, and a full tenant queue sheds load with a typed `overloaded`
// verdict instead of queueing without bound.
//
// Shutdown: the service exits cleanly when --stop-file appears (removing it
// on the way out), or after --idle-timeout-s seconds without a single new
// request (0 = wait forever).  In-flight requests finish; unstarted ones
// get an `unavailable` verdict.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "ada/middleware.hpp"
#include "serve/serve.hpp"
#include "serve/spool.hpp"
#include "tools/tool_util.hpp"

using namespace ada;

namespace {
constexpr const char* kUsage =
    "usage: ada-serve --ssd <dir> --hdd <dir> --spool <dir>\n"
    "                 [--workers <n>] [--cache <bytes>]\n"
    "                 [--threads <n: 0 = pool (default), 1 = serial>]\n"
    "                 [--queue-cap <n>] [--inflight <n>]\n"
    "                 [--memory-quota <bytes>] [--quantum <bytes>]\n"
    "                 [--stop-file <path>] [--idle-timeout-s <s>] [--poll-ms <ms>]\n"
    "                 [--metrics[=json|openmetrics]]\n";
}

int main(int argc, char** argv) {
  const tools::Args args(argc, argv,
                         {"ssd", "hdd", "spool", "threads", "cache", "workers", "inflight",
                          "queue-cap", "idle-timeout-s", "poll-ms", "memory-quota", "quantum",
                          "stop-file"});
  if (!args.has("ssd") || !args.has("hdd") || !args.has("spool")) tools::die_usage(kUsage);
  core::AdaConfig config;
  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  // A serving deployment wants the cache on: coalesced fills are shareable
  // only while the image lives somewhere.  64 MiB default, --cache=0 to
  // prove the uncached path stays correct.
  config.cache_bytes = args.count<std::uint64_t>("cache", 64ull << 20);
  // Each query's concurrency budget: 0 follows the shared pool, 1 is serial.
  config.threads = args.count("threads", 0u);
  serve::ServeConfig serve_config;
  serve_config.workers = args.count("workers", 4u);
  serve_config.default_quota.max_inflight = args.count("inflight", 4u);
  serve_config.default_quota.queue_capacity = args.count<std::size_t>("queue-cap", 64);
  serve_config.default_quota.memory_bytes = args.count<std::uint64_t>("memory-quota", 0);
  serve_config.default_quota.io_quantum_bytes =
      args.count<std::uint64_t>("quantum", 4ull << 20);
  const auto idle_timeout_s = args.count<std::uint32_t>("idle-timeout-s", 0);
  const auto poll_ms = args.count<std::uint32_t>("poll-ms", 10, 1);
  tools::metrics_begin(args);
  std::FILE* report_out = tools::metrics_json_only(args) ? stderr : stdout;

  core::Ada middleware(
      tools::must(plfs::PlfsMount::open(
                      {{"ssd-fs", args.get("ssd")}, {"hdd-fs", args.get("hdd")}}),
                  "open backends"),
      config);

  serve::AdaService service(middleware, serve_config);
  serve::SpoolServer server(service, args.get("spool"));

  const std::string stop_file = args.get("stop-file");
  std::fprintf(report_out, "ada-serve: spooling %s (%u workers, cache %llu bytes)\n",
               args.get("spool").c_str(), serve_config.workers,
               static_cast<unsigned long long>(config.cache_bytes));

  auto last_request = std::chrono::steady_clock::now();
  for (;;) {
    const std::size_t claimed = server.poll_once();
    const auto now = std::chrono::steady_clock::now();
    if (claimed != 0) {
      last_request = now;
      continue;  // drain a burst back to back before sleeping
    }
    if (!stop_file.empty() && std::filesystem::exists(stop_file)) {
      std::error_code ec;
      std::filesystem::remove(stop_file, ec);
      break;
    }
    if (idle_timeout_s > 0 &&
        now - last_request >= std::chrono::seconds(idle_timeout_s)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }

  service.stop();
  const serve::ServeStats stats = service.stats();
  std::fprintf(report_out,
               "ada-serve: served %llu requests (%llu coalesced, %llu fills), "
               "shed %llu overloaded / %llu quota, %llu bytes out\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(stats.fills),
               static_cast<unsigned long long>(stats.rejected_overload),
               static_cast<unsigned long long>(stats.rejected_quota),
               static_cast<unsigned long long>(stats.bytes_served));
  for (const auto& [tenant, t] : stats.tenants) {
    std::fprintf(report_out,
                 "  tenant %-12s %6llu ok %4llu fail %4llu shed  peak queue %zu inflight %u\n",
                 tenant.c_str(), static_cast<unsigned long long>(t.completed),
                 static_cast<unsigned long long>(t.failed),
                 static_cast<unsigned long long>(t.rejected_overload + t.rejected_quota),
                 t.queue_peak, t.inflight_peak);
  }
  tools::metrics_end(args);
  return 0;
}
