// Streaming tail: ingest-to-queryable latency of the sealed-prefix path.
//
// A producer streams a GPCR trajectory frame by frame (paced like a running
// MD engine) while a follower polls Ada::query_tail over a second middleware
// on the same backends -- the ada-ingest --stream / ada-query --follow
// topology in one process.  For every watermark advance the harness records
// the wall time from the flush publishing the chunk to the follower first
// draining it; the headline numbers are the p50/p99 of those latencies and
// whether p99 stays inside ONE flush interval (chunk_frames x frame delay)
// -- the bound docs/streaming.md promises.  The follower's reassembled
// payload is byte-compared against a one-shot range query before anything
// is reported.  Emits BENCH_stream.json.
//
//   streaming_tail [--size tiny|paper] [--frames N] [--chunk N]
//                  [--delay-ms N] [--poll-ms N] [--out BENCH_stream.json]
//                  [--smoke]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

using namespace ada;

namespace {

namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string size = "paper";
  std::uint32_t frames = 128;
  std::uint32_t chunk = 8;
  long long delay_ms = 4;
  long long poll_ms = 1;
  std::string out_path = "BENCH_stream.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& flag) -> std::string {
      if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
      return "";
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (!value("--size").empty()) {
      size = value("--size");
    } else if (!value("--frames").empty()) {
      frames = static_cast<std::uint32_t>(parse_int(value("--frames")));
    } else if (!value("--chunk").empty()) {
      chunk = static_cast<std::uint32_t>(parse_int(value("--chunk")));
    } else if (!value("--delay-ms").empty()) {
      delay_ms = parse_int(value("--delay-ms"));
    } else if (!value("--poll-ms").empty()) {
      poll_ms = parse_int(value("--poll-ms"));
    } else if (!value("--out").empty()) {
      out_path = value("--out");
    }
  }
  if (smoke) {
    size = "tiny";
    frames = 16;
    chunk = 4;
    delay_ms = 8;
    poll_ms = 1;
  }
  if (chunk == 0) chunk = 1;
  const double flush_interval_ms = static_cast<double>(chunk) * static_cast<double>(delay_ms);

  std::cout << "================================================================\n"
            << "Streaming tail: ingest-to-queryable latency of the sealed prefix\n"
            << "(GPCR synthetic workload, " << size << " system, " << frames << " frames, chunk "
            << chunk << ", " << delay_ms << " ms/frame, follower poll " << poll_ms << " ms)\n"
            << "================================================================\n";

  const auto spec =
      size == "tiny" ? workload::GpcrSpec::tiny() : workload::GpcrSpec::paper_default();
  const auto system = workload::GpcrSystemBuilder(spec).build();
  const auto labels = core::categorize_protein_misc(system);

  obs::set_enabled(false);
  const std::string root = (fs::temp_directory_path() / "ada_bench_streaming_tail").string();
  fs::remove_all(root);

  core::AdaConfig config;
  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  auto mount = [&] {
    return plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}});
  };
  auto writer_mount = mount();
  auto follower_mount = mount();
  if (!writer_mount.is_ok() || !follower_mount.is_ok()) {
    std::cerr << "cannot open scratch backends under " << root << "\n";
    return 1;
  }
  core::Ada writer(std::move(writer_mount).value(), config);
  core::Ada follower(std::move(follower_mount).value(), config);

  const Clock::time_point start = Clock::now();

  // Follower: drain exactly like ada-query --follow, recording when each
  // cursor position first became visible.
  struct Observation {
    std::uint64_t cursor;  // frames drained so far when the poll returned
    double at_ms;
  };
  std::vector<Observation> seen;
  std::vector<std::uint8_t> followed;
  std::atomic<bool> follower_failed{false};
  std::uint64_t polls = 0;
  std::thread follower_thread([&] {
    std::uint64_t cursor = 0;
    for (;;) {
      ++polls;
      const auto chunk_result = follower.query_tail("live.xtc", core::kProteinTag, cursor);
      if (!chunk_result.is_ok()) {
        if (chunk_result.error().code() != ErrorCode::kNotFound) {
          follower_failed.store(true);
          return;
        }
      } else {
        const auto& tail = chunk_result.value();
        if (tail.frames != 0) {
          followed.insert(followed.end(), tail.image.begin() + 16, tail.image.end());
          cursor += tail.frames;
          seen.push_back({cursor, ms_since(start)});
          continue;  // drain back-to-back batches without sleeping
        }
        if (tail.sealed) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  });

  // Producer: the paced stream.  Record the wall time of every watermark
  // advance (i.e. every flush publication).
  struct Flush {
    std::uint64_t watermark;
    double at_ms;
  };
  std::vector<Flush> flushes;
  {
    auto stream = writer.begin_stream(labels, "live.xtc", chunk);
    if (!stream.is_ok()) {
      std::cerr << "begin_stream failed: " << stream.error().to_string() << "\n";
      return 1;
    }
    workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
    std::uint64_t watermark = 0;
    for (std::uint32_t f = 0; f < frames; ++f) {
      const auto coords = gen.next_frame();
      const auto status =
          stream.value().add_frame(gen.current_step(), gen.current_time_ps(), system.box(), coords);
      if (!status.is_ok()) {
        std::cerr << "add_frame failed: " << status.error().to_string() << "\n";
        return 1;
      }
      if (stream.value().sealed_frames() != watermark) {
        watermark = stream.value().sealed_frames();
        flushes.push_back({watermark, ms_since(start)});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    const auto report = stream.value().finish();
    if (!report.is_ok()) {
      std::cerr << "finish failed: " << report.error().to_string() << "\n";
      return 1;
    }
    if (report.value().sealed_frames != watermark) {
      flushes.push_back({report.value().sealed_frames, ms_since(start)});
    }
  }
  follower_thread.join();
  if (follower_failed.load()) {
    std::cerr << "follower aborted on a typed error\n";
    return 1;
  }

  // Correctness gate before any timing is reported: the follower's
  // reassembly must equal the one-shot range query, minus its RAW header.
  const auto oneshot =
      follower.query("live.xtc", core::kProteinTag, core::FrameRange{0, frames, 1});
  if (!oneshot.is_ok()) {
    std::cerr << "one-shot query failed: " << oneshot.error().to_string() << "\n";
    return 1;
  }
  const bool correct = followed.size() == oneshot.value().size() - 16 &&
                       std::equal(followed.begin(), followed.end(), oneshot.value().begin() + 16);
  if (!correct) {
    std::cerr << "followed payload differs from the one-shot query -- not reporting timings\n";
    return 1;
  }

  // Ingest-to-queryable latency per flush: publication to first follower
  // observation at (or past) that watermark.  A follower that polled between
  // the flush's index publication and add_frame's return can log a slightly
  // earlier time; clamp to zero.
  std::vector<double> latencies;
  for (const Flush& flush : flushes) {
    for (const Observation& obs : seen) {
      if (obs.cursor >= flush.watermark) {
        latencies.push_back(std::max(0.0, obs.at_ms - flush.at_ms));
        break;
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const bool p99_bounded = p99 <= flush_interval_ms;

  std::printf("\n  flushes observed      %zu/%zu\n", latencies.size(), flushes.size());
  std::printf("  follower polls        %llu\n", static_cast<unsigned long long>(polls));
  std::printf("  latency p50           %8.2f ms\n", p50);
  std::printf("  latency p99           %8.2f ms\n", p99);
  std::printf("  flush interval        %8.2f ms  (p99 %s the bound)\n", flush_interval_ms,
              p99_bounded ? "inside" : "OUTSIDE");

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << bench::json_envelope("streaming_tail")
       << "  \"workload\": {\"system\": \"gpcr\", \"size\": \"" << size
       << "\", \"atoms\": " << system.atom_count() << ", \"frames\": " << frames
       << ", \"chunk_frames\": " << chunk << ", \"frame_delay_ms\": " << delay_ms
       << ", \"poll_ms\": " << poll_ms << "},\n"
       << "  \"stream\": {\"chunks\": " << flushes.size() << ", \"polls\": " << polls
       << ", \"p50_latency_ms\": " << p50 << ", \"p99_latency_ms\": " << p99
       << ", \"flush_interval_ms\": " << flush_interval_ms
       << ", \"p99_bounded\": " << (p99_bounded ? 1 : 0)
       << ", \"correct\": " << (correct ? 1 : 0) << "}\n}\n";
  json.close();
  std::cout << "wrote " << out_path << "\n";

  fs::remove_all(root);
  return 0;
}
