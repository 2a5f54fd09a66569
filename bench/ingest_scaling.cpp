// Ingest scaling: frame-parallel pre-processing throughput vs thread count.
//
// Measures DataPreProcessor::split (the decode + split stage that dominates
// ADA's write path) over the GPCR synthetic workload at 1/2/4/8 threads and
// emits BENCH_ingest.json so the perf trajectory of the frame-parallel
// pipeline has data.
//
// Two planes, following the repo's convention (DESIGN.md):
//   * measured -- real wall clock on this host.  Only meaningful up to the
//     host's core count; on a 1-core container every thread count
//     serializes.
//   * modeled  -- the performance plane: wall(N) = scan + range_work / N,
//     with both terms calibrated from the measured runs (the scan is the
//     serial stage of the pipeline, range_work is the per-range
//     decode+split busy time its split_range spans report).
//
// The JSON's headline "results" series is the measured plane when the host
// has at least as many cores as the largest thread count, and the modeled
// plane otherwise; "results_plane" says which.  See docs/performance.md.
//
//   ingest_scaling [--size tiny|paper] [--frames N] [--iters N]
//                  [--out BENCH_ingest.json] [--smoke]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/preprocessor.hpp"
#include "bench/bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "formats/xtc_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

using namespace ada;

namespace {

struct Point {
  unsigned threads = 1;
  double wall_s = 0;
  double frames_per_s = 0;
  double bytes_per_s = 0;
  double speedup = 1.0;
};

void print_series(const char* title, const std::vector<Point>& series) {
  std::cout << "\n" << title << ":\n";
  std::cout << "  threads     wall(s)    frames/s     bytes/s   speedup\n";
  for (const Point& p : series) {
    std::printf("  %7u  %10.4f  %10.1f  %10.3e  %7.2fx\n", p.threads, p.wall_s, p.frames_per_s,
                p.bytes_per_s, p.speedup);
  }
}

void emit_series(std::ostream& os, const char* name, const std::vector<Point>& series) {
  os << "  \"" << name << "\": [\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Point& p = series[i];
    os << "    {\"threads\": " << p.threads << ", \"wall_s\": " << p.wall_s
       << ", \"frames_per_s\": " << p.frames_per_s << ", \"bytes_per_s\": " << p.bytes_per_s
       << ", \"speedup\": " << p.speedup << "}" << (i + 1 < series.size() ? "," : "") << "\n";
  }
  os << "  ]";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string size = "paper";
  std::uint32_t frames = 64;
  unsigned iters = 2;
  std::string out_path = "BENCH_ingest.json";
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
    } else if (!value("--iters").empty()) {
      iters = static_cast<unsigned>(parse_int(value("--iters")));
    } else if (!value("--out").empty()) {
      out_path = value("--out");
    }
  }
  if (smoke) {
    size = "tiny";
    frames = 8;
    iters = 1;
  }

  std::cout << "================================================================\n"
            << "Ingest scaling: frame-parallel split throughput vs thread count\n"
            << "(GPCR synthetic workload, " << size << " system, " << frames << " frames)\n"
            << "================================================================\n";

  const auto spec =
      size == "tiny" ? workload::GpcrSpec::tiny() : workload::GpcrSpec::paper_default();
  const auto system = workload::GpcrSystemBuilder(spec).build();
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer;
  for (std::uint32_t f = 0; f < frames; ++f) {
    if (!writer
             .add_frame(gen.current_step(), gen.current_time_ps(), system.box(), gen.next_frame())
             .is_ok()) {
      std::cerr << "frame generation failed\n";
      return 1;
    }
  }
  const auto xtc = writer.take();

  const core::LabelMap labels = core::categorize_protein_misc(system);
  const core::DataPreProcessor preprocessor(labels);
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};

  // Reference output: the serial path every thread count must reproduce.
  obs::set_enabled(false);
  const auto reference = preprocessor.split(xtc);
  if (!reference.is_ok()) {
    std::cerr << "serial split failed: " << reference.error().to_string() << "\n";
    return 1;
  }

  // --- measured plane --------------------------------------------------------
  std::vector<Point> measured;
  for (const unsigned threads : thread_counts) {
    double best = 0;
    for (unsigned it = 0; it < iters; ++it) {
      const Stopwatch wall;
      const auto result = preprocessor.split(xtc, nullptr, threads);
      const double elapsed = wall.elapsed_seconds();
      if (!result.is_ok()) {
        std::cerr << "split @" << threads << " threads failed: " << result.error().to_string()
                  << "\n";
        return 1;
      }
      if (result.value() != reference.value()) {
        std::cerr << "split @" << threads << " threads is not byte-identical to serial\n";
        return 1;
      }
      if (best == 0 || elapsed < best) best = elapsed;
    }
    Point p;
    p.threads = threads;
    p.wall_s = best;
    p.frames_per_s = frames / best;
    p.bytes_per_s = static_cast<double>(xtc.size()) / best;
    measured.push_back(p);
  }
  for (Point& p : measured) p.speedup = measured.front().wall_s / p.wall_s;

  // --- calibration for the modeled plane -------------------------------------
  // scan: timed directly (header walk, no decompression).
  const Stopwatch scan_wall;
  const auto extents = formats::scan_xtc_extents(xtc);
  const double scan_s = scan_wall.elapsed_seconds();
  if (!extents.is_ok()) return 1;
  // range work: the parallel path's split_range spans.  Each pool worker's
  // spans root their own thread's tree, so sum every path of that name.
  obs::reset_spans();
  obs::set_enabled(true);
  if (!preprocessor.split(xtc, nullptr, 2).is_ok()) return 1;
  obs::set_enabled(false);
  std::uint64_t range_work_ns = 0;
  for (const obs::SpanStat& span : obs::span_stats()) {
    if (span.name == "split_range") range_work_ns += span.total_ns;
  }
  const double range_work_s = static_cast<double>(range_work_ns) / 1e9;

  std::vector<Point> modeled;
  for (const unsigned threads : thread_counts) {
    const double wall = threads == 1 ? measured.front().wall_s
                                     : scan_s + range_work_s / threads;
    Point p;
    p.threads = threads;
    p.wall_s = wall;
    p.frames_per_s = frames / wall;
    p.bytes_per_s = static_cast<double>(xtc.size()) / wall;
    p.speedup = measured.front().wall_s / wall;
    modeled.push_back(p);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool use_measured = hw >= thread_counts.back();
  const auto& results = use_measured ? measured : modeled;

  print_series("measured on this host", measured);
  print_series("modeled (scan + range_work/N, calibrated from measurement)", modeled);
  std::cout << "\nheadline plane: " << (use_measured ? "measured" : "modeled") << " ("
            << hw << " hardware thread" << (hw == 1 ? "" : "s") << " available)\n";

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::uint64_t raw_bytes = 0;
  for (const auto& [tag, image] : reference.value()) raw_bytes += image.size();
  json << "{\n"
       << bench::json_envelope("ingest_scaling")
       << "  \"workload\": {\"system\": \"gpcr\", \"size\": \"" << size
       << "\", \"atoms\": " << system.atom_count() << ", \"frames\": " << frames
       << ", \"xtc_bytes\": " << xtc.size() << ", \"raw_bytes\": " << raw_bytes << "},\n"
       << "  \"host\": {\"hardware_concurrency\": " << hw
       << ", \"pool_workers\": " << ThreadPool::shared().worker_count() << "},\n"
       << "  \"calibration\": {\"scan_s\": " << scan_s << ", \"range_work_s\": " << range_work_s
       << ", \"serial_wall_s\": " << measured.front().wall_s << "},\n"
       << "  \"results_plane\": \"" << (use_measured ? "measured" : "modeled") << "\",\n";
  emit_series(json, "results", results);
  json << ",\n";
  emit_series(json, "measured", measured);
  json << ",\n";
  emit_series(json, "modeled", modeled);
  json << "\n}\n";
  json.close();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
