// Distributed scaling: scatter-gather retrieval from 1 to 9 PVFS servers.
//
// Two planes, one JSON:
//
//   sim plane      deterministic DES (platform::simulate_cluster_read) -- a
//                  64 MiB file split into 512 KiB extents, fanned round-robin
//                  across N HDD servers under a per-server admission window.
//                  Sweeps server count {1,2,4,9} at queue depth 4, then queue
//                  depth {1,2,4,8,16,unbounded} at 9 servers (the saturation
//                  knee), plus the whole-file read_file reference and a
//                  downed-server run through the armed-fault retry path.
//   measured plane wall clock through the real middleware: a streamed
//                  multi-extent GPCR dataset queried by two Ada instances over
//                  the same backends, serial (threads=1) vs scatter-gather
//                  (threads=4; IoRetriever::kBackendDepth piece reads in
//                  flight per backend).  Parallel bytes are checked
//                  identical to serial bytes before any timing.
//
// Sim parameters are fixed constants -- identical under --smoke -- so the
// ada-stats perf gate can compare sim.* keys across runs exactly.  The
// measured plane shrinks under --smoke and is reported as authoritative
// ("results_plane": "measured") only when the host has enough cores to run
// the parallel sweep unqueued.  Emits BENCH_distributed.json.
//
//   distributed_scaling [--smoke] [--frames=N] [--rounds=N]
//                       [--threads=N] [--queue-depth=N (sim plane)] [--out=FILE]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ada/middleware.hpp"
#include "bench/bench_util.hpp"
#include "common/faults.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "platform/pipeline.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

using namespace ada;

namespace {

namespace fs = std::filesystem;

// Fixed sim workload: 64 MiB over 512 KiB extents = 128 extents, enough to
// keep nine servers busy without drowning the DES in events.
constexpr double kSimFileBytes = 64.0 * 1024 * 1024;
constexpr double kSimExtentBytes = 512.0 * 1024;
constexpr unsigned kMaxServers = 9;

double sim_read_seconds(unsigned servers, unsigned queue_depth, double extent_bytes) {
  platform::ClusterConfig cluster;
  cluster.compute_nodes = 1;  // client is node 0; HDD servers are nodes 1..N
  cluster.hdd_storage_nodes = servers;
  cluster.ssd_storage_nodes = 1;
  platform::ClusterReadSpec spec;
  spec.reads = {platform::ClusterRead{platform::ClusterRead::Instance::kHdd, kSimFileBytes}};
  spec.sg_extent_bytes = extent_bytes;
  spec.sg_queue_depth = queue_depth;
  return platform::simulate_cluster_read(cluster, spec).seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::bool_flag(argc, argv, "smoke");
  std::uint32_t frames = bench::uint_flag(argc, argv, "frames", smoke ? 12 : 48);
  unsigned rounds = bench::uint_flag(argc, argv, "rounds", smoke ? 4 : 16);
  const unsigned threads = bench::uint_flag(argc, argv, "threads", 4);
  const unsigned queue_depth = bench::uint_flag(argc, argv, "queue-depth", 4);
  std::string out_path = "BENCH_distributed.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  if (frames < 8) frames = 8;
  if (rounds < 2) rounds = 2;

  std::cout << "================================================================\n"
            << "Distributed scaling: scatter-gather retrieval, 1->9 servers\n"
            << "(sim plane: 64 MiB / 512 KiB extents; measured plane: " << frames
            << " frames, " << rounds << " rounds, " << threads << " threads)\n"
            << "================================================================\n";

  // --- sim plane: server scaling at fixed queue depth -----------------------
  const std::vector<unsigned> server_counts = {1, 2, 4, kMaxServers};
  std::map<unsigned, double> server_seconds;
  Table scaling({"servers", "sim time", "speedup vs 1"});
  for (const unsigned n : server_counts) {
    const double seconds = sim_read_seconds(n, queue_depth, kSimExtentBytes);
    server_seconds[n] = seconds;
    scaling.add_row({std::to_string(n), format_seconds(seconds),
                     format_fixed(server_seconds[1] / seconds, 2) + "x"});
  }
  std::cout << "\n--- sim: server scaling (queue depth " << queue_depth << ") ---\n";
  scaling.print(std::cout);

  // --- sim plane: queue-depth sweep at 9 servers ----------------------------
  const std::vector<unsigned> depths = {1, 2, 4, 8, 16};
  const double unbounded_s = sim_read_seconds(kMaxServers, 0, kSimExtentBytes);
  std::map<unsigned, double> depth_seconds;
  Table knee_table({"queue depth", "sim time", "vs unbounded"});
  for (const unsigned depth : depths) {
    const double seconds = sim_read_seconds(kMaxServers, depth, kSimExtentBytes);
    depth_seconds[depth] = seconds;
    knee_table.add_row({std::to_string(depth), format_seconds(seconds),
                        format_fixed(seconds / unbounded_s, 2) + "x"});
  }
  knee_table.add_row({"unbounded", format_seconds(unbounded_s), "1.00x"});
  // The knee: the smallest depth already within 5% of the unbounded time --
  // past it, deeper per-server queues buy nothing.
  unsigned knee_depth = 0;
  for (const unsigned depth : depths) {
    if (depth_seconds[depth] <= unbounded_s * 1.05) {
      knee_depth = depth;
      break;
    }
  }
  std::cout << "\n--- sim: queue-depth sweep (" << kMaxServers << " servers) ---\n";
  knee_table.print(std::cout);
  std::cout << "saturation knee: depth " << knee_depth << " (first within 5% of unbounded)\n";

  // Whole-file reference: read_file's stripe schedule on the same bytes.
  const double whole_file_s = sim_read_seconds(kMaxServers, 0, /*extent_bytes=*/0);

  // Downed-server run: server node 1 (the first HDD server) refuses every
  // stripe read, so after the sim-clock retries the read fails for good and
  // surfaces as io_errors -- the signal Ada::query_degraded keys off.
  double downed_s = 0;
  std::size_t downed_errors = 0;
  {
    const Status armed =
        fault::Injector::global().arm_spec("pvfs.stripe_read.s1=down:1:1000000000");
    if (!armed.is_ok()) {
      std::cerr << "cannot arm fault: " << armed.error().to_string() << "\n";
      return 1;
    }
    platform::ClusterConfig cluster;
    cluster.compute_nodes = 1;
    cluster.hdd_storage_nodes = kMaxServers;
    cluster.ssd_storage_nodes = 1;
    platform::ClusterReadSpec spec;
    spec.reads = {platform::ClusterRead{platform::ClusterRead::Instance::kHdd, kSimFileBytes}};
    spec.sg_extent_bytes = kSimExtentBytes;
    spec.sg_queue_depth = queue_depth;
    const auto outcome = platform::simulate_cluster_read(cluster, spec);
    fault::Injector::global().disarm_all();
    downed_s = outcome.seconds;
    downed_errors = outcome.io_errors;
    std::cout << "\n--- sim: downed server (node 1 of " << kMaxServers << ") ---\n"
              << "read failed for good after retries: io_errors=" << downed_errors
              << ", sim time " << format_seconds(downed_s) << "\n";
    if (downed_errors == 0) {
      std::cerr << "downed-server run reported no io_errors\n";
      return 1;
    }
  }

  // --- measured plane: serial vs scatter-gather middleware reads ------------
  // The tiny system keeps per-query decode cheap; extent count (what the
  // scatter-gather engine fans over) is driven by frames / chunk_frames.
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();

  obs::set_enabled(false);
  const std::string root = (fs::temp_directory_path() / "ada_bench_distributed").string();
  fs::remove_all(root);

  core::AdaConfig serial_config;
  serial_config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  serial_config.threads = 1;  // the inline serial run of the fetch engine
  core::AdaConfig parallel_config = serial_config;
  parallel_config.threads = threads;

  auto mount = [&] {
    return plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}});
  };
  auto serial_mount = mount();
  auto parallel_mount = mount();
  if (!serial_mount.is_ok() || !parallel_mount.is_ok()) {
    std::cerr << "cannot open scratch backends under " << root << "\n";
    return 1;
  }
  core::Ada serial(std::move(serial_mount).value(), serial_config);
  core::Ada parallel(std::move(parallel_mount).value(), parallel_config);

  // Streamed ingest with small chunks: every chunk flushes one dropping per
  // tag, so each tag's subset spans many extents -- the shape scatter-gather
  // exists for.
  const core::LabelMap labels = core::categorize_protein_misc(system);
  auto stream = serial.begin_stream(labels, "traj.xtc", /*chunk_frames=*/4);
  if (!stream.is_ok()) {
    std::cerr << "begin_stream failed: " << stream.error().to_string() << "\n";
    return 1;
  }
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  for (std::uint32_t f = 0; f < frames; ++f) {
    const auto frame = gen.next_frame();
    if (!stream.value()
             .add_frame(gen.current_step(), gen.current_time_ps(), system.box(), frame)
             .is_ok()) {
      std::cerr << "streamed ingest failed\n";
      return 1;
    }
  }
  if (!stream.value().finish().is_ok()) {
    std::cerr << "stream finish failed\n";
    return 1;
  }

  const auto tags_result = serial.tags("traj.xtc");
  if (!tags_result.is_ok() || tags_result.value().empty()) {
    std::cerr << "no tags to query\n";
    return 1;
  }
  const std::vector<core::Tag> tags = tags_result.value();

  // Correctness gate before any timing: scatter-gather bytes == serial bytes.
  std::uint64_t subset_bytes_total = 0;
  for (const core::Tag& tag : tags) {
    const auto serial_subset = serial.query("traj.xtc", tag);
    const auto parallel_subset = parallel.query("traj.xtc", tag);
    if (!serial_subset.is_ok() || !parallel_subset.is_ok() ||
        serial_subset.value() != parallel_subset.value()) {
      std::cerr << "scatter-gather and serial reads differ for tag " << tag << "\n";
      return 1;
    }
    subset_bytes_total += serial_subset.value().size();
  }

  auto run_plane = [&](core::Ada& middleware) -> double {
    const Stopwatch wall;
    for (unsigned round = 0; round < rounds; ++round) {
      for (const core::Tag& tag : tags) {
        const auto subset = middleware.query("traj.xtc", tag);
        if (!subset.is_ok()) {
          std::cerr << "query failed mid-plane for tag " << tag << "\n";
          std::exit(1);
        }
      }
    }
    return wall.elapsed_seconds();
  };

  // Warm-up sweep for each plane, then the timed sweeps.
  run_plane(serial);
  const double serial_s = run_plane(serial);
  run_plane(parallel);
  const double parallel_s = run_plane(parallel);
  const double measured_speedup = parallel_s > 0 ? serial_s / parallel_s : 0;

  const unsigned cores = std::thread::hardware_concurrency();
  const bool measured_authoritative = cores >= threads;
  std::printf("\n--- measured: serial vs scatter-gather (%u tags, %u rounds) ---\n",
              static_cast<unsigned>(tags.size()), rounds);
  std::printf("  serial (threads=1)    %10.4f s\n", serial_s);
  std::printf("  parallel (threads=%u) %10.4f s\n", threads, parallel_s);
  std::printf("  speedup: %.2fx%s\n", measured_speedup,
              measured_authoritative ? "" : "  [advisory: fewer cores than threads]");

  const double speedup_2 = server_seconds[1] / server_seconds[2];
  const double speedup_4 = server_seconds[1] / server_seconds[4];
  const double speedup_9 = server_seconds[1] / server_seconds[kMaxServers];

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << bench::json_envelope("distributed_scaling")
       << "  \"workload\": {\"sim_file_bytes\": " << static_cast<std::uint64_t>(kSimFileBytes)
       << ", \"sim_extent_bytes\": " << static_cast<std::uint64_t>(kSimExtentBytes)
       << ", \"frames\": " << frames << ", \"tags\": " << tags.size()
       << ", \"subset_bytes\": " << subset_bytes_total << "},\n"
       << "  \"config\": {\"threads\": " << threads
       << ", \"queue_depth\": " << queue_depth << ", \"rounds\": " << rounds << "},\n"
       << "  \"sim\": {\"t1_s\": " << server_seconds[1] << ", \"t2_s\": " << server_seconds[2]
       << ", \"t4_s\": " << server_seconds[4] << ", \"t9_s\": " << server_seconds[kMaxServers]
       << ",\n          \"speedup_2\": " << speedup_2 << ", \"speedup_4\": " << speedup_4
       << ", \"speedup_9\": " << speedup_9 << ",\n          \"depth1_s\": " << depth_seconds[1]
       << ", \"depth2_s\": " << depth_seconds[2] << ", \"depth4_s\": " << depth_seconds[4]
       << ", \"depth8_s\": " << depth_seconds[8] << ", \"depth16_s\": " << depth_seconds[16]
       << ", \"depth_unbounded_s\": " << unbounded_s
       << ",\n          \"knee_depth\": " << knee_depth
       << ", \"whole_file_9_s\": " << whole_file_s << ", \"downed_s\": " << downed_s
       << ", \"downed_io_errors\": " << downed_errors << "},\n"
       << "  \"measured\": {\"serial_s\": " << serial_s << ", \"parallel_s\": " << parallel_s
       << ", \"speedup\": " << measured_speedup << "},\n"
       << "  \"results_plane\": \"" << (measured_authoritative ? "measured" : "sim") << "\"\n"
       << "}\n";
  json.close();
  std::cout << "wrote " << out_path << "\n";

  fs::remove_all(root);
  return 0;
}
