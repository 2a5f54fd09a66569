#include "platform/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "pvfs/pvfs.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"

namespace ada::platform {

namespace {

/// Render working set: geometry buffers scale with the displayed subset.
constexpr double kRenderWorkingSetFraction = 0.005;

std::string fs_suffix(const Platform& platform) {
  switch (platform.kind) {
    case Platform::Kind::kLocalFs: return platform.local_fs->params().name;
    case Platform::Kind::kCluster: return "PVFS";
  }
  return "fs";
}

/// Bytes each scenario moves from storage to the compute node.
double loaded_bytes(Scenario scenario, const WorkloadSizes& sizes) {
  switch (scenario) {
    case Scenario::kCompressedFs: return sizes.compressed_bytes;
    case Scenario::kRawFs: return sizes.raw_bytes;
    case Scenario::kAdaAll: return sizes.raw_bytes;
    case Scenario::kAdaProtein: return sizes.protein_bytes;
  }
  return 0;
}

/// Cluster retrieval: run the striped-PVFS DES and return elapsed seconds.
double cluster_retrieval_seconds(const ClusterConfig& cluster, Scenario scenario,
                                 const WorkloadSizes& sizes, const PipelineOptions& options,
                                 std::size_t* io_errors) {
  using Instance = ClusterRead::Instance;
  using Placement = PipelineOptions::AdaClusterPlacement;
  ClusterReadSpec spec;
  spec.sg_extent_bytes = options.sg_extent_bytes;
  spec.sg_queue_depth = options.sg_queue_depth;
  spec.stripe_servers_override = options.stripe_servers_override;
  switch (scenario) {
    case Scenario::kCompressedFs:
    case Scenario::kRawFs:
      spec.reads.push_back(ClusterRead{Instance::kHybrid, loaded_bytes(scenario, sizes)});
      break;
    case Scenario::kAdaProtein:
      spec.reads.push_back(
          ClusterRead{options.ada_placement == Placement::kAllOnHdd ? Instance::kHdd : Instance::kSsd,
                      sizes.protein_bytes});
      break;
    case Scenario::kAdaAll:
      switch (options.ada_placement) {
        case Placement::kAllOnSsd:
          spec.reads.push_back(ClusterRead{Instance::kSsd, sizes.raw_bytes});
          break;
        case Placement::kAllOnHdd:
          spec.reads.push_back(ClusterRead{Instance::kHdd, sizes.raw_bytes});
          break;
        case Placement::kSplitSsdHdd:
          // Protein subset from the SSD instance, MISC from the HDD
          // instance, fetched concurrently.
          spec.reads.push_back(ClusterRead{Instance::kSsd, sizes.protein_bytes});
          spec.reads.push_back(ClusterRead{Instance::kHdd, sizes.raw_bytes - sizes.protein_bytes});
          break;
      }
      break;
  }
  const ClusterReadOutcome outcome = simulate_cluster_read(cluster, spec);
  if (io_errors != nullptr) *io_errors += outcome.io_errors;
  return outcome.seconds;
}

/// Internal phase description before slowdown/OOM resolution.
struct PhasePlan {
  std::string name;
  double base_seconds = 0;
  double mem_start = 0;
  double mem_end = 0;
  double cpu_fraction = 0;
  double disk_fraction = 0;
};

}  // namespace

ClusterReadOutcome simulate_cluster_read(const ClusterConfig& cluster,
                                         const ClusterReadSpec& spec) {
  sim::Simulator simulator;
  sim::FlowNetwork network(simulator);
  const unsigned nodes =
      cluster.compute_nodes + cluster.hdd_storage_nodes + cluster.ssd_storage_nodes;
  net::Fabric fabric(simulator, network,
                     net::FabricSpec{cluster.nic_bandwidth, cluster.backplane_bandwidth, 2e-6},
                     nodes);

  auto make_servers = [&](unsigned first, unsigned count, const storage::DeviceSpec& device) {
    std::vector<pvfs::IoServer> servers;
    const unsigned limit = spec.stripe_servers_override == 0
                               ? count
                               : std::min(count, spec.stripe_servers_override);
    for (unsigned i = 0; i < limit; ++i) {
      servers.push_back(pvfs::IoServer{first + i, device, cluster.disks_per_node});
    }
    return servers;
  };
  const unsigned hdd_first = cluster.compute_nodes;
  const unsigned ssd_first = cluster.compute_nodes + cluster.hdd_storage_nodes;
  const net::NodeId client = 0;

  ClusterReadOutcome outcome;
  int outstanding = 0;
  auto on_done = [&outstanding, &outcome](const Status& status) {
    if (!status.is_ok()) ++outcome.io_errors;
    --outstanding;
  };

  // Instances are built per spec; unused ones cost nothing.  The hybrid
  // instance spans all storage nodes (HDD then SSD); the dedicated
  // instances are built as a pair, matching the ADA deployment shape.
  std::optional<pvfs::PvfsModel> hybrid;
  std::optional<pvfs::PvfsModel> ssd_fs;
  std::optional<pvfs::PvfsModel> hdd_fs;
  bool want_hybrid = false;
  bool want_split = false;
  for (const ClusterRead& read : spec.reads) {
    (read.instance == ClusterRead::Instance::kHybrid ? want_hybrid : want_split) = true;
  }
  if (want_hybrid) {
    auto servers =
        make_servers(hdd_first, cluster.hdd_storage_nodes, storage::DeviceSpec::wd_hdd_1tb());
    auto ssd_servers = make_servers(ssd_first, cluster.ssd_storage_nodes,
                                    storage::DeviceSpec::plextor_ssd_256gb());
    servers.insert(servers.end(), ssd_servers.begin(), ssd_servers.end());
    hybrid.emplace(simulator, fabric, "pvfs", std::move(servers), hdd_first);
  }
  if (want_split) {
    ssd_fs.emplace(simulator, fabric, "pvfs-ssd",
                   make_servers(ssd_first, cluster.ssd_storage_nodes,
                                storage::DeviceSpec::plextor_ssd_256gb()),
                   ssd_first);
    hdd_fs.emplace(simulator, fabric, "pvfs-hdd",
                   make_servers(hdd_first, cluster.hdd_storage_nodes,
                                storage::DeviceSpec::wd_hdd_1tb()),
                   hdd_first);
  }

  auto issue = [&](pvfs::PvfsModel& fs, double bytes) {
    ++outstanding;
    if (spec.sg_extent_bytes > 0) {
      // Scatter-gather: split into extents and admit per server under the
      // queue depth.  read_file's whole-file stripes are the 0 default.
      const auto plan = fs.layout().extents(static_cast<std::uint64_t>(bytes),
                                            static_cast<std::uint64_t>(spec.sg_extent_bytes));
      std::vector<pvfs::ExtentRead> extents;
      extents.reserve(plan.size());
      for (const auto& extent : plan) {
        extents.push_back(pvfs::ExtentRead{static_cast<double>(extent.bytes), extent.server});
      }
      fs.read_extents(extents, client, pvfs::SgParams{spec.sg_queue_depth}, on_done);
    } else {
      fs.read_file(bytes, client, on_done);
    }
  };
  for (const ClusterRead& read : spec.reads) {
    switch (read.instance) {
      case ClusterRead::Instance::kHybrid: issue(*hybrid, read.bytes); break;
      case ClusterRead::Instance::kSsd: issue(*ssd_fs, read.bytes); break;
      case ClusterRead::Instance::kHdd: issue(*hdd_fs, read.bytes); break;
    }
  }
  ADA_CHECK(outstanding > 0);
  simulator.run_while_pending([&] { return outstanding == 0; });
  ADA_CHECK(outstanding == 0);
  outcome.seconds = simulator.now();
  return outcome;
}

std::string scenario_label(Scenario scenario, const Platform& platform) {
  const std::string fs = fs_suffix(platform);
  switch (scenario) {
    case Scenario::kCompressedFs: return "C-" + fs;
    case Scenario::kRawFs: return "D-" + fs;
    case Scenario::kAdaAll: return "D-ADA (all)";
    case Scenario::kAdaProtein: return "D-ADA (protein)";
  }
  return "?";
}

ScenarioResult run_scenario(const Platform& platform, Scenario scenario,
                            const WorkloadSizes& sizes, const PipelineOptions& options) {
  const CpuRates& cpu = platform.cpu;
  ScenarioResult result;
  result.scenario = scenario;
  result.label = scenario_label(scenario, platform);
  // Root span for the whole scenario: the DES below it emits sim-time lanes
  // that carry this trace id, so the merged timeline ties wall-clock model
  // evaluation to the simulated cluster activity it triggered.
  const obs::Span span("scenario", result.label);

  // --- raw retrieval time ------------------------------------------------------
  const double bytes_in = loaded_bytes(scenario, sizes);
  double retrieve_base = 0;
  switch (platform.kind) {
    case Platform::Kind::kLocalFs:
      retrieve_base = platform.local_fs->read_file_time(bytes_in);
      break;
    case Platform::Kind::kCluster:
      retrieve_base =
          cluster_retrieval_seconds(*platform.cluster, scenario, sizes, options, &result.io_errors);
      break;
  }

  const double window = std::min(sizes.compressed_bytes, platform.page_cache_window);
  const double render_ws = kRenderWorkingSetFraction * sizes.protein_bytes;
  const double render_cpu_s = sizes.protein_bytes / cpu.render_bps +
                              static_cast<double>(sizes.frames) * cpu.render_per_frame_s;

  // --- phase plan -----------------------------------------------------------------
  std::vector<PhasePlan> plan;
  auto add = [&plan](std::string name, double seconds, double mem_start, double mem_end,
                     double cpu_frac, double disk_frac) {
    plan.push_back(PhasePlan{std::move(name), seconds, mem_start, mem_end, cpu_frac, disk_frac});
  };

  switch (scenario) {
    case Scenario::kCompressedFs: {
      add("retrieve", retrieve_base, 0, window, 0.05, 1.0);
      add("decompress", sizes.raw_bytes / cpu.decompress_bps, window, window + sizes.raw_bytes,
          1.0, 0.1);
      add("filter", sizes.raw_bytes / cpu.filter_bps, window + sizes.raw_bytes,
          window + sizes.raw_bytes, 1.0, 0.0);
      add("render", render_cpu_s, window + sizes.raw_bytes,
          window + sizes.raw_bytes + render_ws, 1.0, 0.0);
      break;
    }
    case Scenario::kRawFs: {
      add("retrieve", retrieve_base, 0, sizes.raw_bytes, 0.05, 1.0);
      add("filter", sizes.raw_bytes / cpu.filter_bps, sizes.raw_bytes, sizes.raw_bytes, 1.0, 0.0);
      add("render", render_cpu_s, sizes.raw_bytes, sizes.raw_bytes + render_ws, 1.0, 0.0);
      break;
    }
    case Scenario::kAdaAll: {
      add("indexer", cpu.indexer_overhead_s, 0, 0, 0.2, 0.0);
      add("retrieve", retrieve_base, 0, sizes.raw_bytes, 0.05, 1.0);
      add("merge", sizes.raw_bytes / cpu.merge_bps, sizes.raw_bytes, sizes.raw_bytes, 1.0, 0.0);
      add("render", render_cpu_s, sizes.raw_bytes, sizes.raw_bytes + render_ws, 1.0, 0.0);
      break;
    }
    case Scenario::kAdaProtein: {
      add("indexer", cpu.indexer_overhead_s, 0, 0, 0.2, 0.0);
      add("retrieve", retrieve_base, 0, sizes.protein_bytes, 0.05, 1.0);
      add("render", render_cpu_s, sizes.protein_bytes, sizes.protein_bytes + render_ws, 1.0, 0.0);
      break;
    }
  }

  // --- execute: slowdown, OOM, metrics ------------------------------------------------
  const double usable = platform.dram_bytes * (1.0 - platform.os_reserve_fraction);
  storage::EnergyMeter meter(platform.power, platform.metered_nodes);
  double peak = 0;

  // Point slowdown at memory ratio r (capped exponential above the threshold).
  const auto thrash_at = [&platform](double ratio) {
    if (ratio <= platform.thrash_threshold) return 1.0;
    return std::min(platform.thrash_max_factor,
                    std::exp(platform.thrash_k * (ratio - platform.thrash_threshold)));
  };
  // Mean slowdown along a linear memory trajectory [m0, m1] (numeric
  // integration; exact enough at 64 points for a smooth exponential).
  const auto thrash_mean = [&](double m0, double m1) {
    if (m1 <= m0) return thrash_at(m0 / usable);
    constexpr int kSteps = 64;
    double sum = 0;
    for (int i = 0; i < kSteps; ++i) {
      const double m = m0 + (m1 - m0) * (i + 0.5) / kSteps;
      sum += thrash_at(m / usable);
    }
    return sum / kSteps;
  };

  for (const PhasePlan& phase : plan) {
    bool killed = false;
    double fraction = 1.0;
    double mem_end = phase.mem_end;
    if (phase.mem_end > usable) {
      // The growing allocation crosses usable capacity mid-phase: the OOM
      // killer fires after the corresponding fraction of the phase.
      const double growth = phase.mem_end - phase.mem_start;
      fraction = growth > 0 ? std::clamp((usable - phase.mem_start) / growth, 0.0, 1.0) : 0.0;
      mem_end = std::min(phase.mem_end, usable);
      killed = true;
    }
    const double factor =
        phase.cpu_fraction >= 0.5 ? thrash_mean(phase.mem_start, mem_end) : 1.0;
    const double seconds = phase.base_seconds * factor * fraction;

    result.phases.push_back(
        PhaseResult{phase.name, seconds, phase.cpu_fraction, phase.disk_fraction});
    meter.record({phase.name, seconds, phase.cpu_fraction, phase.disk_fraction});
    result.turnaround_s += seconds;
    if (phase.name == "retrieve" || phase.name == "indexer") {
      // Fig. 7a counts the indexer's tag search in the retrieval time
      // ("ADA needs to launch Indexer to search tags").
      result.retrieval_s += seconds;
    } else if (phase.name == "render") {
      result.render_s += seconds;
    } else {
      result.preprocess_s += seconds;
    }
    peak = std::max(peak, std::min(phase.mem_end, usable));
    if (killed) {
      result.oom = true;
      break;
    }
  }

  result.memory_peak_bytes = peak;
  result.energy_joules = meter.joules();
  return result;
}

std::vector<ScenarioResult> run_all_scenarios(const Platform& platform, const WorkloadSizes& sizes,
                                              const PipelineOptions& options) {
  std::vector<ScenarioResult> out;
  for (const Scenario scenario : {Scenario::kCompressedFs, Scenario::kRawFs, Scenario::kAdaAll,
                                  Scenario::kAdaProtein}) {
    out.push_back(run_scenario(platform, scenario, sizes, options));
  }
  return out;
}

}  // namespace ada::platform
