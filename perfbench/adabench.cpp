// End-to-end benchmark of ADA's functional plane (real bytes on real files).
//
// One process drives the public API of each layer -- categorizer,
// preprocessor, dispatcher, indexer/retriever, ingest stream, query cache,
// middleware, PLFS mount, CRC32C, serve -- through one of two workloads:
//
//   batch_ingest   Ada::ingest of paper-size GPCR phases under fresh names
//   cold_query     whole-subset Ada::query, cache off, over a catalog
//
// The live stream (1-frame chunks with a tail-following reader) and the
// served path (AdaService + query cache, Zipf popularity) have no end-to-end
// workload: on a shared host their sub-millisecond ops swing with the host's
// load beyond any usable bound from run to run.  Their layers are measured
// in the traced runs instead: the stream in batch_ingest's, the served path
// in cold_query's.
//
// Every workload builds its inputs from --seed, repeats its set-up
// kSetups times (setup_s is the median), then runs whole, fixed rounds of
// operations until --seconds of op time (wall clock) have been spent.  Every
// output is checked against a reference computed in set-up; a mismatch
// counts as a failed op and marks the run incorrect.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced pass
// of the facade, then the same operations through the next layer down, each
// call timed from here, and prints the per-layer metrics.  The last stdout
// line is the result object; the line before it ("info: {...}") records the
// machine, thread counts, file system and sizes.
//
//   adabench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
#include <malloc.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/dispatcher.hpp"
#include "ada/indexer.hpp"
#include "ada/label_store.hpp"
#include "ada/middleware.hpp"
#include "ada/preprocessor.hpp"
#include "ada/query_cache.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/metrics.hpp"
#include "plfs/container.hpp"
#include "plfs/plfs.hpp"
#include "serve/serve.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace {

using namespace ada;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Bytes = std::vector<std::uint8_t>;

// --- workload sizes -----------------------------------------------------------

// Every workload sets up this many times; setup_s is the median.
constexpr unsigned kSetups = 5;

// batch_ingest: a pool of paper-size phases reused round-robin; each round
// ingests kIngestRound fresh names, then reads a sample back.
constexpr std::uint32_t kPhases = 4;
constexpr std::uint32_t kPhaseFrames = 8;
constexpr std::uint32_t kIngestRound = 16;
constexpr std::uint32_t kReadbackEvery = 8;

// The live stream: its length is part of the workload (per-frame cost
// grows with stream position), never set by the time budget.
constexpr std::uint32_t kStreamFrames = 512;
constexpr auto kFollowerPoll = std::chrono::microseconds(1000);
constexpr double kFollowerTimeoutS = 60;

// cold_query catalog: dataset d holds kCatalogMinFrames + d
// frames, so subset sizes form a ladder and no percentile sits on a gap
// between two size classes.
constexpr std::uint32_t kCatalogDatasets = 13;
constexpr std::uint32_t kCatalogMinFrames = 3;
constexpr std::uint32_t kCatalogMaxFrames = kCatalogMinFrames + kCatalogDatasets - 1;

// The served replay: client threads + service workers == 4 (the build
// host's nproc); the cache holds the hot head of the catalog, not all of it.
constexpr unsigned kServeClients = 2;
constexpr unsigned kServeWorkers = 2;
constexpr std::uint64_t kServeCacheBytes = 96ull << 20;
constexpr double kZipfExponent = 1.1;
constexpr std::uint32_t kReplayRequests = 600;

// --- small utilities ----------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "adabench: %s\n", why.c_str());
  std::exit(2);
}

template <typename T>
T must(Result<T> result, const std::string& what) {
  if (!result.is_ok()) die(what + ": " + result.error().to_string());
  return std::move(result).value();
}

void must_ok(const Status& status, const std::string& what) {
  if (!status.is_ok()) die(what + ": " + status.to_string());
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Peak resident set of this process (VmHWM), MB, since the last
/// reset_peak_rss().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// Restart VmHWM from the current resident set, so peak_rss_mb() covers
/// only what follows.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) die("cannot reset the peak RSS through /proc/self/clear_refs");
}

std::uint64_t dir_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string fs_type(const fs::path& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

std::span<const std::uint8_t> as_bytes(const std::string& text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// --- result reporting -----------------------------------------------------------

struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) { info.push_back({key, value}); }
  void note(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(17);
    os << value;
    info.push_back({key, os.str()});
  }
  /// An output that does not match its reference: a failed op, and the
  /// whole run is marked incorrect.
  void mismatch(const std::string& what) {
    std::fprintf(stderr, "adabench: output mismatch: %s\n", what.c_str());
    ++failed;
    correct = false;
  }
};

void print_run(const Run& run) {
  std::string info = "info: {";
  for (std::size_t i = 0; i < run.info.size(); ++i) {
    info += (i ? ", \"" : "\"") + run.info[i].first + "\": \"" + run.info[i].second + "\"";
  }
  std::printf("%s}\n", info.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              run.correct ? "true" : "false", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const auto& [name, value] = run.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", name.c_str(),
                value.first, value.second.c_str());
  }
  std::printf("}}\n");
}

/// CPU time of the calling thread (user + kernel).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The start of one op on the calling thread, on both clocks.
struct OpStart {
  Clock::time_point wall = Clock::now();
  double cpu = thread_cpu_s();
};

/// What one timed phase measured.  An op's latency is its wall time, so
/// waits (locks, I/O, work handed to another thread) count.  The measuring
/// thread's CPU time is kept beside it only for the info line's
/// cpu_share_of_wall, which shows how much of the op time was waiting.
struct Timed {
  std::vector<double> op_ms;       // every op's wall time
  std::vector<double> round_mb_s;  // user MB/s of each round, on op time
  double busy_s = 0;               // op time spent so far (the run's budget)
  double cpu_s = 0;                // the measuring thread's CPU time in ops
  std::uint64_t round_bytes = 0;   // user bytes of the open round
  double round_start_s = 0;        // busy_s when the open round began
  double peak_mb = 0;              // highest VmHWM of any round's ops, MB
  double space_amp = 0;

  void op(const OpStart& start) {
    const double wall = seconds_since(start.wall);
    cpu_s += thread_cpu_s() - start.cpu;
    busy_s += wall;
    op_ms.push_back(wall * 1e3);
  }
  void end_round() {
    const double seconds = busy_s - round_start_s;
    if (seconds > 0) round_mb_s.push_back(static_cast<double>(round_bytes) / 1e6 / seconds);
    round_bytes = 0;
    round_start_s = busy_s;
    peak_mb = std::max(peak_mb, peak_rss_mb());
  }
  /// Keep going until `budget` seconds of op time are spent (at least one
  /// op).  Each round's peak RSS covers its ops, not the untimed checks
  /// between rounds.  Before each round the allocator hands its free memory
  /// back to the kernel: how much freed memory a thread's arena keeps
  /// depends on thread timing (with a follower thread, the live stream's peak
  /// RSS read 57, 60 or 64 MB from run to run without this), and it would
  /// count in the next round's peak.  Memory the program still holds is not
  /// released, so growth still shows.
  bool more(double budget) {
    if (busy_s >= budget && !op_ms.empty()) return false;
    malloc_trim(0);
    reset_peak_rss();
    return true;
  }
  double mean_ms() const { return mean(op_ms); }
};

/// The end-to-end metrics every workload reports with tracing off.  mb_s is
/// the median over rounds, so a burst of interference from outside the
/// process moves one round, not the run.
void end_to_end(Run& run, double setup_s, const Timed& t) {
  const std::vector<double>& op_ms = t.op_ms;
  run.metric("setup_s", setup_s, "s");
  run.metric("mb_s", median(t.round_mb_s), "MB/s");
  run.metric("op_ms_p50", percentile(op_ms, 0.5), "ms");
  run.metric("op_ms_p90", percentile(op_ms, 0.9), "ms");
  run.metric("peak_rss_mb", t.peak_mb, "MB");
  run.metric("space_amp", t.space_amp, "ratio");
  run.note("ops_timed", static_cast<double>(op_ms.size()));
  run.note("cpu_share_of_wall", t.busy_s > 0 ? t.cpu_s / t.busy_s : 0);
  run.note("rounds", static_cast<double>(t.round_mb_s.size()));
  std::string deciles;
  for (int d = 1; d <= 9; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", d > 1 ? " " : "", percentile(op_ms, d / 10.0));
    deciles += buf;
  }
  run.note("op_ms_deciles", deciles);
  std::string rounds;
  for (const double mb_s : t.round_mb_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", rounds.empty() ? "" : " ", mb_s);
    rounds += buf;
  }
  run.note("round_mb_s", rounds);
}

/// Runs the untraced pass and the traced pass of a --trace 1 run in
/// alternating slices, `seconds` of op time each in all, so both passes see
/// the same host conditions.  pass(budget, traced, slice) runs one pass up
/// to a cumulative `budget` of its op time.
template <typename Pass>
void interleave(double seconds, const Pass& pass) {
  constexpr int kSlices = 4;
  for (int k = 1; k <= kSlices; ++k) {
    pass(seconds * k / kSlices, false, k);
    pass(seconds * k / kSlices, true, k);
  }
}

/// Every per-layer metric, in BENCHMARK.json order; a workload overwrites
/// the ones it measures and the rest stay 0 ("not measured here").
struct Layers {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values = {
      {"categorize.ms", {0, "ms"}},   {"decode.ms", {0, "ms"}},
      {"split.ms", {0, "ms"}},        {"dispatch.ms", {0, "ms"}},
      {"crc.ms", {0, "ms"}},          {"append.ms", {0, "ms"}},
      {"state_write.ms", {0, "ms"}},  {"index.bytes", {0, "bytes"}},
      {"tail.ms", {0, "ms"}},         {"locate.ms", {0, "ms"}},
      {"read.ms", {0, "ms"}},         {"copy.ms", {0, "ms"}},
      {"read_amp", {0, "ratio"}},     {"cache.hit_ratio", {0, "ratio"}},
      {"cache.evictions", {0, "count"}}, {"serve.fills", {0, "count"}},
      {"serve.coalesced_ratio", {0, "ratio"}}, {"serve.refused", {0, "count"}},
      {"coverage", {0, "ratio"}},     {"trace_overhead", {0, "ratio"}},
  };
  void set(const std::string& name, double value) {
    for (auto& [key, v] : values) {
      if (key == name) {
        v.first = value;
        return;
      }
    }
    die("unknown layer metric " + name);
  }
  void emit(Run& run) const {
    for (const auto& [name, v] : values) run.metric(name, v.first, v.second);
  }
};

// --- inputs ------------------------------------------------------------------

core::AdaConfig base_config() {
  core::AdaConfig config;
  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  return config;
}

plfs::PlfsMount open_mount(const fs::path& root) {
  return must(plfs::PlfsMount::open({{"ssd", (root / "ssd").string()},
                                     {"hdd", (root / "hdd").string()}}),
              "open backends under " + root.string());
}

/// A seeded synthetic GPCR system and `frames` frames of its dynamics.
struct Trajectory {
  chem::System system;
  core::LabelMap labels;
  Bytes xtc;                                     // codec v1: frames are independent
  std::vector<formats::XtcFrameExtent> extents;  // one per frame
  std::vector<std::vector<float>> coords;        // kept only when asked for
  std::vector<std::uint32_t> steps;
  std::vector<float> times;

  /// Frames [first, first + count) as a standalone XTC image.
  std::span<const std::uint8_t> frames(std::uint32_t first, std::uint32_t count) const {
    const std::size_t begin = extents[first].offset;
    const auto& last = extents[first + count - 1];
    return {xtc.data() + begin, last.offset + last.size - begin};
  }
};

Trajectory make_trajectory(workload::GpcrSpec spec, std::uint64_t seed, std::uint32_t frames,
                           bool keep_coords) {
  spec.seed = seed * 7919 + 1;
  workload::DynamicsSpec dynamics;
  dynamics.seed = seed;
  Trajectory traj{workload::GpcrSystemBuilder(spec).build(), {}, {}, {}, {}, {}, {}};
  traj.labels = core::categorize_protein_misc(traj.system);
  workload::TrajectoryGenerator gen(traj.system, dynamics);
  formats::XtcWriter writer;
  for (std::uint32_t f = 0; f < frames; ++f) {
    const std::uint32_t step = gen.current_step();
    const float time = gen.current_time_ps();
    const auto coords = gen.next_frame();
    must_ok(writer.add_frame(step, time, traj.system.box(), coords), "encode frame");
    if (keep_coords) {
      traj.coords.emplace_back(coords.begin(), coords.end());
      traj.steps.push_back(step);
      traj.times.push_back(time);
    }
  }
  traj.xtc = writer.take();
  traj.extents = must(formats::scan_xtc_extents(traj.xtc), "scan xtc");
  return traj;
}

/// Per-tag RAW images of a whole trajectory: the reference every read is
/// checked against (a frame range is a slice of it).
using Reference = std::map<core::Tag, Bytes>;

Reference split_reference(const Trajectory& traj) {
  return must(core::DataPreProcessor(traj.labels).split(traj.xtc), "reference split");
}

/// True when `got` is the canonical RAW image of frames [first, first+count)
/// of `full` (one 16-byte header, then the frame records).
bool same_frames(std::span<const std::uint8_t> got, const Bytes& full, std::uint32_t first,
                 std::uint32_t count) {
  const std::uint32_t atoms = must(formats::RawTrajReader::open(full), "reference").atom_count();
  const std::size_t frame = formats::raw_frame_bytes(atoms);
  if (got.size() != 16 + count * frame) return false;
  if (std::memcmp(got.data(), full.data(), 12) != 0) return false;  // magic + atoms
  std::uint32_t got_frames = 0;
  std::memcpy(&got_frames, got.data() + 12, 4);
  if (got_frames != count) return false;
  return std::memcmp(got.data() + 16, full.data() + 16 + first * frame, count * frame) == 0;
}

/// Repeat `make` kSetups times, each under a fresh directory of `root`,
/// timing each; returns the last and stores the median time.  Earlier
/// set-ups' files stay until the run has recorded its metrics.  The peak
/// RSS of the set-ups goes to the info line.
template <typename Make>
auto timed_setups(const fs::path& root, double* setup_s, Run& run, Make make) {
  std::vector<double> times;
  decltype(make(root)) last;
  for (unsigned k = 0; k < kSetups; ++k) {
    last = {};
    const auto t0 = Clock::now();
    last = make(root / ("setup" + std::to_string(k)));
    times.push_back(seconds_since(t0));
  }
  *setup_s = median(times);
  std::string each;
  for (const double s : times) each += (each.empty() ? "" : " ") + std::to_string(s);
  run.note("setup_s_each", each);
  run.note("setup_peak_rss_mb", peak_rss_mb());
  return last;
}

// --- batch_ingest --------------------------------------------------------------

void stream_layers(std::uint64_t seed, double seconds, const fs::path& root, Run& run,
                   Layers& layers);

struct IngestInputs {
  fs::path root;
  std::unique_ptr<Trajectory> traj;
  Reference reference;
  std::unique_ptr<core::Ada> ada;
};

IngestInputs ingest_setup(std::uint64_t seed, const fs::path& root) {
  IngestInputs in;
  in.root = root;
  in.traj = std::make_unique<Trajectory>(
      make_trajectory(workload::GpcrSpec::paper_default(), seed, kPhases * kPhaseFrames, false));
  in.reference = split_reference(*in.traj);
  in.ada = std::make_unique<core::Ada>(open_mount(root), base_config());
  return in;
}

/// One ingest op as the untraced facade does it, or as the traced run does
/// it through the next layer down (timing each layer into `layer_s`).
using IngestOp = std::function<bool(std::span<const std::uint8_t> phase, const std::string& name)>;

/// Rounds of kIngestRound ingests until `seconds` of op time are spent.
/// After each round (untimed) a sample is read back and checked, the space
/// is measured once, and the round's containers are removed.
void ingest_rounds(IngestInputs& in, Run& run, double seconds, const std::string& prefix,
                   const IngestOp& op, Timed* t) {
  core::Ada& ada = *in.ada;
  std::uint64_t serial = 0;
  while (t->more(seconds)) {
    std::vector<std::pair<std::string, std::uint32_t>> names;
    for (std::uint32_t i = 0; i < kIngestRound; ++i, ++serial) {
      const auto phase_id = static_cast<std::uint32_t>(serial % kPhases);
      const std::string name = prefix + std::to_string(serial) + ".xtc";
      const auto phase = in.traj->frames(phase_id * kPhaseFrames, kPhaseFrames);
      ++run.attempted;
      const OpStart started;
      const bool ok = op(phase, name);
      t->op(started);
      if (!ok) {
        ++run.failed;
        continue;
      }
      t->round_bytes += phase.size();
      names.push_back({name, phase_id});
    }
    t->end_round();
    for (std::size_t i = 0; i < names.size(); i += kReadbackEvery) {
      const auto& [name, phase_id] = names[i];
      for (const auto& [tag, full] : in.reference) {
        const auto got = ada.query(name, tag);
        if (!got.is_ok() ||
            !same_frames(got.value(), full, phase_id * kPhaseFrames, kPhaseFrames)) {
          run.mismatch("ingested " + name + " tag " + tag + " reads back wrong");
        }
      }
    }
    if (t->space_amp == 0 && names.size() == kIngestRound) {
      t->space_amp = static_cast<double>(dir_bytes(in.root)) /
                   static_cast<double>(kIngestRound * formats::raw_file_bytes(
                                                          in.traj->system.atom_count(),
                                                          kPhaseFrames));
    }
    for (const auto& [name, phase_id] : names) {
      must_ok(ada.mount().remove_container(name), "remove " + name);
    }
  }
}

void batch_ingest(std::uint64_t seed, double seconds, bool trace,
                  const fs::path& root, Run& run) {
  double setup_s = 0;
  IngestInputs in = timed_setups(root, &setup_s, run,
                                 [&](const fs::path& dir) { return ingest_setup(seed, dir); });
  core::Ada& ada = *in.ada;
  const chem::System& system = in.traj->system;
  run.note("threads", "1 client; AdaConfig::threads=1");
  run.note("phase", std::to_string(kPhases) + " phases x " + std::to_string(kPhaseFrames) +
                        " frames x " + std::to_string(system.atom_count()) + " atoms");
  run.note("phase_xtc_bytes", static_cast<double>(in.traj->xtc.size() / kPhases));

  auto facade = [&](std::span<const std::uint8_t> phase, const std::string& name) {
    const auto report = ada.ingest(system, phase, name);
    if (!report.is_ok()) return false;
    // The report's subset sizes must match the reference split.
    for (const auto& [tag, full] : in.reference) {
      const auto it = report.value().preprocess.subset_bytes.find(tag);
      const std::uint64_t want = formats::raw_file_bytes(
          static_cast<std::uint32_t>(in.traj->labels.tag_atoms(tag)), kPhaseFrames);
      if (it == report.value().preprocess.subset_bytes.end() || it->second != want) {
        run.mismatch("ingest report of " + name + " has the wrong size for tag " + tag);
        return true;  // already counted as failed
      }
    }
    return true;
  };

  Timed untraced;
  if (!trace) {
    ingest_rounds(in, run, seconds, "b", facade, &untraced);
    end_to_end(run, setup_s, untraced);
    return;
  }

  // Traced: the facade, alternating with the same work through
  // categorize -> split -> dispatch, each timed here.
  core::IoDispatcher dispatcher(ada.mount(), ada.config().placement, ada.config().frame_tables);
  double cat_s = 0, split_s = 0, decode_s = 0, dispatch_s = 0, crc_s = 0;
  auto traced = [&](std::span<const std::uint8_t> phase, const std::string& name) {
    auto t0 = Clock::now();
    const core::LabelMap labels = core::categorize_protein_misc(system);
    cat_s += seconds_since(t0);
    t0 = Clock::now();
    core::PreprocessStats stats;
    const auto subsets = core::DataPreProcessor(labels).split(phase, &stats, 1);
    split_s += seconds_since(t0);
    decode_s += stats.decompress_wall_seconds;
    if (!subsets.is_ok()) return false;
    t0 = Clock::now();
    const std::string label_text = core::encode_label_file(labels);
    const bool ok = dispatcher.dispatch(name, subsets.value()).is_ok() &&
                    dispatcher.dispatch_one(name, core::kLabelFileTag, as_bytes(label_text)).is_ok();
    dispatch_s += seconds_since(t0);
    return ok;
  };
  Timed layered;
  interleave(seconds * 0.35, [&](double budget, bool traced_pass, int k) {
    const std::string prefix = std::string(traced_pass ? "t" : "u") + std::to_string(k) + "-";
    if (traced_pass) {
      ingest_rounds(in, run, budget, prefix, traced, &layered);
    } else {
      ingest_rounds(in, run, budget, prefix, facade, &untraced);
    }
  });
  const double untraced_ms = untraced.mean_ms();
  // The checksum share, recomputed outside the op over the bytes dispatch
  // checksums (one pass per subset).
  const core::DataPreProcessor pre(in.traj->labels);
  std::uint64_t crc_ops = 0;
  for (std::uint32_t p = 0; p < kPhases; ++p) {
    const auto subsets = must(pre.split(in.traj->frames(p * kPhaseFrames, kPhaseFrames)), "split");
    for (int rep = 0; rep < 4; ++rep, ++crc_ops) {
      const auto t0 = Clock::now();
      for (const auto& [tag, image] : subsets) (void)crc32c(image);
      crc_s += seconds_since(t0);
    }
  }
  const double n = static_cast<double>(layered.op_ms.size());
  Layers layers;
  layers.set("categorize.ms", cat_s * 1e3 / n);
  layers.set("decode.ms", decode_s * 1e3 / n);
  layers.set("split.ms", (split_s - decode_s) * 1e3 / n);
  layers.set("dispatch.ms", dispatch_s * 1e3 / n);
  layers.set("crc.ms", crc_s * 1e3 / static_cast<double>(crc_ops));
  layers.set("coverage", (cat_s + split_s + dispatch_s) * 1e3 / n / untraced_ms);
  layers.set("trace_overhead", layered.mean_ms() / untraced_ms - 1);
  stream_layers(seed, seconds * 0.3, root / "stream", run, layers);
  layers.emit(run);
  run.note("untraced_op_ms_mean", untraced_ms);
  run.note("traced_op_ms_mean", layered.mean_ms());
}

// --- the live stream (batch_ingest's traced run) -----------------------------------

struct StreamInputs {
  fs::path root;
  std::unique_ptr<Trajectory> traj;
  Reference reference;  // per-tag canonical RAW of the whole stream
  std::unique_ptr<core::Ada> producer;
  std::unique_ptr<core::Ada> reader;  // a second middleware over the same backends
};

StreamInputs stream_setup(std::uint64_t seed, const fs::path& root) {
  StreamInputs in;
  in.root = root;
  in.traj = std::make_unique<Trajectory>(
      make_trajectory(workload::GpcrSpec::tiny(), seed, kStreamFrames, true));
  for (const auto& [tag, selection] : in.traj->labels.groups) {
    formats::RawTrajWriter writer(static_cast<std::uint32_t>(selection.count()));
    for (std::uint32_t f = 0; f < kStreamFrames; ++f) {
      must_ok(writer.add_frame(in.traj->steps[f], in.traj->times[f], in.traj->system.box(),
                               formats::extract_subset(in.traj->coords[f], selection)),
              "reference frame");
    }
    in.reference[tag] = writer.finish();
  }
  in.producer = std::make_unique<core::Ada>(open_mount(root), base_config());
  in.reader = std::make_unique<core::Ada>(open_mount(root), base_config());
  return in;
}

/// Drains Ada::query_tail for one tag until the stream seals, on its own
/// thread, pacing empty polls; the payload is the frame records drained.
class Follower {
 public:
  /// `expected_bytes` sizes the payload up front, so its growth does not
  /// show in the run's peak RSS.
  Follower(const core::Ada& reader, std::string name, core::Tag tag, std::size_t expected_bytes)
      : reader_(reader), name_(std::move(name)), tag_(std::move(tag)),
        payload_(reserved(expected_bytes)), thread_([this] { loop(); }) {}
  ~Follower() { join(); }
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  bool ok() const { return ok_; }
  const Bytes& payload() const { return payload_; }
  const std::vector<double>& poll_ms() const { return poll_ms_; }

 private:
  static Bytes reserved(std::size_t bytes) {
    Bytes out;
    out.reserve(bytes);
    return out;
  }

  void loop() {
    const auto start = Clock::now();
    std::uint64_t cursor = 0;
    while (seconds_since(start) < kFollowerTimeoutS) {
      const auto t0 = Clock::now();
      const auto chunk = reader_.query_tail(name_, tag_, cursor);
      poll_ms_.push_back(seconds_since(t0) * 1e3);
      if (!chunk.is_ok()) break;
      const auto& c = chunk.value();
      if (!c.image.empty()) payload_.insert(payload_.end(), c.image.begin() + 16, c.image.end());
      cursor += c.frames;
      if (c.sealed && c.frames == 0) {
        ok_ = true;
        return;
      }
      if (c.frames == 0) std::this_thread::sleep_for(kFollowerPoll);
    }
  }

  const core::Ada& reader_;
  std::string name_;
  core::Tag tag_;
  Bytes payload_;
  std::vector<double> poll_ms_;
  bool ok_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// One stream of kStreamFrames frames in 1-frame chunks: `begin` creates
/// it, `add_frame` publishes frame f, `finish` seals it.
struct StreamOps {
  std::function<Status(const std::string& name)> begin;
  std::function<Status(std::uint32_t f)> add_frame;
  std::function<Status()> finish;
};

void stream_rounds(StreamInputs& in, Run& run, double seconds, const std::string& prefix,
                   const StreamOps& ops, Timed* t, std::vector<double>* tail_ms,
                   std::uint64_t* index_bytes) {
  const core::Tag follow_tag = core::kProteinTag;
  std::uint64_t frame_bytes = 0;
  for (const auto& [tag, selection] : in.traj->labels.groups) {
    frame_bytes += formats::raw_frame_bytes(static_cast<std::uint32_t>(selection.count()));
  }
  for (std::uint32_t round = 0; t->more(seconds); ++round) {
    const std::string name = prefix + std::to_string(round) + ".xtc";
    must_ok(ops.begin(name), "begin stream " + name);
    Follower follower(*in.reader, name, follow_tag, in.reference.at(follow_tag).size());
    for (std::uint32_t f = 0; f < kStreamFrames; ++f) {
      ++run.attempted;
      const OpStart started;
      const Status status = ops.add_frame(f);
      t->op(started);
      if (!status.is_ok()) {
        ++run.failed;
      } else {
        t->round_bytes += frame_bytes;
      }
    }
    t->end_round();
    if (!ops.finish().is_ok()) run.mismatch("stream " + name + " did not seal");
    follower.join();
    tail_ms->insert(tail_ms->end(), follower.poll_ms().begin(), follower.poll_ms().end());

    // The one-shot read after finish() must equal the reference, and the
    // follower's drained payload must be a byte prefix of it (here: all of it).
    for (const auto& [tag, full] : in.reference) {
      const auto got = in.reader->query(name, tag, core::FrameRange{});
      if (!got.is_ok() || !same_frames(got.value(), full, 0, kStreamFrames)) {
        run.mismatch("stream " + name + " tag " + tag + " reads back wrong");
      }
    }
    const Bytes& full = in.reference.at(follow_tag);
    const Bytes& drained = follower.payload();
    if (!follower.ok() || drained.size() != full.size() - 16 ||
        std::memcmp(drained.data(), full.data() + 16, drained.size()) != 0) {
      run.mismatch("follower of " + name + " drained " + std::to_string(drained.size()) +
                   " bytes that are not the stream's frames");
    }
    if (t->space_amp == 0) {
      t->space_amp = static_cast<double>(dir_bytes(in.root)) /
                   static_cast<double>(formats::raw_file_bytes(in.traj->system.atom_count(),
                                                               kStreamFrames));
    }
    if (index_bytes != nullptr) {
      *index_bytes = plfs::encode_index(must(in.producer->mount().read_index(name), "index"))
                         .size();
    }
    must_ok(in.producer->mount().remove_container(name), "remove " + name);
  }
}

/// The live stream's layers, in batch_ingest's traced run: the facade
/// (IngestStream::add_frame) alternating with its publish path through the
/// layers it composes, each timed here.  The stream's own coverage and
/// tracing overhead go to the info line.
void stream_layers(std::uint64_t seed, double seconds, const fs::path& root, Run& run,
                   Layers& layers) {
  StreamInputs in = stream_setup(seed, root);
  const Trajectory& traj = *in.traj;
  run.note("stream_threads", "1 producer + 1 follower; AdaConfig::threads=1");
  run.note("stream", std::to_string(kStreamFrames) + " frames x " +
                         std::to_string(traj.system.atom_count()) + " atoms, 1-frame chunks");

  std::unique_ptr<core::IngestStream> stream;
  StreamOps facade;
  facade.begin = [&](const std::string& name) -> Status {
    auto begun = in.producer->begin_stream(traj.labels, name, 1);
    if (!begun.is_ok()) return begun.error();
    stream = std::make_unique<core::IngestStream>(std::move(begun).value());
    return Status::ok();
  };
  facade.add_frame = [&](std::uint32_t f) {
    return stream->add_frame(traj.steps[f], traj.times[f], traj.system.box(), traj.coords[f]);
  };
  facade.finish = [&]() -> Status {
    const auto report = stream->finish();
    return report.is_ok() ? Status::ok() : Status(report.error());
  };

  // The publish path: per-tag RAW chunk, IoDispatcher::dispatch_one per
  // tag, then PlfsMount::write_stream_state.
  plfs::PlfsMount& mount = in.producer->mount();
  core::IoDispatcher dispatcher(mount, in.producer->config().placement,
                                in.producer->config().frame_tables);
  std::string current;
  plfs::StreamState state;
  double build_s = 0, append_s = 0, state_s = 0;
  StreamOps layered;
  layered.begin = [&](const std::string& name) -> Status {
    current = name;
    state = plfs::StreamState{};
    if (Status s = mount.create_container(name); !s.is_ok()) return s;
    return mount.write_stream_state(name, state);
  };
  layered.add_frame = [&](std::uint32_t f) -> Status {
    auto t0 = Clock::now();
    std::map<core::Tag, Bytes> chunk;
    for (const auto& [tag, selection] : traj.labels.groups) {
      formats::RawTrajWriter writer(static_cast<std::uint32_t>(selection.count()));
      if (Status s = writer.add_frame(traj.steps[f], traj.times[f], traj.system.box(),
                                      formats::extract_subset(traj.coords[f], selection));
          !s.is_ok()) {
        return s;
      }
      chunk[tag] = writer.finish();
    }
    build_s += seconds_since(t0);
    t0 = Clock::now();
    const std::uint64_t first = state.sealed_frames;
    for (const auto& [tag, image] : chunk) {
      const auto record = dispatcher.dispatch_one(current, tag, image, &first, 1);
      if (!record.is_ok()) return record.error();
    }
    append_s += seconds_since(t0);
    t0 = Clock::now();
    state.sealed_frames += 1;
    state.sealed_chunks += 1;
    const Status published = mount.write_stream_state(current, state);
    state_s += seconds_since(t0);
    return published;
  };
  layered.finish = [&]() -> Status {
    const std::string label_text = core::encode_label_file(traj.labels);
    const auto record = dispatcher.dispatch_one(current, core::kLabelFileTag, as_bytes(label_text));
    if (!record.is_ok()) return record.error();
    state.sealed = true;
    return mount.write_stream_state(current, state);
  };
  Timed untraced;
  Timed traced;
  std::vector<double> tail_ms;
  std::vector<double> traced_tail_ms;
  std::uint64_t index_bytes = 0;
  interleave(seconds / 2, [&](double budget, bool traced_pass, int k) {
    const std::string prefix = std::string(traced_pass ? "t" : "u") + std::to_string(k) + "-";
    if (traced_pass) {
      stream_rounds(in, run, budget, prefix, layered, &traced, &traced_tail_ms, &index_bytes);
    } else {
      stream_rounds(in, run, budget, prefix, facade, &untraced, &tail_ms, nullptr);
    }
  });
  const double untraced_ms = untraced.mean_ms();
  const double n = static_cast<double>(traced.op_ms.size());
  layers.set("append.ms", append_s * 1e3 / n);
  layers.set("state_write.ms", state_s * 1e3 / n);
  layers.set("index.bytes", static_cast<double>(index_bytes));
  layers.set("tail.ms", mean(traced_tail_ms));
  run.note("stream_coverage", (build_s + append_s + state_s) * 1e3 / n / untraced_ms);
  run.note("stream_trace_overhead", traced.mean_ms() / untraced_ms - 1);
  run.note("stream_untraced_op_ms_mean", untraced_ms);
  run.note("stream_traced_op_ms_mean", traced.mean_ms());
  run.note("stream_chunk_build_ms", build_s * 1e3 / n);
}

// --- catalog (cold_query) --------------------------------------------

struct Catalog {
  fs::path root;
  std::unique_ptr<Trajectory> traj;
  Reference reference;
  std::unique_ptr<core::Ada> ada;
  std::vector<std::string> names;  // dataset d holds kCatalogMinFrames + d frames
  std::uint64_t raw_bytes = 0;     // user RAW bytes of the whole catalog
};

std::uint32_t catalog_frames(std::size_t d) {
  return kCatalogMinFrames + static_cast<std::uint32_t>(d);
}

Catalog catalog_setup(std::uint64_t seed, const fs::path& root, const core::AdaConfig& config) {
  Catalog cat;
  cat.root = root;
  cat.traj = std::make_unique<Trajectory>(
      make_trajectory(workload::GpcrSpec::paper_default(), seed, kCatalogMaxFrames, false));
  cat.reference = split_reference(*cat.traj);
  cat.ada = std::make_unique<core::Ada>(open_mount(root), config);
  for (std::uint32_t d = 0; d < kCatalogDatasets; ++d) {
    const std::string name = std::string("c") + std::to_string(d) + ".xtc";
    must(cat.ada->ingest(cat.traj->system, cat.traj->frames(0, catalog_frames(d)), name),
         "ingest catalog " + name);
    cat.names.push_back(name);
    cat.raw_bytes += formats::raw_file_bytes(cat.traj->system.atom_count(), catalog_frames(d));
  }
  return cat;
}

double catalog_space_amp(const Catalog& cat) {
  return static_cast<double>(dir_bytes(cat.root)) / static_cast<double>(cat.raw_bytes);
}

// --- the served replay (cold_query's traced run) -----------------------------------

/// One catalog request and the slice of the reference it must return.
struct Entry {
  serve::Request request;
  std::size_t dataset = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Every (dataset, tag) as a whole-subset request and as its two frame-range
/// halves, in a fixed popularity order (the seed only draws the sequence).
std::vector<Entry> serve_entries(const Catalog& cat) {
  std::vector<Entry> by_id;
  for (std::size_t d = 0; d < cat.names.size(); ++d) {
    const std::uint32_t frames = catalog_frames(d);
    for (const auto& [tag, full] : cat.reference) {
      Entry whole;
      whole.request.logical_name = cat.names[d];
      whole.request.tag = tag;
      whole.dataset = d;
      whole.count = frames;
      by_id.push_back(whole);
      for (std::uint32_t half = 0; half < 2; ++half) {
        Entry range = whole;
        range.request.kind = serve::RequestKind::kRange;
        range.first = half == 0 ? 0 : frames / 2;
        range.count = half == 0 ? frames / 2 : frames - frames / 2;
        range.request.range = core::FrameRange{range.first, range.first + range.count, 1};
        by_id.push_back(range);
      }
    }
  }
  // Rank r -> entry (r * 29) mod n: a fixed permutation that spreads kinds
  // and sizes over the popularity ranks.
  std::vector<Entry> ranked(by_id.size());
  for (std::size_t r = 0; r < by_id.size(); ++r) ranked[r] = by_id[(r * 29) % by_id.size()];
  return ranked;
}

class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, std::uint64_t seed) : rng_(seed) {
    double total = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t pick() {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// The serve and cache layers over the catalog: one AdaService with the
/// query cache armed, Zipf popularity over whole-subset and frame-range
/// requests, every reply checked.  Pass A: kServeClients closed-loop
/// clients for `seconds` (serve.coalesced_ratio, serve.refused).  Pass B:
/// one client replays a fixed kReplayRequests-long sequence through a fresh
/// cache, so its counts repeat exactly for a seed.
void served_layers(const Catalog& cat, std::uint64_t seed, double seconds, Run& run,
                   Layers& layers) {
  const std::vector<Entry> entries = serve_entries(cat);
  core::AdaConfig config = base_config();
  config.cache_bytes = kServeCacheBytes;
  serve::ServeConfig serve_cfg;
  serve_cfg.workers = kServeWorkers;
  run.note("served", std::to_string(kServeClients) + " closed-loop clients + " +
                         std::to_string(kServeWorkers) + " service workers; " +
                         std::to_string(entries.size()) + " requests, Zipf s=1.1");
  run.note("served_cache_bytes", static_cast<double>(kServeCacheBytes));

  std::mutex mu;  // guards the run's counters across client threads
  auto served = [&](serve::AdaService& service, const Entry& e) -> Result<std::size_t> {
    const auto reply = service.execute(e.request);
    if (!reply.is_ok()) return reply.error();
    if (!same_frames(*reply.value().image, cat.reference.at(e.request.tag), e.first, e.count)) {
      const std::lock_guard lock(mu);
      run.mismatch(e.request.logical_name + " tag " + e.request.tag + " frames " +
                   std::to_string(e.first) + "+" + std::to_string(e.count) + " served wrong");
    }
    return reply.value().image->size();
  };

  {
    core::Ada ada(open_mount(cat.root), config);
    serve::AdaService service(ada, serve_cfg);
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        ZipfPicker picker(entries.size(), seed * 1000003 + c);
        std::uint64_t attempted = 0, failed = 0;
        while (seconds_since(start) < seconds) {
          ++attempted;
          if (!served(service, entries[picker.pick()]).is_ok()) ++failed;
        }
        const std::lock_guard lock(mu);
        run.attempted += attempted;
        run.failed += failed;
      });
    }
    for (std::thread& client : clients) client.join();
    service.stop();
    const serve::ServeStats st = service.stats();
    layers.set("serve.coalesced_ratio",
               st.completed ? static_cast<double>(st.coalesced) / static_cast<double>(st.completed)
                            : 0);
    layers.set("serve.refused", static_cast<double>(st.rejected_overload + st.rejected_quota));
  }

  // Bytes read from droppings: one whole dropping per cache miss (every
  // subset is one extent, and a range block spans the extent).
  core::Ada ada(open_mount(cat.root), config);
  serve::AdaService service(ada, serve_cfg);
  const core::Indexer indexer(ada.mount());
  std::map<std::string, std::uint64_t> dropping_bytes;  // by name + "/" + tag
  for (const Entry& e : entries) {
    std::uint64_t total = 0;
    for (const auto& loc : must(indexer.locate(e.request.logical_name, e.request.tag), "locate")) {
      total += fs::file_size(loc.host_path);
    }
    dropping_bytes[e.request.logical_name + "/" + e.request.tag] = total;
  }
  ZipfPicker picker(entries.size(), seed * 1000003 + 7);
  std::uint64_t read = 0, returned = 0, misses_before = 0;
  for (std::uint32_t i = 0; i < kReplayRequests; ++i) {
    const Entry& e = entries[picker.pick()];
    ++run.attempted;
    const auto bytes = served(service, e);
    if (!bytes.is_ok()) {
      ++run.failed;
      continue;
    }
    returned += bytes.value();
    const std::uint64_t misses = ada.query_cache()->stats().misses;
    read += (misses - misses_before) * dropping_bytes[e.request.logical_name + "/" + e.request.tag];
    misses_before = misses;
  }
  service.stop();
  const auto cs = ada.query_cache()->stats();
  layers.set("cache.hit_ratio",
             static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses));
  layers.set("cache.evictions", static_cast<double>(cs.evictions));
  layers.set("serve.fills", static_cast<double>(service.stats().fills));
  layers.set("read_amp", static_cast<double>(read) / static_cast<double>(returned));
}

// --- cold_query ------------------------------------------------------------------

void cold_query(std::uint64_t seed, double seconds, bool trace,
                const fs::path& root, Run& run) {
  double setup_s = 0;
  Catalog cat = timed_setups(root, &setup_s, run, [&](const fs::path& dir) {
    return catalog_setup(seed, dir, base_config());
  });
  run.note("threads", "1 client; cache off; serial read path");
  run.note("catalog", std::to_string(kCatalogDatasets) + " datasets x " +
                          std::to_string(kCatalogMinFrames) + ".." +
                          std::to_string(kCatalogMaxFrames) + " frames, 2 tags");
  run.note("catalog_raw_bytes", static_cast<double>(cat.raw_bytes));
  run.note("cache", "off");

  struct Key {
    std::size_t dataset;
    core::Tag tag;
  };
  std::vector<Key> keys;
  for (std::size_t d = 0; d < cat.names.size(); ++d) {
    for (const auto& [tag, full] : cat.reference) keys.push_back({d, tag});
  }

  // Whole rounds over every (dataset, tag) until `budget` of op time;
  // `after` runs after each op, outside its timing.
  using QueryOp = std::function<Result<Bytes>(const std::string& name, const core::Tag& tag)>;
  auto rounds = [&](double budget, const QueryOp& op, Timed* t,
                    const std::function<void(const Key&)>& after) {
    while (t->more(budget)) {
      for (const Key& key : keys) {
        ++run.attempted;
        const OpStart started;
        const auto got = op(cat.names[key.dataset], key.tag);
        t->op(started);
        if (!got.is_ok()) {
          ++run.failed;
          continue;
        }
        t->round_bytes += got.value().size();
        if (!same_frames(got.value(), cat.reference.at(key.tag), 0,
                         catalog_frames(key.dataset))) {
          run.mismatch(cat.names[key.dataset] + " tag " + key.tag + " reads back wrong");
        }
        if (after) after(key);
      }
      t->end_round();
    }
  };
  const core::Ada& ada = *cat.ada;
  auto facade = [&](const std::string& name, const core::Tag& tag) {
    return ada.query(name, tag);
  };

  Timed untraced;
  if (!trace) {
    rounds(seconds, facade, &untraced, {});
    untraced.space_amp = catalog_space_amp(cat);
    end_to_end(run, setup_s, untraced);
    return;
  }

  // Traced: the facade, alternating with Indexer::locate +
  // IoRetriever::retrieve_extent per location + concatenation; after each
  // traced op its dropping reads and checksums are repeated outside the op
  // to time them on their own.
  const plfs::PlfsMount& mount = cat.ada->mount();
  const core::Indexer indexer(mount);
  const core::IoRetriever retriever(mount);
  double locate_s = 0, extent_s = 0, concat_s = 0, read_s = 0, crc_s = 0;
  std::uint64_t dropping_bytes = 0;
  auto traced = [&](const std::string& name, const core::Tag& tag) -> Result<Bytes> {
    auto t0 = Clock::now();
    auto located = indexer.locate(name, tag);
    locate_s += seconds_since(t0);
    if (!located.is_ok()) return located.error();
    std::vector<Bytes> extents;
    for (const core::DatasetLocation& loc : located.value()) {
      t0 = Clock::now();
      auto extent = retriever.retrieve_extent(loc);
      extent_s += seconds_since(t0);
      if (!extent.is_ok()) return extent.error();
      extents.push_back(std::move(extent).value());
    }
    t0 = Clock::now();
    Bytes out;
    for (const Bytes& extent : extents) out.insert(out.end(), extent.begin(), extent.end());
    concat_s += seconds_since(t0);
    return out;
  };
  std::uint64_t probe_bytes = 0;
  auto probe = [&](const Key& key) {
    for (const auto& loc : must(indexer.locate(cat.names[key.dataset], key.tag), "locate")) {
      auto t0 = Clock::now();
      const Bytes dropping = must(plfs::read_dropping_file(loc.host_path), "read dropping");
      read_s += seconds_since(t0);
      dropping_bytes += dropping.size();
      probe_bytes += loc.bytes;
      t0 = Clock::now();
      const std::uint32_t crc =
          crc32c(dropping.data() + loc.physical_offset, static_cast<std::size_t>(loc.bytes));
      crc_s += seconds_since(t0);
      if (loc.has_crc && crc != loc.crc32c) run.mismatch("extent checksum of " + loc.host_path);
    }
  };
  Timed layered;
  interleave(seconds * 0.4, [&](double budget, bool traced_pass, int) {
    if (traced_pass) {
      rounds(budget, traced, &layered, probe);
    } else {
      rounds(budget, facade, &untraced, {});
    }
  });
  const double untraced_ms = untraced.mean_ms();
  const double n = static_cast<double>(layered.op_ms.size());
  const double read_ms = read_s * 1e3 / n;
  const double crc_ms = crc_s * 1e3 / n;
  Layers layers;
  layers.set("locate.ms", locate_s * 1e3 / n);
  layers.set("read.ms", read_ms);
  layers.set("crc.ms", crc_ms);
  layers.set("copy.ms", (extent_s + concat_s) * 1e3 / n - read_ms - crc_ms);
  run.note("cold_read_amp", static_cast<double>(dropping_bytes) / static_cast<double>(probe_bytes));
  layers.set("coverage", (locate_s + extent_s + concat_s) * 1e3 / n / untraced_ms);
  layers.set("trace_overhead", layered.mean_ms() / untraced_ms - 1);
  served_layers(cat, seed, seconds * 0.2, run, layers);
  layers.emit(run);
  run.note("untraced_op_ms_mean", untraced_ms);
  run.note("traced_op_ms_mean", layered.mean_ms());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--root") {
      root = value;
    } else {
      die("unknown flag " + flag);
    }
  }
  if (root.empty() || seconds <= 0) die("need --root and --seconds > 0");
  if (fs::exists(root) && !fs::is_empty(root)) die("scratch root " + root + " is not empty");
  fs::create_directories(root);
  obs::set_enabled(false);

  Run run;
  run.note("workload", workload);
  run.note("seed", static_cast<double>(seed));
  run.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  run.note("backend_fs", fs_type(root));
  run.note("trace", trace ? "1" : "0");
  const std::map<std::string,
                 std::function<void(std::uint64_t, double, bool, const fs::path&, Run&)>>
      workloads = {{"batch_ingest", batch_ingest}, {"cold_query", cold_query}};
  const auto it = workloads.find(workload);
  if (it == workloads.end()) die("unknown workload '" + workload + "'");
  it->second(seed, seconds, trace, root, run);
  print_run(run);
  return 0;
}
