// ada-gen: generate a synthetic GPCR dataset (.pdb + .xtc [+ .trr]) on disk.
//
//   ada-gen --out data/ --frames 100 [--size tiny|paper] [--ligand N]
//           [--seed S] [--trr] [--codec v1|v2] [--metrics[=json]]
//
// Produces data/system.pdb and data/traj.xtc (and data/traj.trr with --trr),
// ready for ada-ingest or plain mini-VMD loading.  --codec selects the
// coordinate codec version of traj.xtc (AdaConfig::codec default: v1, the
// intra-frame-only stream every consumer reads; v2 adds inter-frame
// prediction).  With --metrics, prints the observability report (compression
// counters, stage timers) after generation; --metrics=json emits the stable
// JSON document on stdout (the summary moves to stderr).  See
// docs/observability.md.
#include <cstdio>
#include <filesystem>
#include <string>

#include "codec/coord_codec.hpp"
#include "common/units.hpp"
#include "common/binary_io.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/trr_file.hpp"
#include "formats/xtc_file.hpp"
#include "tools/tool_util.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

using namespace ada;

namespace {
constexpr const char* kUsage =
    "usage: ada-gen --out <dir> [--frames N] [--size tiny|paper] [--ligand N]\n"
    "               [--seed S] [--trr] [--codec v1|v2] [--metrics[=json|openmetrics]]\n"
    "               [--telemetry <ts.jsonl[,interval_ms]>] [--profile <out.folded[,interval_us]>]\n"
    "  generates a synthetic GPCR membrane system (system.pdb) and an\n"
    "  OU-dynamics trajectory (traj.xtc; traj.trr with --trr)\n";
}

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, {"out", "frames", "ligand", "seed", "codec", "size", "trr"});
  if (!args.has("out")) tools::die_usage(kUsage);
  const auto frames = args.count<std::uint32_t>("frames", 50);
  const auto ligand_atoms = args.count<std::uint32_t>("ligand", 0);
  const auto seed = args.count<std::uint64_t>("seed", 20210809);
  tools::metrics_begin(args);
  tools::telemetry_begin(args);
  tools::profile_begin(args);
  std::FILE* report_out = tools::metrics_json_only(args) ? stderr : stdout;
  const std::string out = args.get("out");
  const std::string size = args.get("size", "tiny");

  workload::GpcrSpec spec =
      size == "paper" ? workload::GpcrSpec::paper_default() : workload::GpcrSpec::tiny();
  if (size != "paper" && size != "tiny") tools::die_usage(kUsage);
  spec.ligand_atoms = ligand_atoms;
  spec.seed = seed;

  std::filesystem::create_directories(out);
  const auto system = workload::GpcrSystemBuilder(spec).build();
  tools::must_ok(formats::write_pdb_file(out + "/system.pdb", system), "write system.pdb");

  workload::DynamicsSpec dynamics;
  dynamics.seed = spec.seed + 1;
  workload::TrajectoryGenerator gen(system, dynamics);
  const std::string codec_name = args.get("codec", "v1");
  if (codec_name != "v1" && codec_name != "v2") tools::die_usage(kUsage);
  const auto codec = codec_name == "v2" ? codec::CodecVersion::kV2 : codec::CodecVersion::kV1;
  formats::XtcWriter xtc({}, codec);
  formats::TrrWriter trr;
  const bool want_trr = args.has("trr");
  for (std::uint32_t f = 0; f < frames; ++f) {
    const auto coords = gen.next_frame();
    tools::must_ok(xtc.add_frame(gen.current_step(), gen.current_time_ps(), system.box(), coords),
                   "compress frame");
    if (want_trr) {
      formats::TrrFrame frame;
      frame.step = gen.current_step();
      frame.time_ps = gen.current_time_ps();
      frame.box = system.box();
      frame.coords.assign(coords.begin(), coords.end());
      tools::must_ok(trr.add_frame(frame), "write trr frame");
    }
  }
  tools::must_ok(write_file(out + "/traj.xtc", xtc.bytes()), "write traj.xtc");
  if (want_trr) tools::must_ok(write_file(out + "/traj.trr", trr.bytes()), "write traj.trr");

  std::fprintf(report_out, "wrote %s/system.pdb (%u atoms, %u protein)\n", out.c_str(), system.atom_count(),
              system.count_category(chem::Category::kProtein));
  std::fprintf(report_out, "wrote %s/traj.xtc (%u frames, %s compressed, %s raw)\n", out.c_str(), frames,
              format_bytes(static_cast<double>(xtc.size_bytes())).c_str(),
              format_bytes(static_cast<double>(
                               formats::raw_file_bytes(system.atom_count(), frames)))
                  .c_str());
  if (want_trr) {
    std::fprintf(report_out, "wrote %s/traj.trr (%s)\n", out.c_str(),
                 format_bytes(static_cast<double>(trr.size_bytes())).c_str());
  }
  tools::telemetry_end(args);
  tools::profile_end(args);
  tools::metrics_end(args);
  return 0;
}
