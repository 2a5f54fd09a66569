// ada-ingest: run ADA's write-path pre-processing on a (.pdb, .xtc) pair.
//
//   ada-ingest --pdb system.pdb --xtc traj.xtc --ssd /mnt/ssd --hdd /mnt/hdd
//              [--name bar.xtc] [--schema rules.txt] [--keep-original]
//              [--threads N] [--metrics[=json]] [--trace out.json]
//
// Categorizes with Algorithm 1 (protein/MISC by default, or a schema file),
// decompresses once, splits into tagged subsets, and dispatches them to the
// two backend file systems.  --threads=N caps frame-parallel decode on the
// shared thread pool, whose workers claim frame ranges from one counter
// (0, the default, = every pool worker plus the caller; 1 = serial; the
// output images are byte-identical either way).
// With --metrics, prints the observability
// report (per-stage timers, per-tag byte counters) after the ingest;
// --metrics=json emits the stable JSON document on stdout (the summary
// moves to stderr).  With --trace=<file>, records a request timeline and
// writes Chrome trace JSON for Perfetto / ada-trace.  See
// docs/observability.md.
// With --stream, the .xtc is ingested frame by frame through the live
// streaming path (ada/ingest_stream.hpp): every --chunk-frames frames the
// chunk is flushed and the sealed-frame watermark advances, so concurrent
// ada-query calls see a growing readable prefix while this process still
// runs.  --frame-delay-ms paces the frames (simulating a running MD
// producer); --retain-bytes arms windowed retention.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "ada/middleware.hpp"
#include "ada/schema_config.hpp"
#include "common/binary_io.hpp"
#include "common/units.hpp"
#include "formats/pdb.hpp"
#include "formats/xtc_file.hpp"
#include "vmd/mol.hpp"
#include "tools/tool_util.hpp"

using namespace ada;

namespace {
constexpr const char* kUsage =
    "usage: ada-ingest --pdb <file> --xtc <file> --ssd <dir> --hdd <dir>\n"
    "                  [--name <logical>] [--schema <rules file>] [--keep-original]\n"
    "                  [--threads <n>] [--metrics[=json|openmetrics]] [--trace <out.json>]\n"
    "                  [--telemetry <ts.jsonl[,interval_ms]>] [--profile <out.folded[,interval_us]>]\n"
    "                  [--faults site=spec[,site=spec...]]\n"
    "                  [--stream [--chunk-frames <n>] [--frame-delay-ms <ms>]\n"
    "                            [--retain-bytes <b>]]\n";
}

int main(int argc, char** argv) {
  const tools::Args args(argc, argv,
                         {"pdb", "xtc", "ssd", "hdd", "name", "schema", "threads", "retain-bytes",
                          "chunk-frames", "frame-delay-ms", "keep-original", "stream"});
  if (!args.has("pdb") || !args.has("xtc") || !args.has("ssd") || !args.has("hdd")) {
    tools::die_usage(kUsage);
  }
  core::AdaConfig config;
  config.threads = args.count("threads", config.threads);
  config.retain_bytes = args.count("retain-bytes", config.retain_bytes);
  const auto chunk_frames = args.count<std::uint32_t>("chunk-frames", 64, 1);
  const auto delay_ms = args.count<std::uint32_t>("frame-delay-ms", 0);
  tools::metrics_begin(args);
  tools::telemetry_begin(args);
  tools::profile_begin(args);
  tools::trace_begin(args);
  tools::faults_begin(args);
  std::FILE* report_out = tools::metrics_json_only(args) ? stderr : stdout;

  const auto structure = tools::must(formats::read_pdb_file(args.get("pdb")), "read pdb");
  const auto xtc = tools::must(read_file(args.get("xtc")), "read xtc");
  const std::string logical =
      args.get("name", vmd::logical_name_of(args.get("xtc")));

  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  config.keep_original = args.has("keep-original");
  core::Ada middleware(
      tools::must(plfs::PlfsMount::open(
                      {{"ssd-fs", args.get("ssd")}, {"hdd-fs", args.get("hdd")}}),
                  "open backends"),
      config);

  core::LabelMap labels;
  if (args.has("schema")) {
    const auto schema_bytes = tools::must(read_file(args.get("schema")), "read schema");
    const auto schema = tools::must(
        core::CategorizerSchema::parse(std::string(schema_bytes.begin(), schema_bytes.end())),
        "parse schema");
    labels = schema.categorize(structure);
  } else {
    labels = core::categorize_protein_misc(structure);
  }

  if (args.has("stream")) {
    auto stream = tools::must(middleware.begin_stream(labels, logical, chunk_frames),
                              "begin stream");
    formats::XtcReader reader(xtc);
    while (true) {
      auto frame = tools::must(reader.next(), "decode xtc frame");
      if (!frame.has_value()) break;
      tools::must_ok(stream.add_frame(frame->step, frame->time_ps, frame->box, frame->coords),
                     "stream frame");
      if (delay_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    const auto stream_report = tools::must(stream.finish(), "finish stream");
    std::fprintf(report_out,
                 "streamed %s: %u frames in %u chunks, watermark %llu, floor %llu"
                 " (%llu chunks dropped by retention)\n",
                 logical.c_str(), stream_report.frames, stream_report.chunks,
                 static_cast<unsigned long long>(stream_report.sealed_frames),
                 static_cast<unsigned long long>(stream_report.floor_frames),
                 static_cast<unsigned long long>(stream_report.retention_drops));
    tools::trace_end(args);
    tools::telemetry_end(args);
    tools::profile_end(args);
    tools::metrics_end(args);
    return 0;
  }

  const auto report =
      tools::must(middleware.ingest_with_labels(labels, xtc, logical), "ingest");
  std::fprintf(report_out, "ingested %s: %u frames, %u atoms, %s compressed input\n",
               logical.c_str(), report.preprocess.frames, report.preprocess.atoms,
               format_bytes(static_cast<double>(report.preprocess.compressed_bytes)).c_str());
  for (const auto& [tag, bytes] : report.preprocess.subset_bytes) {
    std::fprintf(report_out, "  tag %-8s %8llu atoms  %10s -> backend %u\n", tag.c_str(),
                 static_cast<unsigned long long>(report.preprocess.subset_atoms.at(tag)),
                 format_bytes(static_cast<double>(bytes)).c_str(),
                 report.backend_of_tag.at(tag));
  }
  std::fprintf(report_out, "decompression took %.3f s on this storage node (paid once)\n",
               report.preprocess.decompress_wall_seconds);
  tools::trace_end(args);
  tools::telemetry_end(args);
  tools::profile_end(args);
  tools::metrics_end(args);
  return 0;
}
