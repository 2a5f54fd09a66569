// ada-inspect: look inside an ADA deployment -- containers, indexes, labels,
// and container health (fsck).
//
//   ada-inspect --ssd /mnt/ssd --hdd /mnt/hdd                  # list containers
//   ada-inspect --ssd ... --hdd ... --name bar.xtc             # dump one
//   ada-inspect --ssd ... --hdd ... --name bar.xtc --fsck      # verify
//   ada-inspect --ssd ... --hdd ... --name bar.xtc --repair    # verify + repair
//
// With --metrics, prints the observability report (index/label read
// counters) before exiting; --metrics=json emits the stable JSON document
// on stdout (the report moves to stderr).  See docs/observability.md.
#include <cstdio>
#include <iostream>
#include <string>

#include "ada/label_store.hpp"
#include "ada/middleware.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "plfs/fsck.hpp"
#include "tools/tool_util.hpp"

using namespace ada;

namespace {
constexpr const char* kUsage =
    "usage: ada-inspect --ssd <dir> --hdd <dir> [--name <logical>] [--fsck] [--repair]\n"
    "                   [--metrics[=json|openmetrics]]\n";
}

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, {"ssd", "hdd", "name", "fsck", "repair"});
  if (!args.has("ssd") || !args.has("hdd")) tools::die_usage(kUsage);
  tools::metrics_begin(args);
  std::FILE* report_out = tools::metrics_json_only(args) ? stderr : stdout;
  std::ostream& table_out = tools::metrics_json_only(args) ? std::cerr : std::cout;

  core::AdaConfig config;
  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  core::Ada middleware(
      tools::must(plfs::PlfsMount::open(
                      {{"ssd-fs", args.get("ssd")}, {"hdd-fs", args.get("hdd")}}),
                  "open backends"),
      config);

  if (!args.has("name")) {
    const auto names = tools::must(middleware.mount().list_containers(), "list containers");
    if (names.empty()) {
      std::fprintf(report_out, "no containers\n");
      tools::metrics_end(args);
      return 0;
    }
    for (const auto& name : names) std::fprintf(report_out, "%s\n", name.c_str());
    tools::metrics_end(args);
    return 0;
  }

  const std::string logical = args.get("name");
  const plfs::PlfsMount& mount = middleware.mount();
  const auto index = tools::must(mount.read_index(logical), "read index");
  Table table({"logical offset", "length", "backend", "label", "dropping"});
  for (const auto& r : index.records) {
    // A backend this mount lacks is fsck's to judge (a broken record).
    const std::string backend = r.backend < mount.backend_count()
                                    ? mount.backend(r.backend).name
                                    : "unknown (" + std::to_string(r.backend) + ")";
    table.add_row({std::to_string(r.logical_offset), format_bytes(static_cast<double>(r.length)),
                   backend, r.label, r.dropping});
  }
  std::fprintf(report_out, "container %s (%zu extents):\n", logical.c_str(),
               index.records.size());
  table.print(table_out);
  const auto print_stream = [&](const plfs::Index& image) {
    if (!image.stream.has_value()) return;
    const plfs::StreamState& state = *image.stream;
    std::fprintf(report_out,
                 "stream: watermark %llu frames, floor %llu, %s (%llu chunks, %llu dropped)\n",
                 static_cast<unsigned long long>(state.sealed_frames),
                 static_cast<unsigned long long>(state.floor_frames),
                 state.sealed ? "sealed" : "OPEN",
                 static_cast<unsigned long long>(state.sealed_chunks),
                 static_cast<unsigned long long>(state.retention_drops));
  };
  print_stream(index);

  const auto labels = middleware.labels(logical);
  if (labels.is_ok()) {
    std::fprintf(report_out, "\nlabel file:\n%s", core::encode_label_file(labels.value()).c_str());
  } else {
    std::fprintf(report_out, "\nno label file (%s)\n", labels.error().to_string().c_str());
  }

  if (args.has("fsck") || args.has("repair")) {
    const auto report = tools::must(plfs::verify_container(middleware.mount(), logical), "fsck");
    std::fprintf(report_out,
                 "\nfsck: %s (%zu broken records, %zu checksum-bad, %zu open-tail, %zu orphans, "
                 "%zu wrong shapes, %zu shape-less, extents %s)\n",
                 report.clean() ? "clean" : "NOT CLEAN", report.broken_records.size(),
                 report.checksum_bad_records.size(), report.open_tail_records.size(),
                 report.orphan_droppings.size(), report.wrong_shapes.size(),
                 report.shapeless_records.size(),
                 report.extents_complete ? "complete" : "INCOMPLETE");
    // clean() tolerates an open stream, but --repair declares its producer
    // dead: the stream is sealed even when nothing else needs fixing.
    if (args.has("repair") && (!report.clean() || report.stream_open)) {
      const auto actions =
          tools::must(plfs::repair_container(middleware.mount(), logical), "repair");
      std::fprintf(report_out,
                   "repaired: dropped %zu broken records, quarantined %zu extents, dropped %zu "
                   "open-tail records, removed %zu orphans, rebuilt %zu shapes%s\n",
                   actions.records_dropped, actions.extents_quarantined,
                   actions.tail_records_dropped, actions.orphans_removed, actions.shapes_rebuilt,
                   report.stream_open ? ", sealed the stream" : "");
      // The state the repair left, so one run shows the stream it sealed.
      print_stream(tools::must(mount.read_index(logical), "read repaired index"));
    }
    tools::metrics_end(args);
    return report.clean() ? 0 : 1;
  }
  tools::metrics_end(args);
  return 0;
}
