// ada-query: the read path -- fetch a tagged subset from an ADA deployment.
//
//   ada-query --ssd /mnt/ssd --hdd /mnt/hdd --name bar.xtc --tag p
//             [--out subset.raw] [--render frame.ppm --pdb system.pdb]
//             [--metrics[=json]] [--trace out.json] [--cache bytes]
//
// Without --out/--render, prints the subset's shape.  With --render, loads
// the structure, renders frame 0 of the subset, and writes a .ppm image.
// With --metrics, prints the observability report after the query;
// --metrics=json emits the stable JSON document on stdout (the summary
// moves to stderr).  With --trace=<file>, records a request timeline and
// writes Chrome trace JSON for Perfetto / ada-trace.  See
// docs/observability.md.
//
// With --degraded (tag optional), queries every tag and reports the
// survivors plus a typed failure per lost tag instead of failing outright:
// exit 0 when every tag was served, 2 when the result is partial, 1 when
// nothing could be resolved.  With --faults site=spec[,...], arms the
// deterministic fault injector before the query (docs/robustness.md).
//
// With --frames A:B (half-open, either side optional: "10:", ":50") and/or
// --stride K, only the selected frames of the tagged subset are fetched --
// the frame-range query that addresses per-extent frame spans when the
// container carries them.
//
// With --follow, the query tails a live stream (ada-ingest --stream running
// concurrently): it polls Ada::query_tail every --poll-ms milliseconds,
// drains each newly sealed batch of frames as it appears, and exits 0 once
// the stream seals.  The accumulated output (--out) is one canonical RAW
// segment, byte-identical to a one-shot `--frames <from>:` query issued
// after the ingest finished.  --from sets the first frame to tail (default
// 0); --timeout-s bounds the wait (exit 1 if the stream never seals).  Both
// knobs must be positive -- a non-positive poll would busy-spin the mount
// and a non-positive timeout would expire before the first poll -- and the
// deadline is checked only after a final drain, so a stream sealing exactly
// at the timeout still exits 0.
//
// With --serve-spool <dir>, the tool is a *client* of a running ada-serve
// instead of opening backends itself: the request travels through the spool
// protocol (docs/serving.md), honoring --tenant, --frames/--stride and
// --degraded, and the served bytes are identical to a direct query.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "ada/middleware.hpp"
#include "common/binary_io.hpp"
#include "common/units.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "serve/spool.hpp"
#include "tools/tool_util.hpp"
#include "vmd/mol.hpp"

using namespace ada;

namespace {
constexpr const char* kUsage =
    "usage: ada-query --ssd <dir> --hdd <dir> --name <logical> --tag <t>\n"
    "                 [--frames A:B] [--stride K]\n"
    "                 [--out <subset.raw>] [--render <frame.ppm> --pdb <file>]\n"
    "                 [--metrics[=json|openmetrics]] [--trace <out.json>] [--cache <bytes>]\n"
    "                 [--threads <n: 0 = pool (default), 1 = serial>]\n"
    "                 [--telemetry <ts.jsonl[,interval_ms]>] [--profile <out.folded[,interval_us]>]\n"
    "                 [--faults site=spec[,site=spec...]] [--degraded]\n"
    "                 [--follow [--from <frame>] [--poll-ms <ms>] [--timeout-s <s>]]\n"
    "   or: ada-query --serve-spool <dir> --name <logical> --tag <t>\n"
    "                 [--tenant <id>] [--frames A:B] [--stride K] [--degraded]\n"
    "                 [--timeout-s <s>] [--out <subset.raw>]\n";

// --frames "A:B" -> [A, B); either side may be omitted ("10:", ":50", ":").
// --stride K keeps every K-th frame.
core::FrameRange parse_range(const tools::Args& args) {
  core::FrameRange range;
  if (args.has("frames")) {
    const std::string spec = args.get("frames");
    const auto colon = spec.find(':');
    if (colon == std::string::npos) tools::die_usage(kUsage);
    const std::string lo = spec.substr(0, colon);
    const std::string hi = spec.substr(colon + 1);
    if (!lo.empty()) range.begin = tools::Args::count_value<std::uint32_t>("frames", lo);
    if (!hi.empty()) range.end = tools::Args::count_value<std::uint32_t>("frames", hi);
  }
  range.stride = args.count<std::uint32_t>("stride", 1, 1);
  return range;
}
}

int main(int argc, char** argv) {
  const tools::Args args(argc, argv,
                         {"ssd", "hdd", "name", "tag", "pdb", "out", "frames", "stride", "threads",
                          "cache", "degraded", "follow", "from", "poll-ms", "timeout-s", "render",
                          "serve-spool", "tenant"});
  const bool ranged = args.has("frames") || args.has("stride");
  const core::FrameRange range = parse_range(args);

  if (args.has("serve-spool")) {
    // Client mode: the running ada-serve owns the backends; this process
    // only speaks the spool protocol.
    if (!args.has("name") || (!args.has("tag") && !args.has("degraded"))) {
      tools::die_usage(kUsage);
    }
    serve::Request request;
    request.tenant = args.get("tenant", "default");
    request.logical_name = args.get("name");
    request.tag = args.get("tag");
    if (args.has("degraded")) {
      request.kind = serve::RequestKind::kDegraded;
    } else if (ranged) {
      request.kind = serve::RequestKind::kRange;
      request.range = range;
    }
    const auto timeout_s = args.count<std::uint32_t>("timeout-s", 30, 1);
    serve::SpoolClient client(args.get("serve-spool"));
    const auto reply =
        tools::must(client.call(request, static_cast<double>(timeout_s)), "serve query");
    const auto reader = tools::must(formats::RawTrajCatReader::open(reply.payload), "parse subset");
    std::fprintf(stdout, "%s tag %s via %s: %u frames x %u atoms, %s%s\n",
                 request.logical_name.c_str(), request.tag.c_str(),
                 args.get("serve-spool").c_str(), reader.frame_count(), reader.atom_count(),
                 format_bytes(static_cast<double>(reply.payload.size())).c_str(),
                 reply.coalesced ? " (coalesced)" : "");
    if (args.has("out")) {
      tools::must_ok(write_file(args.get("out"), reply.payload), "write subset");
      std::fprintf(stdout, "wrote %s\n", args.get("out").c_str());
    }
    return 0;
  }

  if (!args.has("ssd") || !args.has("hdd") || !args.has("name") ||
      (!args.has("tag") && !args.has("degraded"))) {
    tools::die_usage(kUsage);
  }
  // A non-positive poll interval busy-spins the mount at 100% CPU; a
  // non-positive timeout expires before the first poll ever runs.
  const auto poll_ms = args.count<std::uint32_t>("poll-ms", 20, 1);
  const auto follow_timeout_s = args.count<std::uint32_t>("timeout-s", 60, 1);
  const auto first_frame = args.count<std::uint64_t>("from", 0);
  tools::metrics_begin(args);
  tools::telemetry_begin(args);
  tools::profile_begin(args);
  tools::trace_begin(args);
  tools::faults_begin(args);
  std::FILE* report_out = tools::metrics_json_only(args) ? stderr : stdout;
  const auto end_instruments = [&] {
    tools::trace_end(args);
    tools::telemetry_end(args);
    tools::profile_end(args);
    tools::metrics_end(args);
  };

  core::AdaConfig config;
  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  // --cache=<bytes> arms the query-side subset cache (0 = off, the default:
  // the cached and uncached read paths are byte-identical, the cache only
  // short-circuits repeated reads within this process's lifetime).
  config.cache_bytes = args.count<std::uint64_t>("cache", 0);
  // --threads=<n> is the query's concurrency budget: its piece reads and
  // the untagged read's per-tag batch (0 = follow the shared pool, the
  // default; 1 = serial).  docs/performance.md.
  config.threads = args.count("threads", 0u);
  core::Ada middleware(
      tools::must(plfs::PlfsMount::open(
                      {{"ssd-fs", args.get("ssd")}, {"hdd-fs", args.get("hdd")}}),
                  "open backends"),
      config);

  const std::string logical = args.get("name");

  if (args.has("degraded")) {
    const auto partial = tools::must(middleware.query_degraded(logical), "degraded query");
    std::size_t served_bytes = 0;
    for (const auto& [tag, bytes] : partial.subsets) {
      std::fprintf(report_out, "  tag %-8s %10s served\n", tag.c_str(),
                   format_bytes(static_cast<double>(bytes.size())).c_str());
      served_bytes += bytes.size();
    }
    for (const auto& failure : partial.failed) {
      std::fprintf(report_out, "  tag %-8s LOST: %s\n", failure.tag.c_str(),
                   failure.error.to_string().c_str());
    }
    std::fprintf(report_out, "%s degraded read: %zu/%zu tags served, %s\n", logical.c_str(),
                 partial.subsets.size(), partial.subsets.size() + partial.failed.size(),
                 format_bytes(static_cast<double>(served_bytes)).c_str());
    if (partial.partial()) {
      std::fprintf(report_out, "PARTIAL RESULT: %zu tag(s) unreadable\n", partial.failed.size());
    }
    if (args.has("out")) {
      tools::must_ok(write_file(args.get("out"), partial.concat()), "write surviving subsets");
      std::fprintf(report_out, "wrote %s (surviving tags, tag order)\n", args.get("out").c_str());
    }
    end_instruments();
    return partial.partial() ? 2 : 0;
  }

  if (args.has("follow")) {
    const core::Tag tag = args.get("tag");
    std::uint64_t cursor = first_frame;
    // Every drained batch arrives as one canonical RAW image; its frame
    // records append to one image, opened at the first batch's atom count.
    std::optional<formats::RawTrajWriter> followed;
    std::uint64_t polls = 0;
    bool final_drain = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(follow_timeout_s);
    for (;;) {
      ++polls;
      auto chunk_result = middleware.query_tail(logical, tag, cursor);
      if (!chunk_result.is_ok()) {
        // kNotFound while waiting just means the producer has not created
        // the container yet -- keep polling until the timeout.
        if (chunk_result.error().code() != ErrorCode::kNotFound) {
          tools::must(std::move(chunk_result), "tail query");
        }
      } else {
        const auto& chunk = chunk_result.value();
        if (chunk.frames != 0) {
          const auto batch = tools::must(formats::RawTrajReader::open(chunk.image), "tail chunk");
          if (!followed.has_value()) followed.emplace(batch.atom_count(), batch.frame_count());
          for (std::uint32_t f = 0; f < batch.frame_count(); ++f) {
            tools::must_ok(followed->append_record(batch.record(f)), "tail chunk");
          }
        }
        cursor += chunk.frames;
        if (chunk.sealed && chunk.frames == 0) break;
        if (chunk.frames != 0) continue;  // drained a batch: poll again at once
      }
      // The timeout only fires after one final drain: a stream that seals
      // exactly as the deadline passes is picked up by that last poll and
      // exits 0 instead of reporting a spurious timeout.
      if (final_drain) {
        std::fprintf(stderr, "ada-query: --follow timed out after %us before %s sealed\n",
                     follow_timeout_s, logical.c_str());
        return 1;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        final_drain = true;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
    if (!followed.has_value()) followed.emplace(0);  // nothing followed: a bare header
    const std::uint32_t atoms = followed->atom_count();
    const std::vector<std::uint8_t> out = followed->finish();
    std::fprintf(report_out, "followed %s tag %s: %llu frames x %u atoms in %llu polls, %s\n",
                 logical.c_str(), tag.c_str(),
                 static_cast<unsigned long long>(cursor - first_frame), atoms,
                 static_cast<unsigned long long>(polls),
                 format_bytes(static_cast<double>(out.size())).c_str());
    if (args.has("out")) {
      tools::must_ok(write_file(args.get("out"), out), "write followed subset");
      std::fprintf(report_out, "wrote %s\n", args.get("out").c_str());
    }
    end_instruments();
    return 0;
  }

  const core::Tag tag = args.get("tag");
  const auto subset = ranged ? tools::must(middleware.query(logical, tag, range), "range query")
                             : tools::must(middleware.query(logical, tag), "query");
  const auto reader = tools::must(formats::RawTrajCatReader::open(subset), "parse subset");
  std::fprintf(report_out, "%s tag %s: %u frames x %u atoms, %s decompressed\n", logical.c_str(),
               tag.c_str(), reader.frame_count(), reader.atom_count(),
               format_bytes(static_cast<double>(subset.size())).c_str());

  if (args.has("out")) {
    tools::must_ok(write_file(args.get("out"), subset), "write subset");
    std::fprintf(report_out, "wrote %s\n", args.get("out").c_str());
  }

  if (args.has("render")) {
    if (!args.has("pdb")) tools::die_usage(kUsage);
    vmd::MolSession session(&middleware);
    tools::must_ok(session.mol_new_file(args.get("pdb")), "mol new");
    tools::must_ok(session.mol_addfile("/mnt/" + logical, tag), "mol addfile");
    const auto frame = tools::must(session.render(0), "render");
    tools::must_ok(vmd::write_ppm(args.get("render"), frame.image), "write image");
    std::fprintf(report_out, "rendered frame 0 (%llu atoms, %llu bonds) to %s\n",
                 static_cast<unsigned long long>(frame.stats.atoms),
                 static_cast<unsigned long long>(frame.stats.bonds), args.get("render").c_str());
  }
  end_instruments();
  return 0;
}
