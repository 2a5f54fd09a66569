// ada-stats: render telemetry time series and gate on perf regressions.
//
//   ada-stats render <ts.jsonl>
//   ada-stats diff <baseline.json> <candidate.json>
//             [--budget <frac>] [--higher k1,k2,...] [--lower k1,k2,...]
//
// `render` reduces a --telemetry JSONL stream (obs/telemetry.hpp) to one
// rate/percentile table per clock: counter totals, summed deltas and mean
// rates over the observed span, histogram quantiles at the final sample.
//
// `diff` flattens two JSON documents (typically bench BENCH_*.json files)
// into dotted-path metrics and judges only the listed keys: --higher keys
// may not drop, --lower keys may not rise, by more than --budget (fraction,
// default 0.10).  A listed key missing from either file is a violation.
// Exit status 1 when any key regresses -- the check-perf gate
// (bench/CMakeLists.txt) runs this against the committed baselines in
// bench/baselines/.  See docs/observability.md.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "obs/export.hpp"
#include "obs/stats.hpp"
#include "tools/tool_util.hpp"

using namespace ada;

namespace {

constexpr const char* kUsage =
    "usage: ada-stats render <ts.jsonl>\n"
    "       ada-stats diff <baseline.json> <candidate.json>\n"
    "                 [--budget <frac>] [--higher k1,k2,...] [--lower k1,k2,...]\n";

std::string read_text(const std::string& path, const char* what) {
  const std::vector<std::uint8_t> bytes =
      tools::must(read_file(path), what);
  return std::string(bytes.begin(), bytes.end());
}

int run_render(const std::string& path) {
  const std::string jsonl = read_text(path, "read telemetry");
  const std::vector<obs::TelemetrySummary> summaries =
      tools::must(obs::summarize_telemetry(jsonl), "parse telemetry");
  if (summaries.empty()) {
    std::printf("no samples in %s\n", path.c_str());
    return 0;
  }
  for (const obs::TelemetrySummary& summary : summaries) {
    std::printf("== clock %s: %llu sample(s) over %.1f ms ==\n", summary.clock.c_str(),
                static_cast<unsigned long long>(summary.samples),
                summary.last_t_ms - summary.first_t_ms);
    if (!summary.counters.empty()) {
      Table table({"counter", "total", "delta_sum", "rate/s"});
      for (const auto& row : summary.counters) {
        table.add_row({row.name, std::to_string(row.total), std::to_string(row.delta_sum),
                       obs::json_number(row.rate_per_s)});
      }
      table.print(std::cout);
    }
    if (!summary.histograms.empty()) {
      Table table({"histogram", "count", "p50", "p90", "p99"});
      for (const auto& row : summary.histograms) {
        table.add_row({row.name, std::to_string(row.count), obs::json_number(row.p50),
                       obs::json_number(row.p90), obs::json_number(row.p99)});
      }
      table.print(std::cout);
    }
  }
  return 0;
}

int run_diff(const tools::Args& args, const std::string& baseline_path,
             const std::string& candidate_path) {
  const json::Value baseline_doc =
      tools::must(json::parse(read_text(baseline_path, "read baseline")), "parse baseline");
  const json::Value candidate_doc =
      tools::must(json::parse(read_text(candidate_path, "read candidate")), "parse candidate");

  obs::DiffSpec spec;
  const std::string budget = args.get("budget");
  if (!budget.empty() && budget != "true") spec.budget = std::stod(budget);
  for (const std::string& key : split(args.get("higher"), ',')) {
    if (!key.empty()) spec.higher.push_back(key);
  }
  for (const std::string& key : split(args.get("lower"), ',')) {
    if (!key.empty()) spec.lower.push_back(key);
  }
  if (spec.higher.empty() && spec.lower.empty()) {
    std::fprintf(stderr, "error: diff needs at least one --higher or --lower key\n");
    return 2;
  }

  const obs::DiffReport report = obs::diff_metrics(
      obs::flatten_numbers(baseline_doc), obs::flatten_numbers(candidate_doc), spec);

  Table table({"key", "want", "baseline", "candidate", "change", "verdict"});
  for (const obs::DiffRow& row : report.rows) {
    const char* verdict = row.violation ? "REGRESSED" : "ok";
    if (row.missing) verdict = "MISSING";
    char change[32];
    std::snprintf(change, sizeof change, "%+.2f%%", row.change * 100.0);
    table.add_row({row.key, row.higher_is_better ? "higher" : "lower",
                   obs::json_number(row.baseline), obs::json_number(row.candidate),
                   row.missing ? "-" : change, verdict});
  }
  table.print(std::cout);
  if (report.violations != 0) {
    std::printf("FAIL: %zu key(s) regressed beyond budget %.2f (%s vs %s)\n",
                report.violations, spec.budget, candidate_path.c_str(),
                baseline_path.c_str());
    return 1;
  }
  std::printf("OK: %zu key(s) within budget %.2f\n", report.rows.size(), spec.budget);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, {"budget", "higher", "lower"});
  const std::vector<std::string>& positional = args.positional();
  if (positional.empty()) tools::die_usage(kUsage);
  const std::string& mode = positional[0];
  if (mode == "render") {
    if (positional.size() != 2) tools::die_usage(kUsage);
    return run_render(positional[1]);
  }
  if (mode == "diff") {
    if (positional.size() != 3) tools::die_usage(kUsage);
    return run_diff(args, positional[1], positional[2]);
  }
  tools::die_usage(kUsage);
}
