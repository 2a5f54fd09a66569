// Minimal flag parsing shared by the command-line tools.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/faults.hpp"
#include "common/result.hpp"
#include "common/strings.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"

namespace ada::tools {

/// Parses "--flag value", "--flag=value" pairs and bare positional arguments.
class Args {
 public:
  /// `flags` names every flag the tool reads; the shared observability and
  /// fault flags are added here.  Any other flag is a usage error, exit 2,
  /// so a misspelt or retired flag never runs silently at the default.
  Args(int argc, char** argv, std::initializer_list<std::string_view> flags) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
          flags_[key.substr(0, eq)] = key.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[key] = argv[++i];
        } else {
          flags_[key] = "true";  // boolean flag
        }
      } else {
        positional_.push_back(arg);
      }
    }
    constexpr std::string_view kShared[] = {"metrics", "trace", "telemetry", "profile", "faults"};
    for (const auto& [key, value] : flags_) {
      if (std::find(flags.begin(), flags.end(), key) == flags.end() &&
          std::find(std::begin(kShared), std::end(kShared), key) == std::end(kShared)) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
        std::exit(2);
      }
    }
  }

  bool has(const std::string& key) const { return flags_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }

  /// The value of --`key` (`fallback` when absent) as an integer in
  /// [min, max].  Anything else is a usage error, exit 2: never a silently
  /// substituted default, never a negated or truncated value.
  template <typename T>
  T count(const std::string& key, T fallback, T min = 0,
          T max = std::numeric_limits<T>::max()) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : count_value(key, it->second, min, max);
  }

  /// `text`, given for --`key`, as an integer in [min, max]; exit 2 if not.
  template <typename T>
  static T count_value(const std::string& key, const std::string& text, T min = 0,
                       T max = std::numeric_limits<T>::max()) {
    const auto lo = static_cast<unsigned long long>(min);
    const auto hi = std::min<unsigned long long>(
        static_cast<unsigned long long>(max), std::numeric_limits<long long>::max());
    const long long value = parse_int(text);
    if (value < 0 || static_cast<unsigned long long>(value) < lo ||
        static_cast<unsigned long long>(value) > hi) {
      std::fprintf(stderr, "error: --%s must be an integer in [%llu, %llu] (got %s)\n",
                   key.c_str(), lo, hi, text.c_str());
      std::exit(2);
    }
    return static_cast<T>(value);
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Shared --metrics[=json] handling.  Call metrics_begin before the
/// instrumented work (it turns collection on) and metrics_end after it;
/// "--metrics" prints aligned tables, "--metrics=json" the stable JSON
/// document (docs/observability.md).
inline void metrics_begin(const Args& args) {
  if (!args.has("metrics")) return;
  obs::reset_all();
  obs::set_enabled(true);
}

inline void metrics_end(const Args& args, std::ostream& os = std::cout) {
  if (!args.has("metrics")) return;
  const obs::Snapshot snapshot = obs::capture();
  if (args.get("metrics") == "json") {
    os << obs::to_json(snapshot) << "\n";
  } else if (args.get("metrics") == "openmetrics") {
    os << obs::to_openmetrics(snapshot);
  } else {
    obs::print_tables(snapshot, os);
  }
}

/// True when the human-readable report should move to stderr so stdout
/// carries nothing but the machine-readable document.
inline bool metrics_json_only(const Args& args) {
  return args.get("metrics") == "json" || args.get("metrics") == "openmetrics";
}

/// Shared --telemetry=FILE[,interval_ms] handling: starts the background
/// metrics sampler appending a JSONL time series (docs/observability.md).
/// Implies metrics collection.  Call telemetry_end after the instrumented
/// work and *before* metrics_end, so the final telemetry line reconciles
/// with the final `--metrics=json` dump.
inline void telemetry_begin(const Args& args) {
  if (!args.has("telemetry")) return;
  const std::string spec = args.get("telemetry");
  if (spec.empty() || spec == "true") {
    std::fprintf(stderr, "error: --telemetry needs a file name (--telemetry=ts.jsonl[,250])\n");
    std::exit(2);
  }
  obs::set_enabled(true);
  const Status status = obs::start_telemetry(spec);
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.error().to_string().c_str());
    std::exit(2);
  }
}

inline void telemetry_end(const Args& args) {
  if (!args.has("telemetry")) return;
  obs::stop_telemetry();
}

/// Shared --profile=FILE[,interval_us] handling: starts the span-attributed
/// sampling profiler; profile_end writes the folded-stack (flamegraph)
/// file.  Implies metrics collection (spans only record while obs is on).
inline void profile_begin(const Args& args) {
  if (!args.has("profile")) return;
  const std::string spec = args.get("profile");
  if (spec.empty() || spec == "true") {
    std::fprintf(stderr, "error: --profile needs a file name (--profile=out.folded[,1000])\n");
    std::exit(2);
  }
  obs::set_enabled(true);
  const Status status = obs::start_profiler(spec);
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.error().to_string().c_str());
    std::exit(2);
  }
}

inline void profile_end(const Args& args) {
  if (!args.has("profile")) return;
  const Status status = obs::stop_profiler();
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.error().to_string().c_str());
    std::exit(1);
  }
}

/// Shared --trace=<file> handling.  Call trace_begin before the instrumented
/// work (it turns the event recorder on) and trace_end after it to write the
/// Chrome trace JSON, loadable in Perfetto / chrome://tracing and analyzable
/// with ada-trace.
inline void trace_begin(const Args& args) {
  if (!args.has("trace")) return;
  obs::reset_events();
  obs::set_trace_enabled(true);
}

inline void trace_end(const Args& args) {
  if (!args.has("trace")) return;
  obs::set_trace_enabled(false);
  const std::string path = args.get("trace");
  if (path.empty() || path == "true") {
    std::fprintf(stderr, "error: --trace needs a file name (--trace=out.json)\n");
    std::exit(2);
  }
  const Status status = obs::write_chrome_json(path);
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: cannot write trace %s: %s\n", path.c_str(),
                 status.error().to_string().c_str());
    std::exit(1);
  }
  if (const std::uint64_t dropped = obs::events_dropped(); dropped != 0) {
    std::fprintf(stderr, "note: trace ring dropped %llu oldest events\n",
                 static_cast<unsigned long long>(dropped));
  }
}

/// Shared --faults=site=spec[,site=spec...] handling: arms the process-global
/// fault injector before the instrumented work.  Spec grammar is
/// docs/robustness.md (nth:<k>, every:<k>, prob:<p>[:<seed>], down:<a>:<b>,
/// torn:<f>[:<k>], corrupt[:<k>], delay:<s>[:<p>]).  Faults stay armed for
/// the life of the process -- these tools run one request and exit.
inline void faults_begin(const Args& args) {
  if (!args.has("faults")) return;
  const std::string spec = args.get("faults");
  if (spec.empty() || spec == "true") {
    std::fprintf(stderr, "error: --faults needs site=spec[,site=spec...]\n");
    std::exit(2);
  }
  const Status status = fault::Injector::global().arm_spec(spec);
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: bad --faults spec: %s\n", status.error().to_string().c_str());
    std::exit(2);
  }
}

/// Print `usage`, then exit with failure.
[[noreturn]] inline void die_usage(const char* usage) {
  std::fprintf(stderr, "%s", usage);
  std::exit(2);
}

/// Unwrap or die with the error message.
template <typename T>
T must(Result<T> result, const char* what) {
  if (!result.is_ok()) {
    std::fprintf(stderr, "error: %s: %s\n", what, result.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void must_ok(const Status& status, const char* what) {
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: %s: %s\n", what, status.error().to_string().c_str());
    std::exit(1);
  }
}

}  // namespace ada::tools
