#include "harness/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

namespace pcap::harness {

namespace {

/// One row of the flag table. Flags with an empty `placeholder` are bare
/// booleans ("--full"); the rest take "=VALUE" and hand the value text to
/// their setter. The --help listing is generated from these same rows.
struct OptionSpec {
  std::string_view name;         // "--reps"
  std::string_view placeholder;  // "N", or "" for bare flags
  std::string_view help;
  std::function<void(CliOptions&, std::string_view)> apply;
};

int to_int(std::string_view text) {
  return std::atoi(std::string(text).c_str());
}
/// 0.0 for a non-finite parse ("inf", "nan"): every numeric flag reads 0
/// as default/unset, so no infinity or NaN reaches a cap or a budget.
double to_double(std::string_view text) {
  const double v = std::atof(std::string(text).c_str());
  return std::isfinite(v) ? v : 0.0;
}

const std::vector<OptionSpec>& option_table() {
  static const std::vector<OptionSpec> table = {
      {"--full", "",
       "paper-scale repetitions/grids (default is a quick run)",
       [](CliOptions& o, std::string_view) { o.full = true; }},
      {"--reps", "N", "repetition override",
       [](CliOptions& o, std::string_view v) { o.reps = to_int(v); }},
      {"--jobs", "N",
       "worker threads for independent cells (default: hardware "
       "concurrency; outputs are identical at any N)",
       [](CliOptions& o, std::string_view v) {
         o.jobs = static_cast<std::size_t>(to_int(v));
         if (o.jobs == 0) o.jobs = 1;
       }},
      {"--csv-dir", "PATH", "where result CSVs land (default \"results\")",
       [](CliOptions& o, std::string_view v) { o.csv_dir = std::string(v); }},
      {"--seed", "N", "base RNG seed",
       [](CliOptions& o, std::string_view v) {
         o.seed = static_cast<std::uint64_t>(
             std::atoll(std::string(v).c_str()));
       }},
      {"--telemetry", "", "enable per-node time-series sampling",
       [](CliOptions& o, std::string_view) { o.telemetry = true; }},
      {"--telemetry-period", "US",
       "sampling period in simulated microseconds",
       [](CliOptions& o, std::string_view v) {
         o.telemetry_period_us = to_double(v);
         if (o.telemetry_period_us <= 0.0) {
           o.telemetry_period_us = 0.0;  // fall back to binary default
         }
       }},
      {"--trace-out", "PATH",
       "write a Chrome trace-event JSON (open in ui.perfetto.dev)",
       [](CliOptions& o, std::string_view v) { o.trace_out = std::string(v); }},
      {"--policy", "NAME",
       "scheduler policy (uniform|greedy|amenability|race-to-idle; sched "
       "binaries, empty = sweep all)",
       [](CliOptions& o, std::string_view v) { o.policy = std::string(v); }},
      {"--budget", "W", "group power budget in watts (sched binaries)",
       [](CliOptions& o, std::string_view v) {
         o.budget_w = to_double(v);
         if (o.budget_w < 0.0) o.budget_w = 0.0;
       }},
      {"--arrivals", "N", "job-stream length (sched binaries)",
       [](CliOptions& o, std::string_view v) { o.arrivals = to_int(v); }},
      {"--lanes", "N",
       "schedulable lanes per node; >1 co-runs jobs on the shared "
       "hierarchy (sched binaries)",
       [](CliOptions& o, std::string_view v) {
         o.lanes = static_cast<std::size_t>(to_int(v));
       }},
      {"--racks", "N", "racks in the fleet (fleet binaries)",
       [](CliOptions& o, std::string_view v) {
         o.racks = static_cast<std::size_t>(to_int(v));
       }},
      {"--rack-nodes", "N", "nodes per rack (fleet binaries)",
       [](CliOptions& o, std::string_view v) {
         o.rack_nodes = static_cast<std::size_t>(to_int(v));
       }},
      {"--tenants", "N", "tenant arrival streams (fleet binaries)",
       [](CliOptions& o, std::string_view v) {
         o.tenants = static_cast<std::size_t>(to_int(v));
       }},
      {"--ambient", "C", "chassis inlet temperature in Celsius",
       [](CliOptions& o, std::string_view v) { o.ambient_c = to_double(v); }},
      {"--fan-policy", "NAME",
       "thermal governor policy (off|quiet|balanced|aggressive; empty = "
       "governor off)",
       [](CliOptions& o, std::string_view v) {
         o.fan_policy = std::string(v);
       }},
      {"--subsystem-caps", "CPU,UNCORE,MEM",
       "per-subsystem caps in watts (0 = that subsystem uncapped)",
       [](CliOptions& o, std::string_view v) {
         double w[3] = {0.0, 0.0, 0.0};
         std::size_t field = 0;
         std::size_t start = 0;
         for (std::size_t i = 0; i <= v.size() && field < 3; ++i) {
           if (i == v.size() || v[i] == ',') {
             w[field++] = to_double(v.substr(start, i - start));
             start = i + 1;
           }
         }
         for (int i = 0; i < 3; ++i) {
           o.subsystem_caps_w[i] = w[i] > 0.0 ? w[i] : 0.0;
         }
         o.subsystem_caps_set =
             o.subsystem_caps_w[0] > 0.0 || o.subsystem_caps_w[1] > 0.0 ||
             o.subsystem_caps_w[2] > 0.0;
       }},
      {"--predictor", "",
       "enable phase prediction + proactive cap planning (off = reactive)",
       [](CliOptions& o, std::string_view) { o.predictor = true; }},
      {"--phase-window", "N",
       "phase-detection window in chunk completions (default 64)",
       [](CliOptions& o, std::string_view v) {
         const int n = to_int(v);
         o.phase_window = n > 0 ? static_cast<std::size_t>(n) : 0;
       }},
      {"--learn-online", "",
       "learn amenability curves online; learned curves supersede the "
       "static table once they materialise",
       [](CliOptions& o, std::string_view) { o.learn_online = true; }},
      {"--memo-store", "PATH",
       "persistent chunk-memo store: load before the run (corrupt stores "
       "rejected whole), save after",
       [](CliOptions& o, std::string_view v) {
         o.memo_store = std::string(v);
       }},
      {"--memo-capacity", "N",
       "bound on recorded memo entries, LRU-evicted at serial commit "
       "points (0 = unbounded)",
       [](CliOptions& o, std::string_view v) {
         const int n = to_int(v);
         o.memo_capacity = n > 0 ? static_cast<std::size_t>(n) : 0;
       }},
  };
  return table;
}

void print_usage() {
  std::printf("flags:\n");
  for (const OptionSpec& spec : option_table()) {
    std::string left(spec.name);
    if (!spec.placeholder.empty()) {
      left += "=";
      left += spec.placeholder;
    }
    std::printf("  %-22s %.*s\n", left.c_str(),
                static_cast<int>(spec.help.size()), spec.help.data());
  }
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  // Every study's output is bit-identical at any worker count, so a
  // command line without --jobs uses every core.
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    }
    for (const OptionSpec& spec : option_table()) {
      if (spec.placeholder.empty()) {
        if (arg == spec.name) {
          spec.apply(options, {});
          break;
        }
        continue;
      }
      if (arg.size() > spec.name.size() + 1 &&
          arg.rfind(spec.name, 0) == 0 && arg[spec.name.size()] == '=') {
        spec.apply(options, arg.substr(spec.name.size() + 1));
        break;
      }
    }
    // Unknown arguments are ignored (google-benchmark passes its own).
  }
  return options;
}

}  // namespace pcap::harness
