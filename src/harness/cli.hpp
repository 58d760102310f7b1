// Tiny flag parser shared by the bench binaries:
//   --full                 paper-scale repetitions/grids (benches default quick)
//   --reps=N               repetition override
//   --jobs=N               worker threads for independent cells (default:
//                          hardware concurrency)
//   --csv-dir=PATH         where result CSVs land (default "results")
//   --seed=N
//   --telemetry            enable per-node time-series sampling
//   --telemetry-period=US  sampling period in simulated microseconds
//   --trace-out=PATH       write a Chrome trace-event JSON (implies sampling
//                          where the binary supports it)
//   --policy=NAME          scheduler policy (sched binaries; "" = sweep all)
//   --budget=W             group power budget in watts (sched binaries)
//   --arrivals=N           job-stream length (sched binaries)
//   --racks=N              racks in the fleet (fleet binaries)
//   --rack-nodes=N         nodes per rack (fleet binaries)
//   --tenants=N            tenant arrival streams (fleet binaries)
//   --ambient=C            chassis inlet temperature in Celsius
//   --fan-policy=NAME      thermal governor policy (off|quiet|balanced|
//                          aggressive; empty = governor off)
//   --subsystem-caps=CPU,UNCORE,MEM  per-subsystem caps in watts
//   --predictor            enable phase prediction + proactive cap planning
//   --phase-window=N       phase-detection window in chunk completions
//   --learn-online         learn amenability curves online (supersedes the
//                          static table once curves materialise)
//   --memo-store=PATH      persistent chunk-memo store: load before the run
//                          (corrupt stores rejected whole), save after
//   --memo-capacity=N      bound on recorded memo entries (LRU eviction at
//                          serial commit points; 0 = unbounded)
//
// Parsing is table-driven: each flag is one OptionSpec row (name, value
// placeholder, help, setter) and the --help text is generated from the same
// rows, so a new flag is a one-line addition that cannot drift from its
// documentation.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/probe.hpp"
#include "util/units.hpp"

namespace pcap::harness {

struct CliOptions {
  bool full = false;
  int reps = -1;  // -1: bench default
  std::size_t jobs = 1;  // parse_cli defaults it to hardware concurrency
  std::string csv_dir = "results";
  std::uint64_t seed = 1;
  bool telemetry = false;
  double telemetry_period_us = 0.0;  // 0: binary default (200 us)
  std::string trace_out;             // empty: no trace file
  std::string policy;                // empty: binary default / full sweep
  double budget_w = 0.0;             // 0: binary default
  int arrivals = 0;                  // 0: binary default
  std::size_t lanes = 0;             // 0: binary default (sched binaries)
  std::size_t racks = 0;             // 0: binary default (fleet binaries)
  std::size_t rack_nodes = 0;        // 0: binary default (fleet binaries)
  std::size_t tenants = 0;           // 0: binary default (fleet binaries)
  double ambient_c = 0.0;            // 0: machine default (35 C)
  std::string fan_policy;            // empty: governor off (off|quiet|balanced|aggressive)
  // Per-subsystem caps "CPU,UNCORE,MEM" in watts; all zero = none.
  double subsystem_caps_w[3] = {0.0, 0.0, 0.0};
  bool subsystem_caps_set = false;
  bool predictor = false;        // phase prediction + proactive planning
  std::size_t phase_window = 0;  // 0: predictor default (64 completions)
  bool learn_online = false;     // online amenability learning
  std::string memo_store;        // empty: no persistent chunk-memo store
  std::size_t memo_capacity = 0; // 0: unbounded memo cache

  /// Effective repetitions: explicit --reps wins, else full ? 5 : quick_reps.
  int repetitions(int quick_reps) const {
    if (reps > 0) return reps;
    return full ? 5 : quick_reps;
  }

  /// Telemetry config reflecting the flags (enabled by --telemetry, or
  /// implicitly by --trace-out since a trace needs the probes running).
  /// `default_period_us` is used when --telemetry-period was not given.
  telemetry::TelemetryConfig telemetry_config(
      double default_period_us = 200.0) const {
    telemetry::TelemetryConfig config;
    config.enabled = telemetry || !trace_out.empty();
    config.sample_period = util::microseconds(
        telemetry_period_us > 0.0 ? telemetry_period_us : default_period_us);
    return config;
  }
};

/// Parses known flags; unknown arguments are ignored (google-benchmark
/// passes its own). Exits with a usage message on --help.
CliOptions parse_cli(int argc, char** argv);

}  // namespace pcap::harness
