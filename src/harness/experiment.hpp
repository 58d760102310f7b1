// Power-cap study runner: executes a workload at baseline and across a grid
// of power caps, N repetitions each, averaging the measurements exactly as
// the paper's methodology (§III) prescribes.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bmc.hpp"
#include "pmu/events.hpp"
#include "sim/machine_config.hpp"
#include "thermal/governor.hpp"
#include "sim/workload.hpp"
#include "telemetry/probe.hpp"
#include "util/units.hpp"

namespace pcap::harness {

/// Creates a fresh workload instance (used when cells run on worker threads,
/// each with its own node).
using WorkloadFactory = std::function<std::unique_ptr<sim::Workload>()>;

struct StudyConfig {
  std::vector<double> caps_w = {160, 155, 150, 145, 140, 135, 130, 125, 120};
  int repetitions = 5;
  std::size_t jobs = 1;  // worker threads; cells run concurrently when > 1
  sim::MachineConfig machine = sim::MachineConfig::romley();
  core::BmcConfig bmc;
  std::uint64_t seed = 1;

  /// Per-cell thermal governor, OFF by default: a study with
  /// `thermal_governor.enabled == false` is bit-identical to one that
  /// never heard of the field (tests/test_thermal.cpp pins this). When
  /// enabled, each cell's node gets its own governor ticking after the
  /// BMC every control period, so thermal clamps can deepen (never relax)
  /// the BMC's operating point.
  thermal::ThermalGovernorConfig thermal_governor =
      thermal::governor_for_policy("off");

  /// Per-subsystem caps applied to every cell's BMC before the run
  /// (package cap still comes from `caps_w`; the BMC clamps the sum).
  std::optional<core::SubsystemCaps> subsystem_caps;

  /// Per-cell node telemetry. When `telemetry.enabled`, every cell's node
  /// carries a probe (power / frequency / cap / miss-rate time series), and
  /// `telemetry_sink` — if set — is called once per cell with the cell's
  /// label ("baseline" or "cap-<w>") and its filled sampler. Sinks run on
  /// the calling thread after all cells finish, in deterministic cell
  /// order, so they need no locking even with jobs > 1. Attaching
  /// telemetry must not change any measurement
  /// (tests/test_telemetry.cpp holds the study bit-identical on/off).
  telemetry::TelemetryConfig telemetry;
  std::function<void(const std::string&, const telemetry::Sampler&)>
      telemetry_sink;
};

/// Averaged measurements for one (workload, cap) cell.
struct CellStats {
  std::optional<double> cap_w;  // nullopt == baseline (no cap)
  int repetitions = 0;
  double time_s = 0.0;
  double time_stddev_s = 0.0;
  double avg_power_w = 0.0;
  double power_stddev_w = 0.0;
  double energy_j = 0.0;
  util::Hertz avg_frequency = 0;
  double avg_duty = 1.0;
  std::array<double, pmu::kEventCount> counters{};  // averaged over reps

  double counter(pmu::Event e) const { return counters[pmu::index_of(e)]; }
};

struct StudyResult {
  std::string workload;
  CellStats baseline;
  std::vector<CellStats> capped;  // ordered as StudyConfig::caps_w

  /// Cell at exactly `cap_w`; nullptr if absent.
  const CellStats* cell(double cap_w) const;
  /// Baseline-relative percent difference helper.
  static double pct(double value, double base);
};

/// Runs the full study. Every cell gets its own node and workload instance
/// built from the same seeds; with jobs <= 1 the cells run in order on the
/// calling thread, with jobs > 1 on a pool, and the result is bit-identical
/// either way.
StudyResult run_power_cap_study(const std::string& workload_name,
                                const WorkloadFactory& factory,
                                const StudyConfig& config);

struct CliOptions;

/// Wires the CLI telemetry flags into `config`: a no-op unless --telemetry
/// (or --trace-out) was given, in which case every cell's sample series is
/// written to `<csv_dir>/<prefix>_telemetry_<label>.csv` ("baseline",
/// "cap-150", ...).
void apply_cli_telemetry(StudyConfig& config, const CliOptions& cli,
                         const std::string& prefix);

/// Wires the CLI thermal flags into `config`: --ambient overrides the
/// chassis inlet temperature, --fan-policy picks a thermal governor policy
/// (upgrading the machine to the full RC-network + fan thermal model when
/// the governor is enabled and the config still carries the degenerate
/// single-RC network), and --subsystem-caps installs per-subsystem caps.
/// A no-op when none of the three flags was given.
void apply_cli_thermal(StudyConfig& config, const CliOptions& cli);

}  // namespace pcap::harness
