#include "harness/experiment.hpp"

#include <cmath>
#include <cstdio>

#include "core/capped_runner.hpp"
#include "harness/cli.hpp"
#include "sim/node.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace pcap::harness {

namespace {

CellStats run_cell(core::CappedRunner& runner, sim::Workload& workload,
                   std::optional<double> cap_w, int repetitions) {
  CellStats cell;
  cell.cap_w = cap_w;
  cell.repetitions = repetitions;
  util::RunningStats time_stats;
  util::RunningStats power_stats;
  double freq_sum = 0.0;
  for (int r = 0; r < repetitions; ++r) {
    const sim::RunReport report = runner.run(workload, cap_w);
    time_stats.add(util::to_seconds(report.elapsed));
    power_stats.add(report.avg_power_w);
    cell.energy_j += report.energy_j;
    freq_sum += static_cast<double>(report.avg_frequency);
    cell.avg_duty += report.avg_duty;
    for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
      cell.counters[i] += static_cast<double>(report.counters[i]);
    }
  }
  const double n = repetitions > 0 ? repetitions : 1;
  cell.time_s = time_stats.mean();
  cell.time_stddev_s = time_stats.stddev();
  cell.avg_power_w = power_stats.mean();
  cell.power_stddev_w = power_stats.stddev();
  cell.energy_j /= n;
  cell.avg_frequency = static_cast<util::Hertz>(freq_sum / n);
  cell.avg_duty /= n;
  for (auto& c : cell.counters) c /= n;
  return cell;
}

std::string cell_label(std::optional<double> cap_w) {
  if (!cap_w) return "baseline";
  char buf[32];
  std::snprintf(buf, sizeof buf, "cap-%g", *cap_w);
  return buf;
}

}  // namespace

const CellStats* StudyResult::cell(double cap_w) const {
  for (const auto& c : capped) {
    if (c.cap_w && *c.cap_w == cap_w) return &c;
  }
  return nullptr;
}

double StudyResult::pct(double value, double base) {
  return base != 0.0 ? (value - base) / base * 100.0 : 0.0;
}

StudyResult run_power_cap_study(const std::string& workload_name,
                                const WorkloadFactory& factory,
                                const StudyConfig& config) {
  StudyResult result;
  result.workload = workload_name;
  result.capped.resize(config.caps_w.size());

  // Cell 0 is the baseline, cells 1.. are the caps. Every cell owns an
  // independent node + workload built from identical seeds, whether the
  // cells run inline (jobs <= 1) or on a pool — so a study's result is
  // bit-identical for any `jobs` value (tests/test_batch_equivalence.cpp).
  const std::size_t cells = config.caps_w.size() + 1;
  std::vector<CellStats> computed(cells);
  // Each cell owns its probe; sinks fire serially afterwards so callers
  // never need to synchronize against the worker pool.
  std::vector<std::unique_ptr<telemetry::NodeProbe>> probes(cells);
  util::parallel_for(cells, config.jobs, [&](std::size_t i) {
    sim::Node node(config.machine, config.seed);
    core::CappedRunner runner(node, config.bmc);
    if (config.subsystem_caps) {
      runner.bmc().set_subsystem_caps(*config.subsystem_caps);
    }
    const std::unique_ptr<sim::Workload> workload = factory();
    const std::optional<double> cap =
        i == 0 ? std::nullopt : std::optional<double>(config.caps_w[i - 1]);
    if (config.telemetry.enabled) {
      probes[i] = std::make_unique<telemetry::NodeProbe>(
          config.telemetry, nullptr, cell_label(cap));
      node.set_telemetry(probes[i].get());
      runner.bmc().set_telemetry(nullptr, probes[i].get(), cell_label(cap));
    }
    // The governor ticks after the BMC so a thermal clamp always wins the
    // control period (it only ever deepens the BMC's operating point).
    std::optional<thermal::ThermalGovernor> governor;
    if (config.thermal_governor.enabled) {
      governor.emplace(node, config.thermal_governor);
      if (probes[i]) {
        governor->set_telemetry(nullptr, probes[i].get(), cell_label(cap));
      }
      node.set_control_hook(
          [&bmc = runner.bmc(), &gov = *governor](sim::PlatformControl&) {
            bmc.on_control_tick();
            gov.on_control_tick();
          });
    }
    computed[i] = run_cell(runner, *workload, cap, config.repetitions);
  });
  result.baseline = computed[0];
  for (std::size_t i = 0; i < config.caps_w.size(); ++i) {
    result.capped[i] = computed[i + 1];
  }
  if (config.telemetry.enabled && config.telemetry_sink) {
    for (const auto& probe : probes) {
      if (probe) config.telemetry_sink(probe->name(), probe->sampler());
    }
  }
  return result;
}

void apply_cli_thermal(StudyConfig& config, const CliOptions& cli) {
  if (!cli.fan_policy.empty()) {
    config.thermal_governor = thermal::governor_for_policy(cli.fan_policy);
    if (config.thermal_governor.enabled &&
        config.machine.thermal.is_single_rc()) {
      // A governor without the RC network / fan has nothing to steer;
      // upgrade, keeping whatever ambient the config already carries.
      const double ambient = config.machine.thermal.ambient_c;
      config.machine = sim::MachineConfig::romley_thermal();
      config.machine.thermal.ambient_c = ambient;
    }
  }
  if (cli.ambient_c > 0.0) config.machine.thermal.ambient_c = cli.ambient_c;
  if (cli.subsystem_caps_set) {
    core::SubsystemCaps caps;
    caps.enabled = true;
    caps.cpu_w = cli.subsystem_caps_w[0];
    caps.uncore_w = cli.subsystem_caps_w[1];
    caps.memory_w = cli.subsystem_caps_w[2];
    config.subsystem_caps = caps;
  }
}

void apply_cli_telemetry(StudyConfig& config, const CliOptions& cli,
                         const std::string& prefix) {
  config.telemetry = cli.telemetry_config();
  if (!config.telemetry.enabled) return;
  config.telemetry_sink = [dir = cli.csv_dir, prefix](
                              const std::string& label,
                              const telemetry::Sampler& sampler) {
    sampler.write_csv_file(dir + "/" + prefix + "_telemetry_" + label +
                          ".csv");
  };
}

}  // namespace pcap::harness
