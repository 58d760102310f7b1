#include "core/amenability.hpp"

#include <algorithm>

namespace pcap::core {

namespace {

/// A cap counts as met when the measured draw stays within this of it.
constexpr double kCapMetToleranceW = 2.0;

struct Averaged {
  double time_s = 0.0;
  double power_w = 0.0;
  double energy_j = 0.0;
};

Averaged run_averaged(CappedRunner& runner, sim::Workload& workload,
                      std::optional<double> cap, int reps) {
  Averaged avg;
  reps = std::max(reps, 1);
  for (int r = 0; r < reps; ++r) {
    const sim::RunReport report = runner.run(workload, cap);
    avg.time_s += util::to_seconds(report.elapsed);
    avg.power_w += report.avg_power_w;
    avg.energy_j += report.energy_j;
  }
  avg.time_s /= reps;
  avg.power_w /= reps;
  avg.energy_j /= reps;
  return avg;
}

}  // namespace

AmenabilityReport AmenabilityAnalyzer::analyze(
    CappedRunner& runner, sim::Workload& workload,
    std::span<const double> caps_w) const {
  AmenabilityReport report;

  const Averaged base =
      run_averaged(runner, workload, std::nullopt, options_.repetitions);
  report.baseline_power_w = base.power_w;
  report.baseline_time = util::seconds(base.time_s);
  report.baseline_energy_j = base.energy_j;

  double slowdown_sum = 0.0;
  for (double cap : caps_w) {
    const Averaged capped =
        run_averaged(runner, workload, cap, options_.repetitions);
    AmenabilityPoint p;
    p.cap_w = cap;
    p.measured_power_w = capped.power_w;
    p.slowdown = base.time_s > 0.0 ? capped.time_s / base.time_s : 1.0;
    p.energy_ratio =
        base.energy_j > 0.0 ? capped.energy_j / base.energy_j : 1.0;
    p.cap_met = capped.power_w <= cap + kCapMetToleranceW;
    report.points.push_back(p);
    slowdown_sum += p.slowdown;
  }

  if (!report.points.empty()) {
    report.sensitivity_index =
        slowdown_sum / static_cast<double>(report.points.size()) - 1.0;
    double floor = 0.0;
    for (const auto& p : report.points) {
      if (p.slowdown <= options_.slowdown_tolerance) {
        floor = floor == 0.0 ? p.cap_w : std::min(floor, p.cap_w);
      }
    }
    report.usable_cap_floor_w = floor;
  }
  return report;
}

}  // namespace pcap::core
