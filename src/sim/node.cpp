#include "sim/node.hpp"

#include <algorithm>

#include "sim/execution_context.hpp"

namespace pcap::sim {

Node::Node(const MachineConfig& config, std::uint64_t seed)
    : PackagePlatform(config),
      config_(config),
      pstates_(power::PStateTable::romley_e5_2680()),
      hierarchy_(config.hierarchy, bank_),
      core_(config.core, pstates_, bank_),
      rng_(seed) {
  package_.power_on(operating_point());
  next_tick_ = config_.ticks.node_tick;
  next_control_ = config_.ticks.bmc_period;
  next_noise_ = config_.ticks.os_noise_period;
}

OperatingPoint Node::operating_point() const {
  OperatingPoint op;
  op.active_cores = running_ ? 1 : 0;
  op.pstate = core_.pstate();
  op.frequency = core_.frequency();
  op.voltage = core_.voltage();
  op.duty = core_.duty();
  op.l3_active_ways = static_cast<int>(hierarchy_.l3_ways());
  op.dram_gated = hierarchy_.dram_gated();
  return op;
}

void Node::tick() {
  const util::Picoseconds now = core_.now();
  next_tick_ = now + config_.ticks.node_tick;
  CounterTotals totals;
  totals.add(bank_);
  if (!package_.account(now, totals, operating_point(), running_)) return;

  // OS noise: timer interrupts flush translations and drain the pipeline.
  // Fires per unit of *time*, so heavily throttled (longer) runs absorb more
  // of it — one source of the paper's counter noise at low caps.
  if (os_noise_enabled_ && running_ && now >= next_noise_) {
    hierarchy_.flush_tlbs();
    core_.external_drain();
    // Jitter the period a little so noise does not alias with control.
    const double jitter = 0.8 + 0.4 * rng_.uniform();
    next_noise_ =
        now + static_cast<util::Picoseconds>(
                  static_cast<double>(config_.ticks.os_noise_period) * jitter);
  }

  // Management plane.
  if (control_hook_ && now >= next_control_) {
    control_hook_(*this);
    next_control_ = now + config_.ticks.bmc_period;
  }

  // Telemetry after the control hook, so a sample shows the operating point
  // the BMC just set (read-only: must not perturb any state the sim
  // depends on).
  if constexpr (telemetry::kCompiledIn) {
    if (probe_ != nullptr && probe_->wants_sample(now)) {
      telemetry::ProbeInput in = package_.probe_input(now, operating_point());
      add_probe_counters(in, bank_);
      probe_->on_tick(in);
    }
  }
}

RunReport Node::run(Workload& workload) {
  const util::Picoseconds start = core_.now();
  const auto before = bank_.snapshot();

  running_ = true;
  package_.begin_run(start);
  next_tick_ = start + config_.ticks.node_tick;
  next_control_ = start + config_.ticks.bmc_period;
  next_noise_ = start + config_.ticks.os_noise_period;

  ExecutionContext ctx(*this);
  workload.run(ctx);
  tick();  // capture the tail of the run
  running_ = false;

  RunReport report;
  report.workload = workload.name();
  report.elapsed = core_.now() - start;
  const PackageTotals totals = package_.end_run(report.elapsed);
  report.energy_j = totals.energy_j;
  report.avg_power_w = totals.avg_power_w;
  report.peak_power_w = totals.peak_power_w;
  report.avg_frequency = totals.avg_frequency;
  report.avg_duty = totals.avg_duty;
  report.final_temperature_c = totals.final_temperature_c;
  const auto after = bank_.snapshot();
  for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
    report.counters[i] = after[i] - before[i];
  }
  return report;
}

void Node::idle_for(util::Picoseconds duration) {
  const util::Picoseconds end = core_.now() + duration;
  while (core_.now() < end) {
    const util::Picoseconds step =
        std::min(config_.ticks.node_tick, end - core_.now());
    core_.idle_advance(step);
    tick();
  }
}

}  // namespace pcap::sim
