#include "sim/package.hpp"

#include <algorithm>

namespace pcap::sim {

using pmu::Event;

void CounterTotals::add(const pmu::CounterBank& bank) {
  l3_acc += bank.get(Event::kL3Tca);
  dram_acc += bank.get(Event::kDramAcc);
  ins += bank.get(Event::kTotIns);
  cyc += bank.get(Event::kTotCyc);
  stall += bank.get(Event::kStallCyc);
}

void add_probe_counters(telemetry::ProbeInput& in,
                        const pmu::CounterBank& bank) {
  in.tot_ins += bank.get(Event::kTotIns);
  in.tot_cyc += bank.get(Event::kTotCyc);
  in.l1_acc += bank.get(Event::kL1Dca);
  in.l1_miss += bank.get(Event::kL1Dcm);
  in.l2_acc += bank.get(Event::kL2Tca);
  in.l2_miss += bank.get(Event::kL2Tcm);
  in.l3_acc += bank.get(Event::kL3Tca);
  in.l3_miss += bank.get(Event::kL3Tcm);
}

Package::Package(const MachineConfig& config)
    : base_ipc_(config.core.base_ipc),
      power_model_(config.power),
      thermal_(config.thermal_network.nodes.empty()
                   ? thermal::RcNetworkConfig::single_rc(config.thermal)
                   : config.thermal_network),
      fan_(config.fan),
      meter_(config.ticks.meter_period()) {}

void Package::power_on(const OperatingPoint& op) {
  breakdown_ = power_model_.compute(inputs(op, false));
  watts_ = breakdown_.total;
  meter_.start_session(0);
}

void Package::begin_run(util::Picoseconds start) {
  meter_.start_session(start);
  peak_watts_ = watts_;
  last_tick_ = start;
  window_start_ = start;
  window_energy_j_ = 0.0;
  freq_time_integral_ = 0.0;
  duty_time_integral_ = 0.0;
}

PackageTotals Package::end_run(util::Picoseconds elapsed) {
  thermal_.flush();  // fold any buffered heat before the final reading
  PackageTotals totals;
  totals.energy_j = meter_.energy_joules();
  totals.avg_power_w = meter_.average_watts();
  totals.peak_power_w = peak_watts_;
  const double elapsed_s = util::to_seconds(elapsed);
  if (elapsed_s > 0.0) {
    totals.avg_frequency =
        static_cast<util::Hertz>(freq_time_integral_ / elapsed_s);
    totals.avg_duty = duty_time_integral_ / elapsed_s;
  }
  totals.final_temperature_c = thermal_.temperature_c();
  return totals;
}

power::PowerInputs Package::inputs(const OperatingPoint& op,
                                   bool running) const {
  power::PowerInputs in;
  in.workload_running = running && op.active_cores > 0;
  in.active_cores = in.workload_running ? op.active_cores : 0;
  in.frequency = op.frequency;
  in.voltage = op.voltage;
  in.duty = op.duty;
  in.activity = in.workload_running ? activity_ : 0.0;
  in.l3_accesses_per_s = l3_rate_hz_;
  in.dram_accesses_per_s = dram_rate_hz_;
  in.l3_active_ways = op.l3_active_ways;
  in.dram_gated = op.dram_gated;
  in.temperature_c = thermal_.temperature_c();
  return in;
}

bool Package::account(util::Picoseconds now, const CounterTotals& totals,
                      const OperatingPoint& op, bool running) {
  if (now <= last_tick_) return false;
  const util::Picoseconds dt = now - last_tick_;
  const double dt_s = util::to_seconds(dt);
  last_tick_ = now;

  // Activity and transaction rates from counter deltas over the step.
  l3_rate_hz_ = static_cast<double>(totals.l3_acc - last_.l3_acc) / dt_s;
  dram_rate_hz_ = static_cast<double>(totals.dram_acc - last_.dram_acc) / dt_s;
  const std::uint64_t d_cyc = totals.cyc - last_.cyc;
  if (d_cyc != 0) {
    const double ipc =
        static_cast<double>(totals.ins - last_.ins) / static_cast<double>(d_cyc);
    activity_ = 0.70 + 0.30 * std::min(ipc / base_ipc_, 1.0);
    stall_fraction_ = std::min(static_cast<double>(totals.stall - last_.stall) /
                                   static_cast<double>(d_cyc),
                               1.0);
  } else if (!running) {
    stall_fraction_ = 0.0;
  }
  last_ = totals;

  // Power, heat, metering. With no fan fitted (the default) the fan terms
  // are exact no-ops, so watts_ and the thermal trajectory stay
  // bit-identical to the plain single-RC path.
  breakdown_ = power_model_.compute(inputs(op, running));
  watts_ = breakdown_.total;
  if (fan_.fitted()) watts_ += fan_.power_w();
  peak_watts_ = std::max(peak_watts_, watts_);
  if (thermal_.is_single_rc()) {
    // Fan power heats the chassis, not the die: lump silicon watts from the
    // breakdown (== watts_ when no fan).
    const double silicon_watts = breakdown_.total -
                                 power_model_.config().platform_base_w -
                                 power_model_.config().dram_background_w;
    thermal_.update_lumped(std::max(silicon_watts, 0.0), dt);
  } else {
    if (fan_.fitted()) thermal_.set_exhaust_r(fan_.resistance_c_per_w());
    thermal_.accumulate({breakdown_.subsystem_w(power::Subsystem::kCpu),
                         breakdown_.subsystem_w(power::Subsystem::kUncore),
                         breakdown_.subsystem_w(power::Subsystem::kMemory)},
                        dt);
  }
  meter_.observe(now, watts_);
  window_energy_j_ += watts_ * dt_s;

  // Run-level integrals for the reported average frequency / duty.
  freq_time_integral_ += static_cast<double>(op.frequency) * dt_s;
  duty_time_integral_ += op.duty * dt_s;
  return true;
}

double Package::window_average_power_w(util::Picoseconds now) {
  const util::Picoseconds dt = now > window_start_ ? now - window_start_ : 0;
  double avg = watts_;
  if (dt != 0 && window_energy_j_ > 0.0) {
    avg = window_energy_j_ / util::to_seconds(dt);
  }
  window_start_ = now;
  window_energy_j_ = 0.0;
  return avg;
}

telemetry::ProbeInput Package::probe_input(util::Picoseconds now,
                                           const OperatingPoint& op) const {
  telemetry::ProbeInput in;
  in.now = now;
  in.watts = watts_;
  in.frequency_mhz = static_cast<double>(op.frequency) /
                     static_cast<double>(util::kMegaHertz);
  in.pstate = op.pstate;
  in.duty = op.duty;
  in.temperature_c = thermal_.temperature_c();
  in.fan_rpm = fan_.rpm();
  in.cpu_temp_c = thermal_.source_temperature_c(power::Subsystem::kCpu);
  in.uncore_temp_c = thermal_.source_temperature_c(power::Subsystem::kUncore);
  in.dram_temp_c = thermal_.source_temperature_c(power::Subsystem::kMemory);
  in.cpu_w = breakdown_.subsystem_w(power::Subsystem::kCpu);
  in.uncore_w = breakdown_.subsystem_w(power::Subsystem::kUncore);
  in.memory_w = breakdown_.subsystem_w(power::Subsystem::kMemory);
  return in;
}

}  // namespace pcap::sim
