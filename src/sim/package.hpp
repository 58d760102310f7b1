// The node's one package: what the paper's Romley node has exactly once
// however many cores run — the power model, thermal network and fan, the
// wall meter, the BMC's power window and the run-level integrals. Node and
// SmpNode both derive from PackagePlatform and differ only in what they
// feed Package::account (one counter bank vs the lane sum) and in where
// their tick puts OS noise, the control hook and the probes around it.
#pragma once

#include <cstdint>

#include "meter/watts_up.hpp"
#include "pmu/counters.hpp"
#include "power/model.hpp"
#include "sim/machine_config.hpp"
#include "sim/platform_control.hpp"
#include "telemetry/probe.hpp"
#include "thermal/fan.hpp"
#include "thermal/rc_network.hpp"
#include "util/units.hpp"

namespace pcap::sim {

/// Cumulative counters the package rates are differenced from.
struct CounterTotals {
  std::uint64_t l3_acc = 0, dram_acc = 0, ins = 0, cyc = 0, stall = 0;

  void add(const pmu::CounterBank& bank);
};

/// Adds `bank`'s cumulative counters into the counter half of `in`.
void add_probe_counters(telemetry::ProbeInput& in, const pmu::CounterBank& bank);

/// The package-wide operating point the cores share.
struct OperatingPoint {
  int active_cores = 0;  // cores with a live workload
  std::uint32_t pstate = 0;
  util::Hertz frequency = 0;
  double voltage = 0.0;
  double duty = 1.0;
  int l3_active_ways = 0;
  bool dram_gated = false;
};

/// Run-level package figures.
struct PackageTotals {
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;
  util::Hertz avg_frequency = 0;
  double avg_duty = 1.0;
  double final_temperature_c = 0.0;
};

class Package {
 public:
  explicit Package(const MachineConfig& config);

  /// Prices the idle point the node powers on at; opens the meter at 0.
  void power_on(const OperatingPoint& op);
  /// Opens a run at `start`: meter session, peak, window and integrals.
  void begin_run(util::Picoseconds start);
  /// Reseeds the rate baselines (counters moved with no accounting).
  void rebase(const CounterTotals& totals) { last_ = totals; }
  /// Folds buffered heat and returns the run's package figures.
  PackageTotals end_run(util::Picoseconds elapsed);

  /// Accounts counter rates, power, heat, meter, BMC window and run
  /// integrals from the last accounted instant up to `now`; returns false
  /// (changing nothing) when no time has passed. The model sees a running
  /// workload only while `running` is set and some core is active; the
  /// stall fraction resets only once `running` clears.
  bool account(util::Picoseconds now, const CounterTotals& totals,
               const OperatingPoint& op, bool running);
  double window_average_power_w(util::Picoseconds now);
  /// The package half of a probe sample; the caller adds the counters.
  telemetry::ProbeInput probe_input(util::Picoseconds now,
                                    const OperatingPoint& op) const;
  void start_metering(util::Picoseconds now) { meter_.start_session(now); }

  double watts() const { return watts_; }
  double stall_fraction() const { return stall_fraction_; }
  const power::PowerBreakdown& breakdown() const { return breakdown_; }
  const meter::WattsUp& meter() const { return meter_; }
  thermal::RcNetwork& thermal() { return thermal_; }
  const thermal::RcNetwork& thermal() const { return thermal_; }
  thermal::Fan& fan() { return fan_; }
  const thermal::Fan& fan() const { return fan_; }

 private:
  power::PowerInputs inputs(const OperatingPoint& op, bool running) const;

  double base_ipc_;
  power::NodePowerModel power_model_;
  thermal::RcNetwork thermal_;
  thermal::Fan fan_;
  power::PowerBreakdown breakdown_;
  meter::WattsUp meter_;

  double watts_ = 0.0;
  double peak_watts_ = 0.0;
  util::Picoseconds last_tick_ = 0;
  double window_energy_j_ = 0.0;  // BMC sensor window
  util::Picoseconds window_start_ = 0;
  double freq_time_integral_ = 0.0;  // Hz * seconds
  double duty_time_integral_ = 0.0;  // seconds

  // Rate computation between accounting steps.
  CounterTotals last_;
  double activity_ = 0.9;
  double stall_fraction_ = 0.0;
  double l3_rate_hz_ = 0.0;
  double dram_rate_hz_ = 0.0;
};

/// The package-level half of PlatformControl, answered from one Package;
/// each node adds its own clock and per-core actuation fan-out.
class PackagePlatform : public PlatformControl {
 public:
  const meter::WattsUp& meter() const { return package_.meter(); }
  double temperature_c() const { return package_.thermal().temperature_c(); }
  thermal::RcNetwork& thermal_network() { return package_.thermal(); }

  double window_average_power_w() override {
    return package_.window_average_power_w(now());
  }
  double instantaneous_power_w() const override { return package_.watts(); }
  double memory_stall_fraction() const override {
    return package_.stall_fraction();
  }
  double subsystem_power_w(power::Subsystem s) const override {
    return package_.breakdown().subsystem_w(s);
  }
  double sensor_temperature_c() const override { return temperature_c(); }
  double fan_rpm() const override { return package_.fan().rpm(); }
  double fan_max_rpm() const override { return package_.fan().max_rpm(); }
  void set_fan_rpm(double rpm) override { package_.fan().set_rpm(rpm); }

 protected:
  explicit PackagePlatform(const MachineConfig& config) : package_(config) {}

  Package package_;
};

}  // namespace pcap::sim
