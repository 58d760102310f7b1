// The node's one package: what the paper's Romley node has exactly once
// however many cores run. Package holds the power model, thermal network
// and fan, the wall meter, the BMC's power window and the run-level
// integrals. PackagePlatform, the base both Node and SmpNode derive from,
// adds the shared L3 and DRAM, the core lanes' registry, every
// PlatformControl actuator and sensor (a fan-out over the lanes), the
// operating point and the housekeeping steps: package accounting, OS noise,
// the control hook and the probe feed. Each node keeps its clock, its run
// loop and the order its tick calls those steps in.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "mem/dram.hpp"
#include "meter/watts_up.hpp"
#include "pmu/counters.hpp"
#include "power/model.hpp"
#include "power/pstate.hpp"
#include "sim/core_model.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/platform_control.hpp"
#include "telemetry/probe.hpp"
#include "thermal/fan.hpp"
#include "thermal/rc_network.hpp"
#include "util/rng.hpp"
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

/// One core: its PMU counter bank, its view of the memory hierarchy (the
/// private levels over the node's shared L3 and DRAM) and its pipeline.
/// Node holds one; each SmpNode lane wraps one.
struct CoreLane {
  CoreLane(const MachineConfig& config, const power::PStateTable& pstates,
           cache::Cache& l3, mem::Dram& dram)
      : hierarchy(config.hierarchy, bank, l3, dram),
        core(config.core, pstates, bank) {}
  CoreLane(const CoreLane&) = delete;
  CoreLane& operator=(const CoreLane&) = delete;

  pmu::CounterBank bank;
  MemoryHierarchy hierarchy;
  CoreModel core;
  /// Runs a workload: counts as an active core and drains on OS noise.
  bool live = false;
};

/// The node base: one package over the core lanes the derived node
/// registers. PlatformControl is package-level, so every actuator applies
/// to each lane and every per-core getter reads the first lane.
class PackagePlatform : public PlatformControl {
 public:
  using ControlHook = std::function<void(PlatformControl&)>;
  /// Installs the management hook called every BMC control period with this
  /// node's PlatformControl face (pass nullptr to uninstall).
  void set_control_hook(ControlHook hook) { control_hook_ = std::move(hook); }
  /// Enables/disables the OS-noise model (periodic TLB flush + pipeline
  /// drain from timer interrupts). On by default.
  void set_os_noise(bool enabled) { os_noise_enabled_ = enabled; }
  /// Attaches a package-level probe fed every housekeeping tick with the
  /// counters summed over the cores (nullptr detaches). Probes only read
  /// state: results are bit-identical with or without one
  /// (tests/test_telemetry.cpp).
  void set_telemetry(telemetry::NodeProbe* probe) { probe_ = probe; }
  /// Attaches per-core probes (probes[i] follows core i; shorter spans
  /// leave the remaining cores unprobed, null entries skip a core). Each
  /// probe sees the package operating point with that core's counters.
  void set_core_telemetry(std::span<telemetry::NodeProbe* const> probes) {
    core_probes_.assign(probes.begin(), probes.end());
  }

  const meter::WattsUp& meter() const { return package_.meter(); }
  double temperature_c() const { return package_.thermal().temperature_c(); }
  thermal::RcNetwork& thermal_network() { return package_.thermal(); }
  const cache::Cache& shared_l3() const { return l3_; }
  const mem::Dram& shared_dram() const { return dram_; }
  int core_count() const { return static_cast<int>(core_lanes_.size()); }
  const CoreLane& core_lane(int core) const {
    return *core_lanes_[static_cast<std::size_t>(core)];
  }

  // --- PlatformControl ---
  std::uint32_t pstate_count() const override {
    return static_cast<std::uint32_t>(pstates_.size());
  }
  std::uint32_t pstate() const override { return front().core.pstate(); }
  void set_pstate(std::uint32_t index) override;
  util::Hertz frequency() const override { return front().core.frequency(); }
  double duty() const override { return front().core.duty(); }
  void set_duty(double duty) override;
  double min_duty() const override { return CoreModel::kMinDuty; }
  std::uint32_t l3_ways() const override { return l3_.active_ways(); }
  std::uint32_t l3_max_ways() const override {
    return machine_.hierarchy.l3.ways;
  }
  /// A shrink flushes every lane's private levels, so inclusion holds
  /// (models the reconfiguration's disruption).
  void set_l3_ways(std::uint32_t n) override;
  std::uint32_t l2_ways() const override {
    return front().hierarchy.l2_ways();
  }
  std::uint32_t l2_max_ways() const override {
    return machine_.hierarchy.l2.ways;
  }
  void set_l2_ways(std::uint32_t n) override;
  std::uint32_t itlb_entries() const override {
    return front().hierarchy.itlb_entries();
  }
  std::uint32_t itlb_max_entries() const override {
    return machine_.hierarchy.itlb.entries;
  }
  void set_itlb_entries(std::uint32_t n) override;
  std::uint32_t dtlb_entries() const override {
    return front().hierarchy.dtlb_entries();
  }
  std::uint32_t dtlb_max_entries() const override {
    return machine_.hierarchy.dtlb.entries;
  }
  void set_dtlb_entries(std::uint32_t n) override;
  bool dram_gated() const override { return dram_.gated(); }
  void set_dram_gated(bool gated) override { dram_.set_gated(gated); }

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
  PackagePlatform(const MachineConfig& machine, std::uint64_t seed);
  // Non-copyable: lanes are registered by address, and ExecutionContexts
  // and hooks hold references to the node.
  PackagePlatform(const PackagePlatform&) = delete;
  PackagePlatform& operator=(const PackagePlatform&) = delete;

  /// Registers a lane built against l3_ and dram_; the derived node then
  /// calls power_on() once all its lanes are in.
  void add_lane(CoreLane& lane) { core_lanes_.push_back(&lane); }
  /// Prices the idle point the node powers on at.
  void power_on() { package_.power_on(operating_point()); }
  /// Opens a run at `start`: sets running_, the package's run and the
  /// noise and control deadlines.
  void begin_run(util::Picoseconds start);
  /// Active cores are the live lanes; the rest is package-wide.
  OperatingPoint operating_point() const;

  // --- housekeeping steps (each node's tick orders them) ---
  /// Accounts the package up to `now` from the lanes' summed counters;
  /// false (changing nothing) when no time has passed. running_ stays set
  /// through a run's closing step; if no lane is live by then (SmpNode),
  /// the package prices an idle node but keeps the last stall fraction.
  bool account(util::Picoseconds now);
  /// OS noise: timer interrupts flush every lane's translations and drain
  /// the live lanes' pipelines. Fires per unit of *time*, so heavily
  /// throttled (longer) runs absorb more of it, one source of the paper's
  /// counter noise at low caps.
  void noise_step(util::Picoseconds now);
  /// Management plane: the control hook, once per BMC period.
  void control_step(util::Picoseconds now);
  /// Feeds the package probe and the per-core probes that want a sample.
  void probe_step(util::Picoseconds now);

  const MachineConfig machine_;
  power::PStateTable pstates_;
  cache::Cache l3_;
  mem::Dram dram_;
  Package package_;
  bool running_ = false;

 private:
  const CoreLane& front() const { return *core_lanes_.front(); }

  std::vector<CoreLane*> core_lanes_;

  util::Rng rng_;
  ControlHook control_hook_;
  telemetry::NodeProbe* probe_ = nullptr;
  std::vector<telemetry::NodeProbe*> core_probes_;
  bool os_noise_enabled_ = true;
  util::Picoseconds next_control_ = 0;
  util::Picoseconds next_noise_ = 0;
};

}  // namespace pcap::sim
