// The simulated compute node: one active core driving the memory hierarchy,
// the package (power/thermal model, wall power meter; sim::Package), and the
// housekeeping tick loop that the management plane (BMC) hooks into.
//
// The Node implements PlatformControl, so BMC firmware written against that
// interface manages this node exactly as Intel Node Manager manages a real
// one: sampling averaged power and actuating P-states, T-states, cache/TLB
// gating and memory gating, all out-of-band from the workload.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "pmu/counters.hpp"
#include "power/pstate.hpp"
#include "sim/core_model.hpp"
#include "sim/execution_context.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/package.hpp"
#include "sim/platform_control.hpp"
#include "sim/workload.hpp"
#include "telemetry/probe.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcap::sim {

/// Everything the paper measures for one application run.
struct RunReport {
  std::string workload;
  util::Picoseconds elapsed = 0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;
  util::Hertz avg_frequency = 0;
  double avg_duty = 1.0;
  double final_temperature_c = 0.0;
  /// Per-event deltas over the run, indexable by pmu::index_of(event).
  std::array<std::uint64_t, pmu::kEventCount> counters{};

  std::uint64_t counter(pmu::Event e) const { return counters[pmu::index_of(e)]; }
};

class Node final : public PackagePlatform, public TickSink {
 public:
  explicit Node(const MachineConfig& config, std::uint64_t seed = 1);

  // Non-copyable (the ExecutionContext and hooks hold references).
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Runs a workload to completion under the current management policy and
  /// returns the measured report.
  RunReport run(Workload& workload);

  /// Advances simulated time with no workload (for idle-power measurement).
  void idle_for(util::Picoseconds duration);

  /// Resets the meter session (used with idle_for to measure idle power).
  void start_metering() { package_.start_metering(core_.now()); }

  /// Installs the management hook called every BMC control period with this
  /// node's PlatformControl face (pass nullptr to uninstall).
  using ControlHook = std::function<void(PlatformControl&)>;
  void set_control_hook(ControlHook hook) { control_hook_ = std::move(hook); }

  /// Enables/disables the OS-noise model (periodic TLB flush + pipeline
  /// drain from timer interrupts). On by default.
  void set_os_noise(bool enabled) { os_noise_enabled_ = enabled; }

  /// Attaches a telemetry probe fed every housekeeping tick (nullptr
  /// detaches). The probe only reads state: simulated results are
  /// bit-identical with or without one (tests/test_telemetry.cpp).
  void set_telemetry(telemetry::NodeProbe* probe) { probe_ = probe; }
  telemetry::NodeProbe* telemetry_probe() { return probe_; }

  // --- component access ---
  const MachineConfig& config() const { return config_; }
  pmu::CounterBank& counters() { return bank_; }
  const pmu::CounterBank& counters() const { return bank_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  CoreModel& core() { return core_; }
  const power::PStateTable& pstates() const { return pstates_; }

  // --- PlatformControl (the BMC-facing surface) ---
  std::uint32_t pstate_count() const override {
    return static_cast<std::uint32_t>(pstates_.size());
  }
  std::uint32_t pstate() const override { return core_.pstate(); }
  void set_pstate(std::uint32_t index) override { core_.set_pstate(index); }
  util::Hertz frequency() const override { return core_.frequency(); }
  double duty() const override { return core_.duty(); }
  void set_duty(double duty) override { core_.set_duty(duty); }
  double min_duty() const override { return CoreModel::kMinDuty; }
  std::uint32_t l3_ways() const override { return hierarchy_.l3_ways(); }
  std::uint32_t l3_max_ways() const override {
    return config_.hierarchy.l3.ways;
  }
  void set_l3_ways(std::uint32_t n) override { hierarchy_.set_l3_ways(n); }
  std::uint32_t l2_ways() const override { return hierarchy_.l2_ways(); }
  std::uint32_t l2_max_ways() const override {
    return config_.hierarchy.l2.ways;
  }
  void set_l2_ways(std::uint32_t n) override { hierarchy_.set_l2_ways(n); }
  std::uint32_t itlb_entries() const override { return hierarchy_.itlb_entries(); }
  std::uint32_t itlb_max_entries() const override {
    return config_.hierarchy.itlb.entries;
  }
  void set_itlb_entries(std::uint32_t n) override {
    hierarchy_.set_itlb_entries(n);
  }
  std::uint32_t dtlb_entries() const override { return hierarchy_.dtlb_entries(); }
  std::uint32_t dtlb_max_entries() const override {
    return config_.hierarchy.dtlb.entries;
  }
  void set_dtlb_entries(std::uint32_t n) override {
    hierarchy_.set_dtlb_entries(n);
  }
  bool dram_gated() const override { return hierarchy_.dram_gated(); }
  void set_dram_gated(bool gated) override { hierarchy_.set_dram_gated(gated); }
  util::Picoseconds now() const override { return core_.now(); }

  /// Called by the ExecutionContext after every priced operation; runs the
  /// housekeeping tick when due.
  void maybe_tick() {
    if (core_.now() >= next_tick_) tick();
  }
  void on_op() override { maybe_tick(); }
  /// maybe_tick() is a no-op until the next housekeeping boundary.
  util::Picoseconds op_horizon() const override { return next_tick_; }

 private:
  void tick();
  OperatingPoint operating_point() const;

  MachineConfig config_;
  power::PStateTable pstates_;
  pmu::CounterBank bank_;
  MemoryHierarchy hierarchy_;
  CoreModel core_;
  util::Rng rng_;
  ControlHook control_hook_;
  telemetry::NodeProbe* probe_ = nullptr;

  bool running_ = false;
  bool os_noise_enabled_ = true;

  util::Picoseconds next_tick_ = 0;
  util::Picoseconds next_control_ = 0;
  util::Picoseconds next_noise_ = 0;
};

}  // namespace pcap::sim
