// The simulated compute node: one active core (one CoreLane) driving the
// memory hierarchy, on the node base (sim::PackagePlatform: shared L3 and
// DRAM, the package's power/thermal model and wall meter, the
// PlatformControl face and the housekeeping steps). Node adds the core's
// clock, the run loop and a housekeeping tick every node-tick period.
//
// Through PlatformControl, BMC firmware manages this node exactly as Intel
// Node Manager manages a real one: sampling averaged power and actuating
// P-states, T-states, cache/TLB gating and memory gating, all out-of-band
// from the workload.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "pmu/counters.hpp"
#include "sim/core_model.hpp"
#include "sim/execution_context.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/package.hpp"
#include "sim/workload.hpp"
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

  /// Runs a workload to completion under the current management policy and
  /// returns the measured report.
  RunReport run(Workload& workload);

  /// Advances simulated time with no workload (for idle-power measurement).
  void idle_for(util::Picoseconds duration);

  /// Resets the meter session (used with idle_for to measure idle power).
  void start_metering() { package_.start_metering(lane_.core.now()); }

  // --- component access ---
  const MachineConfig& config() const { return machine_; }
  pmu::CounterBank& counters() { return lane_.bank; }
  const pmu::CounterBank& counters() const { return lane_.bank; }
  MemoryHierarchy& hierarchy() { return lane_.hierarchy; }
  const MemoryHierarchy& hierarchy() const { return lane_.hierarchy; }
  CoreModel& core() { return lane_.core; }

  util::Picoseconds now() const override { return lane_.core.now(); }

  /// Called by the ExecutionContext after every priced operation; runs the
  /// housekeeping tick when due.
  void maybe_tick() {
    if (lane_.core.now() >= next_tick_) tick();
  }
  void on_op() override { maybe_tick(); }
  /// maybe_tick() is a no-op until the next housekeeping boundary.
  util::Picoseconds op_horizon() const override { return next_tick_; }

 private:
  /// Accounts the package, then OS noise, the control hook and the probes
  /// (after the hook, so a sample shows the operating point the BMC just
  /// set).
  void tick();

  CoreLane lane_;
  util::Picoseconds next_tick_ = 0;
};

}  // namespace pcap::sim
