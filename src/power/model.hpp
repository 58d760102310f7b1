// Whole-node power model for the simulated dual-socket Romley platform.
//
// Node power is composed from explicit, individually-calibrated components:
//
//   platform base (PSU/fans/board)                      -- fixed
//   DRAM background (refresh, PLLs)                     -- lower when gated
//   DRAM dynamic (per line-fill energy)                 -- tracks access rate
//   socket uncore base (x2)                             -- fixed
//   package-active uplift                               -- while a workload
//                                                          keeps the package
//                                                          out of deep sleep;
//                                                          not throttleable
//   L3 leakage per active way                           -- way gating saves it
//   uncore dynamic (per L3 access energy)               -- tracks access rate
//   per-core power: C6 parked | C1 clock-gated | active
//     active = duty * Cv^2f dynamic * activity
//            + leakage(V, T) + active base
//
// Calibration targets (paper): idle 100-103 W; Stereo baseline ~153 W;
// SIRE baseline ~157 W; at the slowest P-state under load ~137 W (so caps
// of 135 W and below force non-DVFS mechanisms); all-mechanisms floor
// ~123-125 W (so a 120 W cap is missed, as the paper measured).
#pragma once

#include <cstdint>

#include "power/pstate.hpp"

namespace pcap::power {

struct NodePowerConfig {
  // Fixed platform components.
  double platform_base_w = 60.2;
  double dram_background_w = 14.0;
  double dram_gated_background_w = 12.5;
  double uncore_base_per_socket_w = 9.0;
  int sockets = 2;

  // Package-activity uplift: interconnect + memory controller out of package
  // sleep whenever a workload is running. The BMC cannot gate this without
  // stopping the workload, which contributes to the throttling floor.
  double package_active_uplift_w = 15.0;

  // L3 leakage, per way per socket. Way gating on the active socket
  // reclaims this.
  double l3_leak_per_way_w = 0.094;
  int l3_ways = 20;

  // Cores.
  int cores = 16;
  double core_c6_w = 0.3;  // parked core
  // Clock-gated (duty-off window): dynamic power stops but PLL, private
  // caches and leakage stay up — which is why T-state throttling saves so
  // little power for so much lost performance (paper §V conclusion 3).
  double core_c1_base_w = 5.5;      // + leakage(V, T)
  double core_active_base_w = 3.0;  // front-end/clock distribution
  double core_dyn_max_w = 37.5;     // C*V^2*f at f_max, V_max, activity 1
  double core_leak_nom_w = 3.3;     // at V_nom, T = 50 C
  double leak_temp_beta = 0.015;    // per degree C
  double leak_ref_temp_c = 50.0;
  double v_nom = 1.10;
  util::Hertz f_max = 2701 * util::kMegaHertz;

  // Dynamic energy per transaction (lumped: arrays + interconnect + memory
  // controller + DIMM IO, which is why the per-fill figure is large).
  double l3_access_nj = 25.0;     // per L2-miss reaching the LLC
  double dram_access_nj = 450.0;  // per line fill from memory
};

/// Instantaneous operating point, assembled by the Node each tick.
struct PowerInputs {
  bool workload_running = false;
  int active_cores = 0;          // cores executing the workload
  util::Hertz frequency = 2701 * util::kMegaHertz;
  double voltage = 1.10;
  double duty = 1.0;             // T-state clock modulation, (0, 1]
  double activity = 1.0;         // switching activity while clocked, [0, 1]
  double l3_accesses_per_s = 0.0;
  double dram_accesses_per_s = 0.0;
  int l3_active_ways = 20;       // active socket
  bool dram_gated = false;
  double temperature_c = 50.0;
};

/// Manageable subsystems the breakdown rolls up into. This is the grain the
/// per-subsystem meters and BMC subsystem caps operate at (Subramaniam &
/// Feng's subsystem-level power management): the platform base is excluded
/// because no mechanism can act on it.
enum class Subsystem : std::uint8_t {
  kCpu = 0,     // core array (active + gated + parked)
  kUncore = 1,  // socket uncore base, package uplift, L3 leakage + dynamic
  kMemory = 2,  // DRAM background + dynamic
};
inline constexpr int kSubsystemCount = 3;

inline const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kCpu: return "cpu";
    case Subsystem::kUncore: return "uncore";
    case Subsystem::kMemory: return "memory";
  }
  return "?";
}

/// Per-component breakdown, in watts.
struct PowerBreakdown {
  double platform = 0.0;
  double dram_background = 0.0;
  double dram_dynamic = 0.0;
  double uncore_base = 0.0;
  double package_uplift = 0.0;
  double l3_leakage = 0.0;
  double uncore_dynamic = 0.0;
  double cores = 0.0;
  double total = 0.0;

  /// Rolls the component terms up into the manageable-subsystem grain.
  double subsystem_w(Subsystem s) const {
    switch (s) {
      case Subsystem::kCpu:
        return cores;
      case Subsystem::kUncore:
        return uncore_base + package_uplift + l3_leakage + uncore_dynamic;
      case Subsystem::kMemory:
        return dram_background + dram_dynamic;
    }
    return 0.0;
  }
};

class NodePowerModel {
 public:
  explicit NodePowerModel(const NodePowerConfig& config) : config_(config) {}

  const NodePowerConfig& config() const { return config_; }

  PowerBreakdown compute(const PowerInputs& in) const;

  /// Convenience: total watts only.
  double total_watts(const PowerInputs& in) const { return compute(in).total; }

  /// Power of one active core at the given operating point (used by tests
  /// and the race-to-idle ablation).
  double active_core_watts(util::Hertz f, double voltage, double duty,
                           double activity, double temperature_c) const;

  /// Leakage of one core at (V, T).
  double core_leakage_watts(double voltage, double temperature_c) const;

 private:
  NodePowerConfig config_;
};

}  // namespace pcap::power
