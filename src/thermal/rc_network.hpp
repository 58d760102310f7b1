// RC-network thermal model: per-subsystem heat sources (CPU / uncore /
// DRAM) driving a small graph of thermal nodes (dies, heatsink) coupled by
// configurable resistances to each other and to ambient. The degenerate
// one-node configuration (`RcNetworkConfig::single_rc`, every machine's
// default) is the lumped single-RC package model: it executes the
// floating-point sequence the golden results were recorded with (pinned by
// RcNetwork.DegenerateMatchesLegacyThermalModelBitExact), while multi-node
// configs open fan + governor studies.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "power/model.hpp"
#include "util/units.hpp"

namespace pcap::thermal {

/// One interior node of the network (a die, a spreader, the heatsink).
struct RcNodeConfig {
  std::string name;
  /// Thermal mass, in joules per degree of *simulated* time. The simulator
  /// compresses wall-clock ~5000x, so these are correspondingly small;
  /// what matters is the per-node time constant C * R_effective, which
  /// should sit in the same 0.1-5 ms simulated band as the legacy tau.
  double heat_capacity_j_per_c = 1.0e-3;
  /// Direct resistance to ambient; 0 = no direct ambient edge.
  double r_to_ambient_c_per_w = 0.0;
};

/// A conductive edge between two interior nodes.
struct RcEdgeConfig {
  int a = 0;
  int b = 0;
  double r_c_per_w = 1.0;
};

struct RcNetworkConfig {
  double ambient_c = 35.0;
  std::vector<RcNodeConfig> nodes;
  std::vector<RcEdgeConfig> edges;
  /// Interior node each subsystem's heat enters.
  std::array<int, power::kSubsystemCount> source_node{0, 0, 0};
  /// Node whose temperature the package sensor (and the leakage term)
  /// reads — conventionally the hottest die.
  int sensor_node = 0;
  /// Node whose ambient resistance the fan modulates (the heatsink).
  int exhaust_node = 0;

  /// Legacy single-RC time constant, in *simulated* time (the default 2 ms
  /// is 10 meter periods; `MachineConfig::thermal_tau_calibrated()` checks
  /// the ratio). Nonzero marks the degenerate configuration: one node, no
  /// edges, and `update_lumped` runs the lumped model's first-order
  /// exponential step (steady state Ta + R*P, alpha = 1 - exp(-dt/tau)).
  util::Picoseconds legacy_tau = 0;
  bool is_single_rc() const { return legacy_tau != 0 && nodes.size() == 1; }

  /// Node i's time constant C_i / sum(1/R) over its edges, with the given
  /// ambient R (0 = none); infinite for an isolated node.
  double node_tau_s(std::size_t i, double r_to_ambient_c_per_w) const;

  /// The degenerate one-node configuration: the lumped package model.
  static RcNetworkConfig single_rc(double ambient_c = 35.0,
                                   double r_c_per_w = 0.35,
                                   util::Picoseconds tau =
                                       util::milliseconds(2.0));

  /// A four-node Romley-ish network: CPU and uncore dies onto a shared
  /// heatsink to ambient, DRAM cooled directly by chassis airflow. Total
  /// junction-to-ambient resistance along the CPU path matches the lumped
  /// R (0.35 C/W) at the default still-air exhaust resistance.
  static RcNetworkConfig romley_network(double ambient_c = 35.0);
};

class RcNetwork {
 public:
  /// Throws std::invalid_argument for a config without nodes.
  explicit RcNetwork(const RcNetworkConfig& config);

  const RcNetworkConfig& config() const { return config_; }

  /// True for the degenerate one-node legacy configuration.
  bool is_single_rc() const { return config_.is_single_rc(); }

  /// Degenerate path only: advances the single node with the lumped
  /// silicon watts — a first-order exponential approach to Ta + R*P.
  void update_lumped(double watts, util::Picoseconds dt);

  /// General path: advances every node with per-subsystem heat input
  /// (indexed by `power::Subsystem`), explicit Euler with substeps bounded
  /// by the fastest node time constant.
  void update(const std::array<double, power::kSubsystemCount>& subsystem_w,
              util::Picoseconds dt);

  /// Hot-path entry for the node housekeeping tick: buffers dt-weighted
  /// subsystem heat and only steps the solver once ~0.2 of the fastest
  /// time constant has accumulated. Node ticks (5 us) are ~100x finer
  /// than the thermal dynamics (0.4-2 ms taus), so integrating the power
  /// over the window and stepping once loses nothing physically while
  /// keeping the per-tick cost to three multiply-adds.
  void accumulate(
      const std::array<double, power::kSubsystemCount>& subsystem_w,
      util::Picoseconds dt) {
    for (std::size_t i = 0; i < subsystem_w.size(); ++i) {
      acc_w_dt_[i] += subsystem_w[i] * static_cast<double>(dt);
    }
    acc_dt_ += dt;
    if (acc_dt_ >= acc_stride_) flush();
  }

  /// Steps the solver with any buffered heat. Call before reads that must
  /// reflect the very latest power (end-of-run reports); sensor reads
  /// between flushes see the last stepped state.
  void flush();

  /// Package sensor temperature (the configured sensor node).
  double temperature_c() const {
    return temps_[static_cast<std::size_t>(config_.sensor_node)];
  }
  double node_temperature_c(int node) const {
    return temps_[static_cast<std::size_t>(node)];
  }
  /// Temperature of the node the subsystem's heat enters.
  double source_temperature_c(power::Subsystem s) const {
    return temps_[static_cast<std::size_t>(
        config_.source_node[static_cast<std::size_t>(s)])];
  }
  std::size_t node_count() const { return temps_.size(); }

  double ambient_c() const { return config_.ambient_c; }
  /// Runtime ambient excursions (machine-room events in examples/bench).
  void set_ambient_c(double ambient_c) { config_.ambient_c = ambient_c; }

  /// Fan coupling: overrides the exhaust node's resistance to ambient.
  /// Called every housekeeping tick with a mostly-unchanged value, so the
  /// no-change case stays inline; a real change rebuilds the solver
  /// coefficients out of line.
  void set_exhaust_r(double r_c_per_w) {
    if (r_ambient_[static_cast<std::size_t>(config_.exhaust_node)] ==
        r_c_per_w) {
      return;
    }
    set_exhaust_r_slow(r_c_per_w);
  }

  /// Restores every node to ambient (and the configured exhaust R).
  void reset();

 private:
  void recompute_min_tau();
  void rebuild_coefficients();
  void set_exhaust_r_slow(double r_c_per_w);

  RcNetworkConfig config_;
  std::vector<double> temps_;
  // Working copy of per-node ambient resistance (fan modulates one entry).
  std::vector<double> r_ambient_;
  double min_tau_s_ = 0.0;  // fastest node time constant, for substepping

  // The meter tick calls update() with a fixed dt on the node hot path, so
  // the division-heavy parts are hoisted: reciprocal resistances and heat
  // capacities, plus the substep plan cached per dt.
  std::vector<double> inv_c_;
  std::vector<double> inv_r_ambient_;
  std::vector<double> edge_inv_r_;
  std::vector<double> flow_;
  util::Picoseconds plan_dt_ = 0;
  int plan_steps_ = 1;
  double plan_h_ = 0.0;

  // accumulate() buffer: dt-weighted subsystem watts awaiting a solver
  // step, flushed every `acc_stride_` of simulated time (0.2 * min tau).
  std::array<double, power::kSubsystemCount> acc_w_dt_{};
  util::Picoseconds acc_dt_ = 0;
  util::Picoseconds acc_stride_ = 0;
};

}  // namespace pcap::thermal
