// Lumped-parameter (single RC) package thermal parameters. The model itself
// is the degenerate one-node thermal::RcNetwork
// (`RcNetworkConfig::single_rc`). Temperature feeds the leakage term of the
// power model: leakage rises with heat, which is why capped execution saves
// less energy than the dynamic-power equation alone suggests (paper §II-B).
#pragma once

#include "util/units.hpp"

namespace pcap::power {

struct ThermalConfig {
  double ambient_c = 35.0;       // chassis inlet temperature
  double r_thermal_c_per_w = 0.35;  // junction-to-ambient resistance
  /// Thermal time constant, in *simulated* time. The simulator compresses
  /// wall-clock time, so tau must stay a fixed multiple of the (also
  /// compressed) meter period or the thermal response decouples from the
  /// control loops it is calibrated against. The default (2 ms) is 10x the
  /// 200 us meter period; `MachineConfig::thermal_tau_calibrated()` checks
  /// the ratio against `CalibrationTargets` and a tier-1 test asserts it.
  util::Picoseconds tau = util::milliseconds(2.0);
};

}  // namespace pcap::power
