#include "sim/machine_config.hpp"

#include <algorithm>

namespace pcap::sim {

MachineConfig MachineConfig::romley() {
  MachineConfig m;

  m.hierarchy.l1i = {.name = "L1I",
                     .size_bytes = 32 * 1024,
                     .line_bytes = 64,
                     .ways = 8,
                     .write_allocate = false};
  m.hierarchy.l1d = {.name = "L1D",
                     .size_bytes = 32 * 1024,
                     .line_bytes = 64,
                     .ways = 8,
                     .write_allocate = true};
  m.hierarchy.l2 = {.name = "L2",
                    .size_bytes = 256 * 1024,
                    .line_bytes = 64,
                    .ways = 8,
                    .write_allocate = true};
  m.hierarchy.l3 = {.name = "L3",
                    .size_bytes = 20 * 1024 * 1024,
                    .line_bytes = 64,
                    .ways = 20,
                    .write_allocate = true};
  m.hierarchy.itlb = {.name = "ITLB", .entries = 48, .page_bytes = 4096};
  m.hierarchy.dtlb = {.name = "DTLB", .entries = 64, .page_bytes = 4096};
  m.hierarchy.dram = mem::DramConfig{};

  // NodePowerConfig / thermal / CoreTimingConfig defaults are already
  // calibrated against the paper's operating points (see power/model.hpp).
  return m;
}

MachineConfig MachineConfig::romley_thermal() {
  MachineConfig m = romley();
  m.thermal = thermal::RcNetworkConfig::romley_network();
  m.fan.max_rpm = 9000.0;
  // At minimum speed the fan already moves some air: start the exhaust
  // below still-air so the fitted machine idles near the legacy steady
  // state (min-rpm R ~= 0.37 C/W on the CPU path vs the legacy 0.35).
  return m;
}

double MachineConfig::thermal_tau_meter_periods() const {
  const double meter_s = util::to_seconds(ticks.meter_period());
  if (thermal.is_single_rc()) {
    return util::to_seconds(thermal.legacy_tau) / meter_s;
  }
  double slowest_s = 0.0;
  for (std::size_t i = 0; i < thermal.nodes.size(); ++i) {
    const double r_ambient = thermal.nodes[i].r_to_ambient_c_per_w;
    slowest_s = std::max(slowest_s, thermal.node_tau_s(i, r_ambient));
  }
  return slowest_s / meter_s;
}

}  // namespace pcap::sim
