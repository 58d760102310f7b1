// ACPI-style processor performance states (P-states) for the modelled
// Sandy Bridge E5-2680: 16 states from 2.701 GHz (turbo bin) down to
// 1.2 GHz, with an affine voltage/frequency curve.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace pcap::power {

struct PState {
  std::uint32_t index = 0;     // P0 is fastest; higher index == slower
  util::Hertz frequency = 0;
  double voltage = 0.0;        // volts
};

class PStateTable {
 public:
  /// Builds a table from fully-specified states (indices are reassigned in
  /// order). Throws std::invalid_argument on empty input or frequencies not
  /// strictly descending.
  explicit PStateTable(std::vector<PState> states);

  /// The paper's platform: 16 P-states, 2701..1200 MHz. The P0 turbo bin
  /// runs at a disproportionately high voltage (1.10 V vs 1.015 V at P1),
  /// which is what makes the first few P-state steps save so much power for
  /// so little frequency — visible in the paper's mid-cap rows.
  static PStateTable romley_e5_2680();

  std::size_t size() const { return states_.size(); }
  const PState& state(std::uint32_t index) const { return states_.at(index); }
  const PState& fastest() const { return states_.front(); }
  const PState& slowest() const { return states_.back(); }

 private:
  std::vector<PState> states_;
};

}  // namespace pcap::power
