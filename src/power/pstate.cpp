#include "power/pstate.hpp"

#include <stdexcept>

namespace pcap::power {

PStateTable::PStateTable(std::vector<PState> states)
    : states_(std::move(states)) {
  if (states_.empty()) throw std::invalid_argument("PStateTable: no states");
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (i > 0 && states_[i].frequency >= states_[i - 1].frequency) {
      throw std::invalid_argument(
          "PStateTable: frequencies must be strictly descending");
    }
    states_[i].index = static_cast<std::uint32_t>(i);
  }
}

PStateTable PStateTable::romley_e5_2680() {
  std::vector<PState> states;
  auto add = [&states](util::Hertz mhz, double v) {
    PState s;
    s.frequency = mhz * util::kMegaHertz;
    s.voltage = v;
    states.push_back(s);
  };
  add(2701, 1.10);  // P0: turbo bin at elevated voltage
  for (util::Hertz mhz = 2600; mhz >= 1200; mhz -= 100) {
    const double t = static_cast<double>(mhz - 1200) / (2600.0 - 1200.0);
    add(mhz, 0.875 + t * (1.015 - 0.875));  // P1..P15
  }
  return PStateTable(std::move(states));
}

}  // namespace pcap::power
