#include "telemetry/registry.hpp"

#include <algorithm>
#include <sstream>

namespace pcap::telemetry {

CounterHandle Registry::counter(const std::string& name) {
  const auto it =
      std::find(counter_names_.begin(), counter_names_.end(), name);
  if (it != counter_names_.end()) {
    return {static_cast<std::uint32_t>(it - counter_names_.begin())};
  }
  counter_names_.push_back(name);
  counters_.push_back(0);
  return {static_cast<std::uint32_t>(counters_.size() - 1)};
}

GaugeHandle Registry::gauge(const std::string& name) {
  const auto it = std::find(gauge_names_.begin(), gauge_names_.end(), name);
  if (it != gauge_names_.end()) {
    return {static_cast<std::uint32_t>(it - gauge_names_.begin())};
  }
  gauge_names_.push_back(name);
  gauges_.push_back(0.0);
  return {static_cast<std::uint32_t>(gauges_.size() - 1)};
}

std::string Registry::dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    os << counter_names_[i] << ' ' << counters_[i] << '\n';
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    os << gauge_names_[i] << ' ' << gauges_[i] << '\n';
  }
  return os.str();
}

}  // namespace pcap::telemetry
