// Counter storage.
//
// The simulator increments a CounterBank as it executes; a run's report
// carries the bank's snapshot, read per event through RunReport::counter —
// the PAPI_start/PAPI_stop deltas the paper took around each run.
#pragma once

#include <array>
#include <cstdint>

#include "pmu/events.hpp"

namespace pcap::pmu {

/// Monotonic free-running counters, one per Event.
class CounterBank {
 public:
  void add(Event e, std::uint64_t n = 1) { values_[index_of(e)] += n; }
  std::uint64_t get(Event e) const { return values_[index_of(e)]; }
  void reset() { values_.fill(0); }

  /// Snapshot of every counter (indexable by index_of(event)).
  std::array<std::uint64_t, kEventCount> snapshot() const { return values_; }

 private:
  std::array<std::uint64_t, kEventCount> values_{};
};

}  // namespace pcap::pmu
