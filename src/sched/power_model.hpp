// Online per-job-class power model.
//
// The scheduler cannot ask a job how many watts it will draw; it learns.
// Every completed chunk contributes one telemetry sample (the node's
// measured average power over the chunk, and the cap it ran under). Samples
// taken with comfortable cap headroom update an exponentially-weighted
// estimate of the class's *uncapped* draw; capped samples are ignored for
// that estimate (they measure the cap, not the demand) but still count as
// observations. Until a class has samples, predictions fall back to the
// amenability table's measured baseline, then to a conservative default —
// so admission control is safe from the first tick.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "sched/amenability_table.hpp"
#include "sched/job.hpp"

namespace pcap::sched {

class OnlinePowerModel {
 public:
  /// Prior source for classes with no samples yet (may be null).
  void set_table(const AmenabilityTable* table) { table_ = table; }

  /// Feeds one chunk observation: measured average watts under `cap_w`
  /// (nullopt == the node ran uncapped).
  void observe(JobClass cls, std::optional<double> cap_w, double watts);

  /// Predicted uncapped draw for the class.
  double predict_uncapped_w(JobClass cls) const;

  std::uint64_t samples(JobClass cls) const {
    return stats_[static_cast<std::size_t>(cls)].samples;
  }
  std::uint64_t uncapped_samples(JobClass cls) const {
    return stats_[static_cast<std::size_t>(cls)].uncapped_samples;
  }

 private:
  struct ClassStats {
    double uncapped_w = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t uncapped_samples = 0;
  };

  const AmenabilityTable* table_ = nullptr;
  std::array<ClassStats, kJobClassCount> stats_{};
};

}  // namespace pcap::sched
