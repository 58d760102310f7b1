// Workload amenability characterisation — the methodology the paper's §V
// calls for as future work: "characterizing applications with regard to
// their amenability to power capped execution."
//
// The analyzer measures a workload's slowdown curve across a cap grid and
// summarises it with (a) the lowest cap that keeps slowdown within a
// tolerance (the usable cap range for a fielded system with soft deadlines)
// and (b) a scalar sensitivity index for ranking applications.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/capped_runner.hpp"
#include "sim/node.hpp"
#include "sim/workload.hpp"

namespace pcap::core {

struct AmenabilityPoint {
  double cap_w = 0.0;
  double measured_power_w = 0.0;
  double slowdown = 1.0;      // time / baseline time
  double energy_ratio = 1.0;  // energy / baseline energy
  bool cap_met = true;        // measured power <= cap + tolerance
};

struct AmenabilityReport {
  double baseline_power_w = 0.0;
  util::Picoseconds baseline_time = 0;
  double baseline_energy_j = 0.0;
  std::vector<AmenabilityPoint> points;  // ordered as the input grid

  /// Lowest cap whose slowdown stays within the tolerance (0 if none).
  double usable_cap_floor_w = 0.0;
  /// Mean slowdown across the grid minus 1; higher == less amenable.
  double sensitivity_index = 0.0;
};

struct AmenabilityOptions {
  double slowdown_tolerance = 1.25;  // the paper's "acceptable" band
  int repetitions = 1;
};

class AmenabilityAnalyzer {
 public:
  using Options = AmenabilityOptions;

  explicit AmenabilityAnalyzer(Options options = {}) : options_(options) {}

  /// Runs `workload` uncapped and at every cap in `caps_w` (descending or
  /// not — order is preserved) on `runner`'s node.
  AmenabilityReport analyze(CappedRunner& runner, sim::Workload& workload,
                            std::span<const double> caps_w) const;

 private:
  Options options_;
};

}  // namespace pcap::core
