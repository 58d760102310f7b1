// Online amenability learning (DESIGN.md §16).
//
// The static `pcap-amenability-v1` table comes from an offline
// characterisation run; this learner grows the same per-class slowdown and
// power curves online, from committed chunk outcomes, on the same cap grid
// the characterisation uses. Every solo chunk completion contributes one
// sample: uncapped samples (cap comfortably above the measured draw)
// update the class baseline, capped samples update the two bracketing grid
// points with exponentially-weighted averages, and after every update the
// curve is projected back onto the physical shape — slowdown non-increasing
// in cap, power non-decreasing in cap — with a weighted
// pool-adjacent-violators pass. (Draw is not clamped to the cap:
// enforcement is time-averaged and deep throttling overshoots, which the
// offline characterisation also records via cap_met.) Co-resident completions feed
// per-class-pair curves instead (the pair's total slowdown and attributed
// draw), so solo curves are never contaminated by contention.
//
// The learner can bootstrap from an offline v1 table (provenance
// "offline"), then refine it ("mixed" → "online-learned"), and reports
// provenance, sample counts and confidence per class. Updates are applied
// serially in chunk-completion order, so learned state — and every
// schedule that consumes it — is bit-identical under `--jobs`.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sched/amenability_table.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"

namespace pcap::predict {

/// Where a class's curve came from.
enum class Provenance { kOffline, kOnlineLearned, kMixed };

class OnlineAmenabilityLearner {
 public:
  OnlineAmenabilityLearner();

  /// Seeds every class curve from an offline table (provenance kOffline
  /// until online samples arrive). Baselines and grid values interpolate
  /// off the offline curves.
  void bootstrap(const sched::AmenabilityTable& table);

  /// One chunk completion: the scheduler-hook observation plus the chunk's
  /// measured average draw. Solo observations update the class curve;
  /// co-resident ones update the (cls, partner) pair curves.
  void observe(const sched::CoRunObservation& obs, double avg_power_w);

  // --- predictions -------------------------------------------------------
  /// Learned solo slowdown/power at `cap_w` (piecewise-linear on the grid,
  /// same extrapolation rules as ClassCurve). Falls back to 1.0 / the cap
  /// when the class has no curve yet.
  double slowdown_at(sched::JobClass cls, double cap_w) const;
  double power_at(sched::JobClass cls, double cap_w) const;
  /// Learned total slowdown of `cls` co-resident with `other` at `cap_w`;
  /// falls back to the solo prediction when the pair has no samples.
  double pair_slowdown_at(sched::JobClass cls, sched::JobClass other,
                          double cap_w) const;

  std::uint64_t samples(sched::JobClass cls) const;
  std::uint64_t uncapped_samples(sched::JobClass cls) const;
  std::uint64_t pair_samples(sched::JobClass cls, sched::JobClass other) const;
  /// samples / (samples + 24), in [0, 1).
  double confidence(sched::JobClass cls) const;
  Provenance provenance(sched::JobClass cls) const;

  /// The learned curves materialised as a regular AmenabilityTable — what
  /// supersedes the static table in PlanInput when --learn-online is set.
  /// Kept fresh on every observe; classes without any curve are absent.
  const sched::AmenabilityTable& table() const { return materialized_; }

 private:
  struct GridPoint {
    double slowdown = 1.0;
    double power_w = 0.0;
    double weight = 0.0;  // EW sample mass at this point (fractional)
  };
  struct ClassState {
    bool active = false;        // any bootstrap or sample
    bool bootstrapped = false;  // seeded from an offline curve
    double baseline_power_w = 0.0;
    double baseline_time_s = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t uncapped = 0;
    std::vector<GridPoint> points;  // parallel to the cap grid, ascending
  };
  struct PairState {
    std::uint64_t samples = 0;
    std::vector<GridPoint> points;  // slowdown only; power_w = pair share
  };

  void deposit(std::vector<GridPoint>* points, double cap_w, double slowdown,
               double power_w);
  void project(ClassState* state);
  void materialize(sched::JobClass cls);
  ClassState& state(sched::JobClass cls) {
    return classes_[static_cast<std::size_t>(cls)];
  }
  const ClassState& state(sched::JobClass cls) const {
    return classes_[static_cast<std::size_t>(cls)];
  }

  std::array<ClassState, sched::kJobClassCount> classes_{};
  // pair_[cls][other]: slowdown of cls when co-resident with other.
  std::array<std::array<PairState, sched::kJobClassCount>,
             sched::kJobClassCount>
      pairs_{};
  sched::AmenabilityTable materialized_;
};

}  // namespace pcap::predict
