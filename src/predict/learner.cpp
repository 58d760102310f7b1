#include "predict/learner.hpp"

#include <algorithm>
#include <array>

namespace pcap::predict {

namespace {

constexpr double kWeightFloor = 1e-3;  // PAVA weight for barely-touched points
/// EW smoothing factor for new samples.
constexpr double kAlpha = 0.2;
/// A sample counts as "uncapped" when the cap exceeds max(learned
/// baseline, the sample's draw) by at least this headroom (unlike
/// OnlinePowerModel, which uses the draw alone; DESIGN.md §16).
constexpr double kHeadroomW = 4.0;
/// Confidence = samples / (samples + kConfidenceSamples).
constexpr double kConfidenceSamples = 24.0;
/// Cap grid (W) the curves are learned on, ascending: the offline
/// characterisation grid (CharacterizeOptions::caps_w).
constexpr std::array<double, 8> kCapsW = {115, 120, 125, 130,
                                          135, 140, 150, 160};
/// Usable-floor tolerance when materialising curves (mirrors
/// CharacterizeOptions::slowdown_tolerance).
constexpr double kSlowdownTolerance = 1.25;

/// Weighted pool-adjacent-violators: projects `v` onto the non-decreasing
/// sequences (least squares, weights `w`). O(n) with the classic stack of
/// pooled blocks.
void pava_non_decreasing(std::vector<double>* v, const std::vector<double>& w) {
  const std::size_t n = v->size();
  if (n < 2) return;
  std::vector<double> level(n), weight(n);
  std::vector<std::size_t> count(n);
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    level[blocks] = (*v)[i];
    weight[blocks] = std::max(w[i], kWeightFloor);
    count[blocks] = 1;
    ++blocks;
    while (blocks > 1 && level[blocks - 2] > level[blocks - 1]) {
      const double merged_w = weight[blocks - 2] + weight[blocks - 1];
      level[blocks - 2] =
          (level[blocks - 2] * weight[blocks - 2] +
           level[blocks - 1] * weight[blocks - 1]) /
          merged_w;
      weight[blocks - 2] = merged_w;
      count[blocks - 2] += count[blocks - 1];
      --blocks;
    }
  }
  std::size_t i = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t k = 0; k < count[b]; ++k) (*v)[i++] = level[b];
  }
}

void pava_non_increasing(std::vector<double>* v, const std::vector<double>& w) {
  std::vector<double> rv(v->rbegin(), v->rend());
  std::vector<double> rw(w.rbegin(), w.rend());
  pava_non_decreasing(&rv, rw);
  std::copy(rv.rbegin(), rv.rend(), v->begin());
}

double interpolate_points(const std::vector<double>& caps,
                          const std::vector<double>& values,
                          double cap_w) {
  // Piecewise-linear over the given (sparse) support, clamped flat at the
  // ends (pair curves have no baseline to extrapolate toward).
  if (caps.empty()) return 0.0;
  if (cap_w <= caps.front()) return values.front();
  if (cap_w >= caps.back()) return values.back();
  for (std::size_t i = 1; i < caps.size(); ++i) {
    if (cap_w <= caps[i]) {
      const double span = caps[i] - caps[i - 1];
      const double f = span > 0.0 ? (cap_w - caps[i - 1]) / span : 0.0;
      return values[i - 1] + f * (values[i] - values[i - 1]);
    }
  }
  return values.back();
}

}  // namespace

OnlineAmenabilityLearner::OnlineAmenabilityLearner() {
  for (auto& cls : classes_) cls.points.resize(kCapsW.size());
  for (auto& row : pairs_) {
    for (auto& pair : row) pair.points.resize(kCapsW.size());
  }
}

void OnlineAmenabilityLearner::bootstrap(const sched::AmenabilityTable& table) {
  for (int c = 0; c < sched::kJobClassCount; ++c) {
    const auto cls = static_cast<sched::JobClass>(c);
    const sched::ClassCurve* curve = table.curve(cls);
    if (curve == nullptr) continue;
    ClassState& s = state(cls);
    s.active = true;
    s.bootstrapped = true;
    s.baseline_power_w = curve->baseline_power_w;
    s.baseline_time_s = curve->baseline_time_s;
    for (std::size_t i = 0; i < kCapsW.size(); ++i) {
      s.points[i].slowdown = curve->slowdown_at(kCapsW[i]);
      s.points[i].power_w = curve->power_at(kCapsW[i]);
      s.points[i].weight = 0.0;  // prior only: first samples dominate fast
    }
    materialize(cls);
  }
}

void OnlineAmenabilityLearner::deposit(std::vector<GridPoint>* points,
                                       double cap_w, double slowdown,
                                       double power_w) {
  // Split the sample between the two bracketing grid points, linear in
  // distance; below/above the grid everything lands on the end point.
  std::size_t lo = 0;
  std::size_t hi = 0;
  double f_hi = 0.0;
  if (cap_w <= kCapsW.front()) {
    lo = hi = 0;
  } else if (cap_w >= kCapsW.back()) {
    lo = hi = kCapsW.size() - 1;
  } else {
    while (hi + 1 < kCapsW.size() && kCapsW[hi] < cap_w) ++hi;
    lo = hi - 1;
    const double span = kCapsW[hi] - kCapsW[lo];
    f_hi = span > 0.0 ? (cap_w - kCapsW[lo]) / span : 0.0;
  }
  const double mass[2] = {1.0 - f_hi, f_hi};
  const std::size_t idx[2] = {lo, hi};
  for (int k = 0; k < (lo == hi ? 1 : 2); ++k) {
    GridPoint& p = (*points)[idx[k]];
    const double m = lo == hi ? 1.0 : mass[k];
    if (m <= 0.0) continue;
    if (p.weight <= 0.0 && p.power_w <= 0.0 && p.slowdown <= 1.0) {
      // Untouched, un-bootstrapped point: adopt the sample outright.
      p.slowdown = slowdown;
      p.power_w = power_w;
    } else {
      const double a = kAlpha * m;
      p.slowdown += a * (slowdown - p.slowdown);
      p.power_w += a * (power_w - p.power_w);
    }
    p.weight += m;
  }
}

void OnlineAmenabilityLearner::project(ClassState* s) {
  // Monotonicity projection over the touched support: slowdown
  // non-increasing and power non-decreasing in cap, slowdown >= 1. The
  // measured draw is deliberately NOT clamped to the cap: enforcement is
  // time-averaged, and a deeply throttled class can average several watts
  // above its cap (the offline characterisation records the same, with
  // cap_met = false), so clamping would bias the learned curve below what
  // the node actually draws.
  std::vector<std::size_t> support;
  for (std::size_t i = 0; i < kCapsW.size(); ++i) {
    if (s->points[i].weight > 0.0 || s->bootstrapped) support.push_back(i);
  }
  if (support.size() < 2) {
    for (const std::size_t i : support) {
      s->points[i].slowdown = std::max(1.0, s->points[i].slowdown);
    }
    return;
  }
  std::vector<double> slow, power, weight;
  for (const std::size_t i : support) {
    slow.push_back(std::max(1.0, s->points[i].slowdown));
    power.push_back(s->points[i].power_w);
    weight.push_back(s->points[i].weight);
  }
  pava_non_increasing(&slow, weight);
  pava_non_decreasing(&power, weight);
  for (std::size_t k = 0; k < support.size(); ++k) {
    s->points[support[k]].slowdown = std::max(1.0, slow[k]);
    s->points[support[k]].power_w = power[k];
  }
}

void OnlineAmenabilityLearner::materialize(sched::JobClass cls) {
  const ClassState& s = state(cls);
  if (!s.active) return;
  sched::ClassCurve curve;
  curve.cls = cls;
  double max_power = 0.0;
  for (std::size_t i = 0; i < kCapsW.size(); ++i) {
    if (s.points[i].weight <= 0.0 && !s.bootstrapped) continue;
    core::AmenabilityPoint p;
    p.cap_w = kCapsW[i];
    p.slowdown = s.points[i].slowdown;
    p.measured_power_w = s.points[i].power_w;
    max_power = std::max(max_power, p.measured_power_w);
    curve.points.push_back(p);
  }
  if (curve.points.empty()) return;
  // Unknown baseline (no uncapped sample, no bootstrap): assume the draw
  // just clears the highest measured point, so the above-baseline
  // short-circuit stays conservative.
  curve.baseline_power_w = s.baseline_power_w > 0.0
                               ? s.baseline_power_w
                               : max_power + kHeadroomW;
  curve.baseline_time_s = s.baseline_time_s;
  if (curve.points.back().cap_w < kCapsW.back()) {
    // The visited caps stop short of the grid's top (a tight-budget run
    // never sees generous caps). ClassCurve::interpolate treats a query at
    // or above its last point as "cap no longer binds", which would erase
    // the top measured point; bridge to an explicit baseline point at the
    // grid top so the measured values stay interior and interpolation
    // decays toward 1.0 there.
    core::AmenabilityPoint top;
    top.cap_w = kCapsW.back();
    top.slowdown = 1.0;
    top.measured_power_w = std::min(curve.baseline_power_w, kCapsW.back());
    curve.points.push_back(top);
  }
  curve.usable_floor_w = curve.points.back().cap_w;
  for (const auto& p : curve.points) {
    if (p.slowdown <= kSlowdownTolerance) {
      curve.usable_floor_w = p.cap_w;
      break;  // points ascend in cap: first within tolerance is the floor
    }
  }
  for (auto& p : curve.points) {
    p.energy_ratio = curve.baseline_power_w > 0.0
                         ? p.slowdown * p.measured_power_w /
                               curve.baseline_power_w
                         : 0.0;
  }
  materialized_.set_curve(std::move(curve));
}

void OnlineAmenabilityLearner::observe(const sched::CoRunObservation& obs,
                                       double avg_power_w) {
  ClassState& s = state(obs.cls);
  // A chunk counts as capped when the cap sat below the class's unthrottled
  // draw. Judge against the learned baseline draw once one exists: a deeply
  // throttled chunk's *own* average can dip below cap - headroom (the BMC
  // overshoots, then parks on a low ladder rung), which would misread a
  // hard-capped chunk as a baseline sample and corrupt the baseline EW
  // averages. Before any baseline is known the chunk's draw is the only
  // signal available.
  const double draw_ref = std::max(s.baseline_power_w, avg_power_w);
  const bool capped = obs.cap_w && *obs.cap_w > 0.0 &&
                      *obs.cap_w < draw_ref + kHeadroomW;

  if (!obs.co_resident.empty()) {
    // Contaminated by contention: feeds the pair curves only. The sample
    // is the pair's *total* slowdown vs the learned solo baseline.
    if (s.baseline_time_s <= 0.0 || obs.elapsed_s <= 0.0) return;
    const double slowdown =
        std::max(1.0, obs.elapsed_s / s.baseline_time_s);
    const double cap = capped ? *obs.cap_w : kCapsW.back();
    for (const sched::JobClass other : obs.co_resident) {
      PairState& pair =
          pairs_[static_cast<std::size_t>(obs.cls)]
                [static_cast<std::size_t>(other)];
      deposit(&pair.points, cap, slowdown, avg_power_w);
      std::vector<double> slow, weight;
      std::vector<std::size_t> support;
      for (std::size_t i = 0; i < kCapsW.size(); ++i) {
        if (pair.points[i].weight <= 0.0) continue;
        support.push_back(i);
        slow.push_back(std::max(1.0, pair.points[i].slowdown));
        weight.push_back(pair.points[i].weight);
      }
      pava_non_increasing(&slow, weight);
      for (std::size_t k = 0; k < support.size(); ++k) {
        pair.points[support[k]].slowdown = slow[k];
      }
      ++pair.samples;
    }
    return;
  }

  s.active = true;
  ++s.samples;
  if (!capped) {
    // The cap was not the binding constraint: a baseline measurement.
    ++s.uncapped;
    if (s.baseline_power_w <= 0.0) {
      s.baseline_power_w = avg_power_w;
    } else {
      s.baseline_power_w += kAlpha * (avg_power_w - s.baseline_power_w);
    }
    if (obs.elapsed_s > 0.0) {
      if (s.baseline_time_s <= 0.0) {
        s.baseline_time_s = obs.elapsed_s;
      } else {
        s.baseline_time_s += kAlpha * (obs.elapsed_s - s.baseline_time_s);
      }
    }
  } else if (s.baseline_time_s > 0.0 && obs.elapsed_s > 0.0) {
    // Capped sample: one (slowdown, power) deposit on the grid. Without a
    // baseline yet (no bootstrap, no uncapped chunk) the slowdown is
    // undefined and the sample is skipped — never guessed.
    const double slowdown = std::max(1.0, obs.elapsed_s / s.baseline_time_s);
    deposit(&s.points, *obs.cap_w, slowdown, avg_power_w);
    project(&s);
  }
  materialize(obs.cls);
}

double OnlineAmenabilityLearner::slowdown_at(sched::JobClass cls,
                                             double cap_w) const {
  const sched::ClassCurve* curve = materialized_.curve(cls);
  return curve != nullptr ? curve->slowdown_at(cap_w) : 1.0;
}

double OnlineAmenabilityLearner::power_at(sched::JobClass cls,
                                          double cap_w) const {
  const sched::ClassCurve* curve = materialized_.curve(cls);
  return curve != nullptr ? curve->power_at(cap_w) : cap_w;
}

double OnlineAmenabilityLearner::pair_slowdown_at(sched::JobClass cls,
                                                  sched::JobClass other,
                                                  double cap_w) const {
  const PairState& pair = pairs_[static_cast<std::size_t>(cls)]
                                [static_cast<std::size_t>(other)];
  std::vector<double> caps, values;
  for (std::size_t i = 0; i < kCapsW.size(); ++i) {
    if (pair.points[i].weight <= 0.0) continue;
    caps.push_back(kCapsW[i]);
    values.push_back(pair.points[i].slowdown);
  }
  if (caps.empty()) return slowdown_at(cls, cap_w);
  return interpolate_points(caps, values, cap_w);
}

std::uint64_t OnlineAmenabilityLearner::samples(sched::JobClass cls) const {
  return state(cls).samples;
}

std::uint64_t OnlineAmenabilityLearner::uncapped_samples(
    sched::JobClass cls) const {
  return state(cls).uncapped;
}

std::uint64_t OnlineAmenabilityLearner::pair_samples(
    sched::JobClass cls, sched::JobClass other) const {
  return pairs_[static_cast<std::size_t>(cls)]
               [static_cast<std::size_t>(other)]
      .samples;
}

double OnlineAmenabilityLearner::confidence(sched::JobClass cls) const {
  const double n = static_cast<double>(state(cls).samples);
  return n / (n + kConfidenceSamples);
}

Provenance OnlineAmenabilityLearner::provenance(sched::JobClass cls) const {
  const ClassState& s = state(cls);
  if (s.bootstrapped && s.samples > 0) return Provenance::kMixed;
  if (s.samples > 0) return Provenance::kOnlineLearned;
  return Provenance::kOffline;
}

}  // namespace pcap::predict
