#include "sched/power_model.hpp"

namespace pcap::sched {

namespace {

/// EW-average smoothing factor for new uncapped samples.
constexpr double kAlpha = 0.25;
/// A sample counts as "uncapped" when the cap exceeded the observation by
/// at least this headroom (the cap was not the binding constraint).
constexpr double kHeadroomW = 4.0;
/// Prediction when neither samples nor a table entry exist.
constexpr double kDefaultUncappedW = 170.0;

}  // namespace

void OnlinePowerModel::observe(JobClass cls, std::optional<double> cap_w,
                               double watts) {
  ClassStats& stats = stats_[static_cast<std::size_t>(cls)];
  ++stats.samples;
  const bool unconstrained = !cap_w || *cap_w >= watts + kHeadroomW;
  if (!unconstrained) return;
  if (stats.uncapped_samples == 0) {
    stats.uncapped_w = watts;
  } else {
    stats.uncapped_w += kAlpha * (watts - stats.uncapped_w);
  }
  ++stats.uncapped_samples;
}

double OnlinePowerModel::predict_uncapped_w(JobClass cls) const {
  const ClassStats& stats = stats_[static_cast<std::size_t>(cls)];
  if (stats.uncapped_samples > 0) return stats.uncapped_w;
  if (table_ != nullptr) {
    if (const ClassCurve* curve = table_->curve(cls)) {
      if (curve->baseline_power_w > 0.0) return curve->baseline_power_w;
    }
  }
  return kDefaultUncappedW;
}

}  // namespace pcap::sched
