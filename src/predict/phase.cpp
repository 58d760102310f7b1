#include "predict/phase.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::predict {

namespace {

/// Shortest period considered (samples). Periods above window/2 cannot
/// repeat twice inside the window and are never reported.
constexpr std::size_t kMinPeriod = 2;
/// Normalised autocorrelation peak below this: not periodic.
constexpr double kMinConfidence = 0.35;
/// Relative level change that counts as a phase boundary.
constexpr double kLevelEpsilon = 0.08;

}  // namespace

PhaseForecast analyze_series(const std::vector<double>& series,
                             const PhaseConfig& config) {
  PhaseForecast forecast;
  const std::size_t total = series.size();
  const std::size_t n = std::min(total, std::max<std::size_t>(config.window, 4));
  if (n < 2 * kMinPeriod) {
    if (total > 0) forecast.current_value = series.back();
    return forecast;
  }
  const double* window = series.data() + (total - n);

  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += window[i];
  mean /= static_cast<double>(n);
  forecast.window_mean = mean;
  forecast.current_value = window[n - 1];

  // Normalised autocorrelation over the mean-removed window. r0 == 0 means
  // a perfectly flat series: trivially "periodic" but with no boundary to
  // plan for, so report non-periodic.
  double r0 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = window[i] - mean;
    r0 += d * d;
  }
  if (r0 <= 0.0) return forecast;

  const std::size_t max_lag = n / 2;
  std::size_t best_lag = 0;
  double best_r = 0.0;
  for (std::size_t lag = kMinPeriod; lag <= max_lag; ++lag) {
    double r = 0.0;
    for (std::size_t i = lag; i < n; ++i) {
      r += (window[i] - mean) * (window[i - lag] - mean);
    }
    // Unbiased-ish normalisation: fewer terms at larger lags must not win
    // on luck alone.
    r /= r0 * (static_cast<double>(n - lag) / static_cast<double>(n));
    if (r > best_r) {
      best_r = r;
      best_lag = lag;
    }
  }
  forecast.confidence = std::clamp(best_r, 0.0, 1.0);
  if (best_lag == 0 || forecast.confidence < kMinConfidence) {
    return forecast;
  }
  forecast.periodic = true;
  forecast.period = best_lag;

  // Replay the last full cycle one period ahead: the forecast at step j
  // (j = 1 is the very next sample) is the value one period earlier.
  forecast.next_value = window[n - best_lag];
  const double scale =
      std::max({std::abs(mean), std::abs(forecast.current_value), 1e-12});
  for (std::size_t j = 1; j <= best_lag; ++j) {
    const double predicted = window[n - best_lag + j - 1];
    if (std::abs(predicted - forecast.current_value) > kLevelEpsilon * scale) {
      forecast.boundary_in = j;
      forecast.boundary_level = predicted;
      break;
    }
  }
  return forecast;
}

PhasePredictor::PhasePredictor(const PhaseConfig& config)
    : config_(config), ring_(std::max<std::size_t>(config.window, 4)) {}

void PhasePredictor::observe(double value) {
  ring_.push(value);
  scratch_.clear();
  scratch_.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    scratch_.push_back(ring_.at(i));
  }
  forecast_ = analyze_series(scratch_, config_);
}

}  // namespace pcap::predict
