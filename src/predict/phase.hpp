// Phase detection and forecasting over a uniform telemetry series
// (DESIGN.md §16).
//
// The detector looks for periodic phase structure in a bounded window of
// the most recent samples — per-node chunk power/elapsed sequences in the
// scheduler, per-rack demand series in the fleet — and forecasts the next
// sample, the next phase boundary, and the level after it. The approach follows flux-power-monitor's
// fft_predictor.c: find the dominant period of the (mean-removed) window
// and replay the cycle one period ahead. At our window sizes (<= 512
// samples) the direct autocorrelation form of that search is exact and
// cheap, so no FFT machinery is needed; confidence is the normalised
// autocorrelation peak, and anything below a fixed floor is
// reported non-periodic so consumers fall back to the reactive path.
//
// Everything here is pure arithmetic over the series — seeded simulations
// feed seeded series, so forecasts are deterministic under `--jobs`.
#pragma once

#include <cstddef>
#include <vector>

#include "telemetry/ring_buffer.hpp"

namespace pcap::predict {

struct PhaseConfig {
  /// Analysis window: the most recent N samples (and the ring capacity of
  /// a PhasePredictor instance).
  std::size_t window = 64;
};

struct PhaseForecast {
  bool periodic = false;
  double confidence = 0.0;   // normalised autocorrelation peak, [0, 1]
  std::size_t period = 0;    // dominant period, in samples
  double next_value = 0.0;   // forecast for the next sample
  double current_value = 0.0;  // most recent sample
  double window_mean = 0.0;  // mean over the analysis window
  /// Samples until the forecast level departs from the current one (0 =
  /// no boundary inside the next period).
  std::size_t boundary_in = 0;
  double boundary_level = 0.0;  // forecast level after that boundary
};

/// Pure analysis of a uniform series (oldest first). Uses at most the
/// last `config.window` values.
PhaseForecast analyze_series(const std::vector<double>& series,
                             const PhaseConfig& config);

/// Stateful per-series detector: a bounded ring of observations plus a
/// cached forecast recomputed on push (so read paths are O(1)).
class PhasePredictor {
 public:
  explicit PhasePredictor(const PhaseConfig& config = {});

  const PhaseConfig& config() const { return config_; }

  /// Pushes one observation and refreshes the cached forecast.
  void observe(double value);

  std::size_t observations() const { return ring_.pushed(); }
  const PhaseForecast& forecast() const { return forecast_; }

 private:
  PhaseConfig config_;
  telemetry::RingBuffer<double> ring_;
  std::vector<double> scratch_;
  PhaseForecast forecast_;
};

}  // namespace pcap::predict
