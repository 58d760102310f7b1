// Watts Up!–style wall power meter analog.
//
// The node pushes instantaneous node power into the meter at a fixed sample
// interval; the meter integrates energy and keeps the sample log, exactly
// the observables the paper reports (average node power, computed energy).
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace pcap::meter {

/// Rectangle-rule power-to-energy integrator.
class EnergyIntegrator {
 public:
  /// Accounts `watts` held constant over `dt`.
  void add(double watts, util::Picoseconds dt) {
    joules_ += watts * util::to_seconds(dt);
    elapsed_ += dt;
  }

  double joules() const { return joules_; }
  util::Picoseconds elapsed() const { return elapsed_; }
  double average_watts() const {
    return elapsed_ ? joules_ / util::to_seconds(elapsed_) : 0.0;
  }
  void reset() { *this = EnergyIntegrator{}; }

 private:
  double joules_ = 0.0;
  util::Picoseconds elapsed_ = 0;
};

struct MeterSample {
  util::Picoseconds time = 0;
  double watts = 0.0;
};

class WattsUp {
 public:
  /// `sample_period` is in simulated time (the simulator compresses the
  /// meter's real 1 Hz sampling by the global time-scale factor).
  /// `keep_log` bounds memory for long runs; 0 keeps everything.
  explicit WattsUp(util::Picoseconds sample_period = util::microseconds(200),
                   std::size_t max_log = 0);

  util::Picoseconds sample_period() const { return period_; }

  /// Called by the node with the power level that has held since the last
  /// call; `now` is current simulated time. Integrates energy continuously
  /// and logs a sample whenever a sample boundary is crossed.
  void observe(util::Picoseconds now, double watts);

  /// Clears the session (sample log + energy), e.g. at run start.
  void start_session(util::Picoseconds now);

  double energy_joules() const { return integrator_.joules(); }
  double average_watts() const { return integrator_.average_watts(); }
  util::Picoseconds session_elapsed() const { return integrator_.elapsed(); }

  const std::vector<MeterSample>& samples() const { return samples_; }

 private:
  util::Picoseconds period_;
  std::size_t max_log_;
  util::Picoseconds last_observe_ = 0;
  util::Picoseconds next_sample_ = 0;
  EnergyIntegrator integrator_;
  std::vector<MeterSample> samples_;
};

}  // namespace pcap::meter
