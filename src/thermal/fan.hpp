// Fan model: RPM maps to an effective heatsink-to-ambient resistance (more
// airflow, lower R) and to fan electrical power (cubic in speed), which the
// node feeds back into its package meter — so aggressive cooling shows up
// in the power the DCM is trying to cap. The hysteretic speed controller
// lives with the thermal governor; this file is the physical model plus the
// per-policy controller configuration.
#pragma once

#include <cmath>
#include <cstdint>

namespace pcap::thermal {

struct FanConfig {
  /// 0 = no fan fitted. The default machine has none, which keeps the
  /// degenerate thermal path (and every golden result) bit-identical.
  double max_rpm = 0.0;
  double min_rpm = 1500.0;
  /// Discrete controller steps between min and max RPM.
  int levels = 8;
  /// Electrical power at max RPM; scales with (rpm/max)^3.
  double max_power_w = 18.0;
  /// Exhaust resistance curve: still air down to max-flow as
  ///   r(rpm) = r_max_flow + (r_still - r_max_flow) * (1 - u)^flow_exponent
  /// with u = rpm/max_rpm.
  double r_still_c_per_w = 0.45;
  double r_max_flow_c_per_w = 0.12;
  double flow_exponent = 1.5;
};

/// Hysteretic fan-speed policy knobs (consumed by the thermal governor).
struct FanPolicy {
  double target_c = 62.0;      // ramp up above this sensor temperature
  std::uint32_t dwell_periods = 4;  // min control periods between steps
};

class Fan {
 public:
  explicit Fan(const FanConfig& config)
      : config_(config),
        rpm_(config.max_rpm > 0.0 ? config.min_rpm : 0.0) {
    recompute();
  }

  const FanConfig& config() const { return config_; }
  bool fitted() const { return config_.max_rpm > 0.0; }

  double rpm() const { return rpm_; }
  double min_rpm() const { return fitted() ? config_.min_rpm : 0.0; }
  double max_rpm() const { return config_.max_rpm; }

  void set_rpm(double rpm) {
    if (!fitted()) return;
    rpm = rpm < config_.min_rpm ? config_.min_rpm
                                : (rpm > config_.max_rpm ? config_.max_rpm : rpm);
    if (rpm == rpm_) return;
    rpm_ = rpm;
    recompute();
  }

  /// RPM for a discrete controller level in [0, levels].
  double rpm_for_level(int level) const {
    if (!fitted()) return 0.0;
    if (level <= 0) return config_.min_rpm;
    if (level >= config_.levels) return config_.max_rpm;
    return config_.min_rpm + (config_.max_rpm - config_.min_rpm) *
                                 static_cast<double>(level) /
                                 static_cast<double>(config_.levels);
  }

  /// Effective heatsink-to-ambient resistance at the current speed.
  double resistance_c_per_w() const { return resistance_; }

  /// Electrical draw at the current speed (fed into the node meter).
  double power_w() const { return power_; }

  void reset() {
    rpm_ = fitted() ? config_.min_rpm : 0.0;
    recompute();
  }

 private:
  void recompute() {
    if (!fitted()) {
      resistance_ = config_.r_still_c_per_w;
      power_ = 0.0;
      return;
    }
    const double u = rpm_ / config_.max_rpm;
    resistance_ = config_.r_max_flow_c_per_w +
                  (config_.r_still_c_per_w - config_.r_max_flow_c_per_w) *
                      std::pow(1.0 - u, config_.flow_exponent);
    power_ = config_.max_power_w * u * u * u;
  }

  FanConfig config_;
  double rpm_ = 0.0;
  double resistance_ = 0.0;
  double power_ = 0.0;
};

}  // namespace pcap::thermal
