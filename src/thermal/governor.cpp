#include "thermal/governor.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::thermal {

namespace {

/// The fan ramps down below FanPolicy::target_c minus this.
constexpr double kFanHysteresisC = 3.0;
/// The P-state clamp and duty rungs release below their trip minus this.
constexpr double kTripHysteresisC = 2.0;
/// Clamp rungs added per degree of overshoot per control period.
constexpr double kPclampGain = 0.5;
/// Clamp rungs released per control period once below the trip band.
constexpr double kRelaxStep = 0.25;

}  // namespace

const char* throttle_reason_name(ThrottleReason reason) {
  switch (reason) {
    case ThrottleReason::kNone: return "none";
    case ThrottleReason::kPowerCap: return "power-cap";
    case ThrottleReason::kThermalFan: return "thermal-fan";
    case ThrottleReason::kThermalPstate: return "thermal-pclamp";
    case ThrottleReason::kThermalDuty: return "thermal-duty";
  }
  return "?";
}

ThermalGovernorConfig governor_for_policy(const std::string& name) {
  ThermalGovernorConfig cfg;  // balanced
  if (name == "off") {
    cfg.enabled = false;
  } else if (name == "quiet") {
    // Fan held back for acoustics: the performance rungs bite early.
    cfg.fan.target_c = 70.0;
    cfg.fan.dwell_periods = 8;
    cfg.pclamp_trip_c = 64.0;
    cfg.duty_trip_c = 74.0;
  } else if (name == "aggressive") {
    // Spend fan watts to defer performance throttling.
    cfg.fan.target_c = 45.0;
    cfg.fan.dwell_periods = 1;
    cfg.pclamp_trip_c = 75.0;
    cfg.duty_trip_c = 85.0;
  }
  // "balanced", "", and unknown names keep the defaults.
  return cfg;
}

ThermalGovernor::ThermalGovernor(sim::PlatformControl& platform,
                                 const ThermalGovernorConfig& config)
    : platform_(&platform), config_(config) {}

void ThermalGovernor::set_telemetry(telemetry::TraceWriter* trace,
                                    telemetry::NodeProbe* probe,
                                    const std::string& name) {
  trace_ = trace;
  probe_ = probe;
  if (trace_ != nullptr) trace_track_ = trace_->track(name);
}

void ThermalGovernor::step_fan(double temp_c) {
  if (platform_->fan_max_rpm() <= 0.0) return;
  if (fan_dwell_ > 0) {
    --fan_dwell_;
    return;
  }
  const std::uint32_t before = fan_level_;
  if (temp_c > config_.fan.target_c) {
    ++fan_level_;
  } else if (temp_c < config_.fan.target_c - kFanHysteresisC &&
             fan_level_ > 0) {
    --fan_level_;
  }
  if (fan_level_ == before) return;
  fan_dwell_ = config_.fan.dwell_periods;
  // Levels map linearly onto [min_rpm, max_rpm]; the platform clamps.
  const double max_rpm = platform_->fan_max_rpm();
  const double span = max_rpm;  // set_fan_rpm clamps to [min, max]
  constexpr std::uint32_t kLevels = 8;
  fan_level_ = std::min(fan_level_, kLevels);
  platform_->set_fan_rpm(span * static_cast<double>(fan_level_) /
                         static_cast<double>(kLevels));
  if (trace_ != nullptr) {
    const double ts = telemetry::TraceWriter::sim_us(platform_->now());
    trace_->instant(trace_track_, "thermal", "fan-step", ts,
                    {telemetry::TraceArg::num("level", fan_level_),
                     telemetry::TraceArg::num("temp_c", temp_c)});
    trace_->counter(trace_track_, "fan-rpm", ts, platform_->fan_rpm());
  }
}

void ThermalGovernor::on_control_tick() {
  if (!config_.enabled) return;
  const double temp = platform_->sensor_temperature_c();
  peak_temp_c_ = std::max(peak_temp_c_, temp);

  step_fan(temp);

  // P-state clamp: continuous index with the BMC ladder's asymmetric
  // up-fast/down-slow response, but driven by temperature overshoot.
  const std::uint32_t deepest = platform_->pstate_count() - 1;
  if (temp > config_.pclamp_trip_c) {
    clamp_index_ += kPclampGain * (temp - config_.pclamp_trip_c);
    clamp_index_ = std::min(clamp_index_, static_cast<double>(deepest));
  } else if (temp < config_.pclamp_trip_c - kTripHysteresisC) {
    clamp_index_ = std::max(0.0, clamp_index_ - kRelaxStep);
  }
  const std::uint32_t clamp = pstate_clamp();
  bool overrode = false;
  if (clamp > 0 && platform_->pstate() < clamp) {
    // The BMC (running first this period) wanted a shallower P-state —
    // typically because the DCM just raised the cap. Thermal wins.
    platform_->set_pstate(clamp);
    overrode = true;
  }

  // Duty rung: one eighth off per 2 C beyond the duty trip.
  if (temp > config_.duty_trip_c) {
    duty_engaged_ = true;
  } else if (temp < config_.duty_trip_c - kTripHysteresisC) {
    duty_engaged_ = false;
  }
  if (duty_engaged_) {
    const double over = std::max(0.0, temp - config_.duty_trip_c);
    const double limit = std::max(
        platform_->min_duty(), 1.0 - 0.125 * (1.0 + std::floor(over / 2.0)));
    if (platform_->duty() > limit + 1e-12) {
      platform_->set_duty(limit);
      overrode = true;
    }
  }

  if (overrode) {
    ++overrides_;
    if (trace_ != nullptr) {
      trace_->instant(trace_track_, "thermal", "thermal-clamp",
                      telemetry::TraceWriter::sim_us(platform_->now()),
                      {telemetry::TraceArg::num("temp_c", temp),
                       telemetry::TraceArg::num("pclamp", clamp)});
    }
  }
  if (trace_ != nullptr) {
    trace_->counter(trace_track_, "thermal-clamp",
                    telemetry::TraceWriter::sim_us(platform_->now()),
                    static_cast<double>(clamp));
  }

  // Deepest-active-rung reason; falls back to the BMC when the platform is
  // throttled deeper than thermals require.
  ThrottleReason reason = ThrottleReason::kNone;
  if (duty_engaged_) {
    reason = ThrottleReason::kThermalDuty;
  } else if (clamp > 0) {
    reason = ThrottleReason::kThermalPstate;
  } else if (fan_level_ > 0) {
    reason = ThrottleReason::kThermalFan;
  } else if (platform_->pstate() > 0 || platform_->duty() < 1.0 ||
             platform_->dram_gated()) {
    reason = ThrottleReason::kPowerCap;
  }
  if (reason != reason_) {
    reason_ = reason;
    if (probe_ != nullptr) {
      probe_->note_throttle_reason(static_cast<std::int32_t>(reason));
    }
  }
}

}  // namespace pcap::thermal
