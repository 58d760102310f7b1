// Thermal governor: a second control plane that runs *beside* the BMC's
// power-cap ladder, on the same control tick, and protects the silicon
// rather than the power budget. Its escalation ladder is
//
//   fan ramp  ->  P-state clamp  ->  duty cycle
//
// ordered by performance cost (a faster fan costs watts, not IPC). Because
// the governor runs after the BMC each period, its clamps win: when the DCM
// raises a node's cap the BMC de-escalates toward P0, and if the die is
// still hot the governor immediately re-clamps — the documented
// DCM-vs-thermal conflict. Every override is counted, traced and visible
// as a throttle *reason* in telemetry samples, so the conflict is
// observable, never assumed.
#pragma once

#include <cstdint>
#include <string>

#include "sim/platform_control.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/trace_writer.hpp"
#include "thermal/fan.hpp"

namespace pcap::thermal {

/// Why the platform is throttled right now, at sample granularity. The
/// governor reports its own rungs; `kPowerCap` is inferred when the
/// platform is throttled deeper than the governor requires (the BMC's
/// ladder is the only other actor).
enum class ThrottleReason : std::uint8_t {
  kNone = 0,
  kPowerCap = 1,
  kThermalFan = 2,
  kThermalPstate = 3,
  kThermalDuty = 4,
};

const char* throttle_reason_name(ThrottleReason reason);

struct ThermalGovernorConfig {
  /// Disabled is the default wiring for studies: the governor object may
  /// exist but must not touch the platform, keeping results bit-identical.
  bool enabled = true;
  FanPolicy fan;
  /// Start clamping P-states above this sensor temperature.
  double pclamp_trip_c = 68.0;
  /// Start duty-cycling above this temperature (the last rung).
  double duty_trip_c = 78.0;
};

/// Named fan/trip profiles for the `--fan-policy` CLI flag.
///   off        - governor disabled
///   quiet      - late fan ramp, conservative trips (thermals bite early)
///   balanced   - the defaults above
///   aggressive - early full-speed fan, trips pushed high
ThermalGovernorConfig governor_for_policy(const std::string& name);

class ThermalGovernor {
 public:
  explicit ThermalGovernor(sim::PlatformControl& platform,
                           const ThermalGovernorConfig& config = {});

  const ThermalGovernorConfig& config() const { return config_; }

  /// One control period. Call AFTER the BMC's on_control_tick so thermal
  /// clamps override the power ladder within the same period.
  void on_control_tick();

  /// Wires trace instants ("thermal-clamp", "fan-step"), the fan-rpm /
  /// thermal-clamp counter series and the probe's throttle reason.
  void set_telemetry(telemetry::TraceWriter* trace,
                     telemetry::NodeProbe* probe, const std::string& name);

  // --- observability (the conflict evidence) ---
  /// Deepest rung currently active.
  ThrottleReason active_reason() const { return reason_; }
  /// Control periods where the governor throttled the platform deeper than
  /// the BMC had it (a cap raise being overridden shows up here).
  std::uint64_t overrides() const { return overrides_; }
  /// Current P-state clamp floor (0 = none).
  std::uint32_t pstate_clamp() const {
    return static_cast<std::uint32_t>(clamp_index_);
  }
  std::uint32_t fan_level() const { return fan_level_; }
  double peak_temperature_c() const { return peak_temp_c_; }

 private:
  void step_fan(double temp_c);

  sim::PlatformControl* platform_;
  ThermalGovernorConfig config_;

  std::uint32_t fan_level_ = 0;
  std::uint32_t fan_dwell_ = 0;
  double clamp_index_ = 0.0;
  bool duty_engaged_ = false;
  std::uint64_t overrides_ = 0;
  double peak_temp_c_ = 0.0;
  ThrottleReason reason_ = ThrottleReason::kNone;

  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::NodeProbe* probe_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace pcap::thermal
