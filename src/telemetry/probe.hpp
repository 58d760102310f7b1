// Per-node telemetry probe: the glue the simulator layers talk to.
//
// The Node offers its operating point every housekeeping tick (a raw
// ProbeInput of cumulative counters and instantaneous state); the probe
// derives windowed rates (IPC, per-level miss rates), stamps on the
// management-plane annotations it has been told about (cap setpoint,
// throttle rung, DCM health), and records into its Sampler when the period
// elapses. Given a TraceWriter, it mirrors power/frequency into it as
// counter series so the waveform shows up alongside the management spans in
// Perfetto.
//
// The probe only ever *reads* simulator state — attaching one must leave
// simulated results bit-identical (tests/test_telemetry.cpp enforces this).
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/sampler.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/units.hpp"

namespace pcap::telemetry {

struct TelemetryConfig {
  bool enabled = false;
  /// Sampling period in simulated time.
  util::Picoseconds sample_period = util::microseconds(200);
  std::size_t ring_capacity = 4096;
};

/// Raw per-tick view a Node hands its probe. Counters are cumulative; the
/// probe differences them between samples.
struct ProbeInput {
  util::Picoseconds now = 0;
  double watts = 0.0;
  double frequency_mhz = 0.0;
  std::uint32_t pstate = 0;
  double duty = 1.0;
  double temperature_c = 0.0;
  // Thermal subsystem (zero when not fitted).
  double fan_rpm = 0.0;
  double cpu_temp_c = 0.0;
  double uncore_temp_c = 0.0;
  double dram_temp_c = 0.0;
  // Per-subsystem meter split (instantaneous watts).
  double cpu_w = 0.0;
  double uncore_w = 0.0;
  double memory_w = 0.0;
  std::uint64_t tot_ins = 0;
  std::uint64_t tot_cyc = 0;
  std::uint64_t l1_acc = 0;
  std::uint64_t l1_miss = 0;
  std::uint64_t l2_acc = 0;
  std::uint64_t l2_miss = 0;
  std::uint64_t l3_acc = 0;
  std::uint64_t l3_miss = 0;
};

class NodeProbe {
 public:
  explicit NodeProbe(const TelemetryConfig& config = {},
                     TraceWriter* trace = nullptr,
                     const std::string& name = "node");

  const TelemetryConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  /// True when a sample is due at `now` — the caller can skip assembling a
  /// ProbeInput entirely (the common case: two comparisons per tick).
  bool wants_sample(util::Picoseconds now) const {
    return config_.enabled && sampler_.due(now);
  }

  /// Called by the Node every housekeeping tick. Cheap when no sample is
  /// due: one comparison.
  void on_tick(const ProbeInput& in) {
    if (!config_.enabled || !sampler_.due(in.now)) return;
    take_sample(in);
  }

  // --- management-plane annotations (stamped into subsequent samples) ---
  void note_cap(double cap_w) { cap_w_ = cap_w; }
  void note_uncapped() { cap_w_ = 0.0; }
  void note_throttle_level(std::uint32_t level) { throttle_level_ = level; }
  void note_health(std::int32_t health) { health_ = health; }
  /// thermal::ThrottleReason cast to int (0 = none); stamped by the
  /// thermal governor when one is wired.
  void note_throttle_reason(std::int32_t reason) { throttle_reason_ = reason; }

  const Sampler& sampler() const { return sampler_; }
  Sampler& sampler() { return sampler_; }
  TraceWriter* trace() { return trace_; }

  void reset(util::Picoseconds now = 0);

 private:
  void take_sample(const ProbeInput& in);

  TelemetryConfig config_;
  TraceWriter* trace_;
  std::string name_;
  Sampler sampler_;

  double cap_w_ = 0.0;
  std::uint32_t throttle_level_ = 0;
  std::int32_t health_ = 0;
  std::int32_t throttle_reason_ = 0;

  ProbeInput last_{};
  bool has_last_ = false;

  std::uint32_t track_ = 0;
};

}  // namespace pcap::telemetry
