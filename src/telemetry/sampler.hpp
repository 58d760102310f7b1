// Tick-driven time-series sampling of a node's operating point.
//
// The node's housekeeping tick offers the probe a chance to sample; the
// sampler records into a fixed-capacity ring whenever its period elapses.
// Each sample is the full operating point the paper's analysis wants to see
// time-resolved: wall power, core frequency / P-state / duty, the cap
// setpoint in force, IPC and cache/TLB miss rates over the sampling window,
// thermal state, throttle-ladder depth and DCM-visible health.
//
// Windowed aggregates (min/mean/max/p95 over the most recent N samples) are
// computed on demand — the push path stores and moves on.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "telemetry/ring_buffer.hpp"
#include "util/units.hpp"

namespace pcap::telemetry {

/// One time-resolved observation of a node.
struct NodeSample {
  util::Picoseconds time = 0;
  double watts = 0.0;
  double frequency_mhz = 0.0;
  std::uint32_t pstate = 0;
  double duty = 1.0;
  /// Cap setpoint in force (<= 0: uncapped).
  double cap_w = 0.0;
  /// Committed instructions per cycle over the sampling window.
  double ipc = 0.0;
  /// Misses per access over the sampling window, per level.
  double l1_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double l3_miss_rate = 0.0;
  double temperature_c = 0.0;
  /// BMC throttle-ladder rung in force (0 = unthrottled).
  std::uint32_t throttle_level = 0;
  /// DCM health FSM state (core::NodeHealth cast to int; 0 = healthy).
  std::int32_t health = 0;
  // Thermal subsystem (zero when not fitted / no governor wired).
  double fan_rpm = 0.0;
  double cpu_temp_c = 0.0;
  double uncore_temp_c = 0.0;
  double dram_temp_c = 0.0;
  /// thermal::ThrottleReason cast to int (0 = none).
  std::int32_t throttle_reason = 0;
  // Per-subsystem meter split (instantaneous watts).
  double cpu_w = 0.0;
  double uncore_w = 0.0;
  double memory_w = 0.0;
};

/// min/mean/max/p95 over a window of samples.
struct Aggregate {
  std::size_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p95 = 0.0;
};

struct SamplerConfig {
  /// Simulated time between retained samples.
  util::Picoseconds period = util::microseconds(200);
};

class Sampler {
 public:
  /// `capacity` is the ring's size; memory stays bounded for arbitrarily
  /// long runs.
  explicit Sampler(const SamplerConfig& config = {},
                   std::size_t capacity = 4096);

  const SamplerConfig& config() const { return config_; }

  /// True when `now` has crossed the next sample boundary (cheap check the
  /// probe makes every tick).
  bool due(util::Picoseconds now) const { return now >= next_sample_; }

  /// Records `sample` and advances the boundary. The caller checks due().
  void record(const NodeSample& sample);

  const RingBuffer<NodeSample>& series() const { return ring_; }
  std::size_t size() const { return ring_.size(); }
  /// Total samples taken, including ones the ring has since evicted.
  std::size_t taken() const { return ring_.pushed(); }

  using Selector = std::function<double(const NodeSample&)>;

  /// Aggregate of `select(sample)` over the most recent `window` retained
  /// samples (0 = all retained).
  Aggregate aggregate(const Selector& select, std::size_t window = 0) const;

  /// CSV with one row per retained sample (header included).
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

  void reset(util::Picoseconds now = 0);

 private:
  SamplerConfig config_;
  RingBuffer<NodeSample> ring_;
  util::Picoseconds next_sample_ = 0;
};

}  // namespace pcap::telemetry
