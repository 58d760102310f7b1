// Abstract actuator/sensor interface the BMC firmware drives. The node base
// (sim::PackagePlatform) implements it once for Node and SmpNode; keeping it
// abstract means the management plane (src/core) never depends on simulator
// internals — mirroring the real architecture, where the BMC reaches the
// platform through management firmware rather than the OS.
#pragma once

#include <cstdint>

#include "power/model.hpp"
#include "util/units.hpp"

namespace pcap::sim {

class PlatformControl {
 public:
  virtual ~PlatformControl() = default;

  // P-states (DVFS).
  virtual std::uint32_t pstate_count() const = 0;
  virtual std::uint32_t pstate() const = 0;
  virtual void set_pstate(std::uint32_t index) = 0;
  virtual util::Hertz frequency() const = 0;

  // T-states (clock modulation).
  virtual double duty() const = 0;
  virtual void set_duty(double duty) = 0;
  virtual double min_duty() const = 0;

  // Cache/TLB reconfiguration.
  virtual std::uint32_t l3_ways() const = 0;
  virtual std::uint32_t l3_max_ways() const = 0;
  virtual void set_l3_ways(std::uint32_t n) = 0;
  virtual std::uint32_t l2_ways() const = 0;
  virtual std::uint32_t l2_max_ways() const = 0;
  virtual void set_l2_ways(std::uint32_t n) = 0;
  virtual std::uint32_t itlb_entries() const = 0;
  virtual std::uint32_t itlb_max_entries() const = 0;
  virtual void set_itlb_entries(std::uint32_t n) = 0;
  virtual std::uint32_t dtlb_entries() const = 0;
  virtual std::uint32_t dtlb_max_entries() const = 0;
  virtual void set_dtlb_entries(std::uint32_t n) = 0;

  // Memory gating.
  virtual bool dram_gated() const = 0;
  virtual void set_dram_gated(bool gated) = 0;

  // Sensors.
  /// Average node power since the previous call (the BMC's sampling window);
  /// resets the window. Returns the instantaneous power if the window is
  /// empty.
  virtual double window_average_power_w() = 0;
  virtual double instantaneous_power_w() const = 0;
  /// Fraction of recent cycles stalled on memory (0 when idle) — what an
  /// OS governor reads from the PMU to judge memory-boundedness.
  virtual double memory_stall_fraction() const = 0;
  virtual util::Picoseconds now() const = 0;

  // Thermal/fan surface and per-subsystem meters. Defaulted (not pure) so
  // platforms without the thermal subsystem fitted — and existing test
  // doubles — need not implement them.
  /// Instantaneous power of one manageable subsystem (0 if unmetered).
  virtual double subsystem_power_w(power::Subsystem) const { return 0.0; }
  /// Package thermal sensor (the RC network's sensor node).
  virtual double sensor_temperature_c() const { return 0.0; }
  virtual double fan_rpm() const { return 0.0; }
  /// 0 = no fan fitted (the thermal governor then skips the fan rung).
  virtual double fan_max_rpm() const { return 0.0; }
  virtual void set_fan_rpm(double) {}
};

}  // namespace pcap::sim
