// Baseboard Management Controller firmware: enforces a node power cap by
// walking a throttle ladder, sampling averaged node power each control
// period (out-of-band, via PlatformControl).
//
// Ladder structure (matches the paper's inferred mechanism ordering):
//   levels 0..15   : P-states (DVFS) — primary mechanism
//   level 16       : + DRAM low-power gating
//   levels 17..20  : + L3/L2 way gating and TLB entry gating
//                    (dynamic cache reconfiguration)
//   levels 21..27  : + clock-modulation duty cycling 7/8 .. 1/8 (T-states)
//
// The controller keeps a continuous throttle index; the fractional part
// time-dithers between two adjacent levels when they differ only in
// P-state/duty, reproducing the paper's between-P-state average frequencies
// (e.g. 2168 MHz). Structural (cache/TLB/DRAM) settings are rate-limited by
// a dwell so reconfiguration does not thrash.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ipmi/commands.hpp"
#include "power/model.hpp"
#include "sim/platform_control.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/trace_writer.hpp"

namespace pcap::core {

struct BmcConfig {
  double guard_band_w = 0.5;    // regulate to cap - guard_band
  double hysteresis_w = 1.5;    // extra headroom required to de-escalate
  double step_gain = 0.12;      // throttle levels per watt of error
  double max_step = 2.0;        // max levels per control period
  double deescalate_step = 0.35;
  std::uint32_t structural_dwell_periods = 8;
  // Advertised capabilities (what a real NM exposes from its tables).
  double min_cap_w = 110.0;
  double max_cap_w = 400.0;
  // Ablation switches (benches): restrict the ladder to P-states only, or
  // disable between-rung time dithering.
  bool dvfs_only = false;
  bool enable_dither = true;
};

/// Per-subsystem caps, set in-process (Bmc::set_subsystem_caps): 0 W = that
/// subsystem uncapped.
struct SubsystemCaps {
  bool enabled = false;
  double cpu_w = 0.0;
  double uncore_w = 0.0;
  double memory_w = 0.0;

  double sum_w() const { return cpu_w + uncore_w + memory_w; }
};

/// One fully-specified platform operating point.
struct ThrottleLevel {
  std::uint32_t pstate = 0;
  double duty = 1.0;
  std::uint32_t l3_ways = 0;
  std::uint32_t l2_ways = 0;
  std::uint32_t itlb_entries = 0;
  std::uint32_t dtlb_entries = 0;
  bool dram_gated = false;
  std::string label;

  /// True when the two levels differ only in P-state / duty (safe to
  /// dither between them every control period).
  bool same_structure(const ThrottleLevel& other) const {
    return l3_ways == other.l3_ways && l2_ways == other.l2_ways &&
           itlb_entries == other.itlb_entries &&
           dtlb_entries == other.dtlb_entries &&
           dram_gated == other.dram_gated;
  }
};

class Bmc {
 public:
  explicit Bmc(sim::PlatformControl& platform, const BmcConfig& config = {});

  /// Enables capping at `watts`; std::nullopt disables capping and restores
  /// the unthrottled operating point.
  void set_cap(std::optional<double> watts);
  std::optional<double> cap() const { return cap_w_; }

  /// Per-subsystem caps (0 W for a subsystem = uncapped). Enforced through
  /// the same escalation ladder: the worst subsystem overshoot and the
  /// package overshoot drive one throttle index. INVARIANT: the applied
  /// enabled caps are clamped (proportionally) so their sum never exceeds
  /// the package cap — re-applied whenever either side changes, so no
  /// ordering of set_cap / set_subsystem_caps calls can violate it.
  /// Returns the caps actually in force.
  SubsystemCaps set_subsystem_caps(const SubsystemCaps& caps);
  const std::optional<SubsystemCaps>& subsystem_caps() const {
    return subsystem_caps_;
  }
  /// Times the invariant clamp had to shrink the requested caps.
  std::uint64_t subsystem_cap_clamps() const { return subsystem_cap_clamps_; }

  /// The control-loop body; wire into Node::set_control_hook, e.g.
  ///   node.set_control_hook([&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  void on_control_tick();

  // --- telemetry (served over IPMI) ---
  ipmi::PowerReading power_reading() const;
  ipmi::Capabilities capabilities() const;
  ipmi::ThrottleStatus throttle_status() const;

  /// Wires this firmware into the telemetry subsystem: cap changes and
  /// structural reconfigurations become trace events on a `name` track, the
  /// throttle rung becomes a counter series, and the probe (if any) learns
  /// the cap setpoint / rung for its samples. Either pointer may be null.
  void set_telemetry(telemetry::TraceWriter* trace,
                     telemetry::NodeProbe* probe, const std::string& name);

  double throttle_index() const { return index_; }
  const std::vector<ThrottleLevel>& ladder() const { return ladder_; }
  std::uint32_t current_level() const { return applied_level_; }
  /// Deepest rung applied since the cap was last set.
  std::uint32_t max_level_reached() const { return max_level_reached_; }
  /// Rung transitions since the cap was last set (dither activity).
  std::uint64_t level_changes() const { return level_changes_; }
  std::uint64_t control_ticks() const { return ticks_; }

  const BmcConfig& config() const { return config_; }

 private:
  void build_ladder();
  void apply_level(std::uint32_t level);
  void apply_structural(const ThrottleLevel& level);
  /// Re-derives the applied subsystem caps from the requested ones and the
  /// current package cap (the invariant lives here).
  void reclamp_subsystem_caps();

  sim::PlatformControl* platform_;
  BmcConfig config_;
  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::NodeProbe* probe_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::vector<ThrottleLevel> ladder_;
  std::optional<double> cap_w_;
  double index_ = 0.0;
  double dither_acc_ = 0.0;
  std::uint32_t applied_level_ = 0;
  std::uint32_t max_level_reached_ = 0;
  std::uint64_t level_changes_ = 0;
  std::uint32_t applied_structural_level_ = 0;
  std::uint64_t last_structural_change_tick_ = 0;
  std::uint64_t ticks_ = 0;

  // Per-subsystem capping state. `requested_` keeps the caller's ask so a
  // later package-cap raise restores it; `subsystem_caps_` is what is in
  // force (post-clamp).
  std::optional<SubsystemCaps> requested_subsystem_caps_;
  std::optional<SubsystemCaps> subsystem_caps_;
  std::array<double, power::kSubsystemCount> subsys_ewma_{};
  bool subsys_ewma_init_ = false;
  std::uint64_t subsystem_cap_clamps_ = 0;

  // Power telemetry since cap activation.
  double last_reading_w_ = 0.0;
  double min_w_ = 0.0;
  double max_w_ = 0.0;
  double energy_acc_w_ = 0.0;
  std::uint64_t reading_count_ = 0;
};

}  // namespace pcap::core
