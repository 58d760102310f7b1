#include "core/bmc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pcap::core {

Bmc::Bmc(sim::PlatformControl& platform, const BmcConfig& config)
    : platform_(&platform), config_(config) {
  build_ladder();
  apply_level(0);
}

void Bmc::build_ladder() {
  const std::uint32_t pstates = platform_->pstate_count();
  const std::uint32_t l3_max = platform_->l3_max_ways();
  const std::uint32_t l2_max = platform_->l2_max_ways();
  const std::uint32_t itlb_max = platform_->itlb_max_entries();
  const std::uint32_t dtlb_max = platform_->dtlb_max_entries();

  ThrottleLevel base;
  base.pstate = 0;
  base.duty = 1.0;
  base.l3_ways = l3_max;
  base.l2_ways = l2_max;
  base.itlb_entries = itlb_max;
  base.dtlb_entries = dtlb_max;
  base.dram_gated = false;

  // DVFS rungs.
  for (std::uint32_t p = 0; p < pstates; ++p) {
    ThrottleLevel level = base;
    level.pstate = p;
    level.label = std::string("P").append(std::to_string(p));
    ladder_.push_back(level);
  }

  if (config_.dvfs_only) return;

  // Memory gating.
  ThrottleLevel level = ladder_.back();
  level.dram_gated = true;
  level.label = "dram-gated";
  ladder_.push_back(level);

  // Dynamic cache/TLB reconfiguration rungs.
  level.l3_ways = std::max(1u, (l3_max * 3) / 5);  // 20 -> 12
  level.label = "l3-" + std::to_string(level.l3_ways) + "w";
  ladder_.push_back(level);

  level.l3_ways = std::max(1u, (l3_max * 2) / 5);  // 20 -> 8
  level.itlb_entries = std::max(1u, itlb_max * 2 / 3);
  level.label = "l3-" + std::to_string(level.l3_ways) + "w";
  ladder_.push_back(level);

  // Note: the data TLB is left alone — the paper's DTLB miss counts stay
  // nearly flat at every cap, so whatever the platform gates, it is not
  // the DTLB.
  level.l3_ways = std::max(1u, l3_max / 5);  // 20 -> 4
  level.l2_ways = std::max(1u, l2_max / 2);  // 8 -> 4
  level.itlb_entries = std::max(1u, itlb_max / 3);
  level.label = "l3-" + std::to_string(level.l3_ways) + "w+l2";
  ladder_.push_back(level);
  (void)dtlb_max;

  level.l2_ways = std::max(1u, l2_max / 4);  // 8 -> 2
  level.itlb_entries = std::max(1u, itlb_max / 8);
  level.label = "l2-" + std::to_string(level.l2_ways) + "w+tlb";
  ladder_.push_back(level);

  // Clock modulation (T-states), 7/8 down to the platform minimum.
  const double min_duty = platform_->min_duty();
  for (int eighths = 7; eighths >= 1; --eighths) {
    const double duty = static_cast<double>(eighths) / 8.0;
    if (duty < min_duty - 1e-9) break;
    ThrottleLevel t = level;
    t.duty = duty;
    t.label = "duty-" + std::to_string(eighths) + "/8";
    ladder_.push_back(t);
  }
}

void Bmc::set_telemetry(telemetry::TraceWriter* trace,
                        telemetry::NodeProbe* probe, const std::string& name) {
  trace_ = trace;
  probe_ = probe;
  if (trace_ != nullptr) trace_track_ = trace_->track(name);
}

void Bmc::apply_structural(const ThrottleLevel& level) {
  if (platform_->l3_ways() != level.l3_ways) {
    platform_->set_l3_ways(level.l3_ways);
  }
  if (platform_->l2_ways() != level.l2_ways) {
    platform_->set_l2_ways(level.l2_ways);
  }
  if (platform_->itlb_entries() != level.itlb_entries) {
    platform_->set_itlb_entries(level.itlb_entries);
  }
  if (platform_->dtlb_entries() != level.dtlb_entries) {
    platform_->set_dtlb_entries(level.dtlb_entries);
  }
  if (platform_->dram_gated() != level.dram_gated) {
    platform_->set_dram_gated(level.dram_gated);
  }
}

void Bmc::apply_level(std::uint32_t level_index) {
  level_index = std::min(
      level_index, static_cast<std::uint32_t>(ladder_.size() - 1));
  const ThrottleLevel& level = ladder_[level_index];
  platform_->set_pstate(level.pstate);
  platform_->set_duty(level.duty);

  // Structural settings are rate-limited: only adopt a new structure after
  // the dwell expires (reconfiguring caches costs flushes).
  if (level_index != applied_structural_level_) {
    const bool dwell_ok =
        ticks_ - last_structural_change_tick_ >= config_.structural_dwell_periods;
    const bool structure_differs =
        !ladder_[applied_structural_level_].same_structure(level);
    if (!structure_differs) {
      applied_structural_level_ = level_index;
    } else if (dwell_ok) {
      apply_structural(level);
      applied_structural_level_ = level_index;
      last_structural_change_tick_ = ticks_;
      if (trace_ != nullptr) {
        trace_->instant(trace_track_, "bmc", "reconfigure:" + level.label,
                        telemetry::TraceWriter::sim_us(platform_->now()),
                        {telemetry::TraceArg::num("level", level_index)});
      }
    }
    // else: keep the previous structure for now (P-state/duty still applied).
  }
  if (level_index != applied_level_) {
    ++level_changes_;
    if (trace_ != nullptr) {
      trace_->counter(trace_track_, "throttle-level",
                      telemetry::TraceWriter::sim_us(platform_->now()),
                      static_cast<double>(level_index));
    }
    if (probe_ != nullptr) probe_->note_throttle_level(level_index);
  }
  applied_level_ = level_index;
  max_level_reached_ = std::max(max_level_reached_, level_index);
}

void Bmc::set_cap(std::optional<double> watts) {
  cap_w_ = watts;
  if (trace_ != nullptr) {
    const double ts = telemetry::TraceWriter::sim_us(platform_->now());
    if (watts) {
      trace_->instant(trace_track_, "bmc", "set-cap", ts,
                      {telemetry::TraceArg::num("watts", *watts)});
    } else {
      trace_->instant(trace_track_, "bmc", "uncap", ts);
    }
  }
  if (probe_ != nullptr) {
    if (watts) {
      probe_->note_cap(*watts);
    } else {
      probe_->note_uncapped();
    }
    probe_->note_throttle_level(0);
  }
  min_w_ = 0.0;
  max_w_ = 0.0;
  energy_acc_w_ = 0.0;
  reading_count_ = 0;
  max_level_reached_ = 0;
  level_changes_ = 0;
  if (!cap_w_) {
    index_ = 0.0;
    dither_acc_ = 0.0;
    // Restore the unthrottled operating point immediately.
    apply_structural(ladder_.front());
    applied_structural_level_ = 0;
    apply_level(0);
  }
  // A lowered package cap may now be exceeded by the subsystem-cap sum;
  // a raised one lets earlier requests back in. Either way, re-derive.
  reclamp_subsystem_caps();
}

void Bmc::reclamp_subsystem_caps() {
  if (!requested_subsystem_caps_) {
    subsystem_caps_.reset();
    return;
  }
  SubsystemCaps applied = *requested_subsystem_caps_;
  if (applied.enabled && cap_w_) {
    const double sum = applied.sum_w();
    if (sum > *cap_w_ && sum > 0.0) {
      const double scale = *cap_w_ / sum;
      applied.cpu_w *= scale;
      applied.uncore_w *= scale;
      applied.memory_w *= scale;
      ++subsystem_cap_clamps_;
    }
  }
  subsystem_caps_ = applied;
}

SubsystemCaps Bmc::set_subsystem_caps(const SubsystemCaps& caps) {
  requested_subsystem_caps_ = caps;
  reclamp_subsystem_caps();
  if (trace_ != nullptr) {
    const double ts = telemetry::TraceWriter::sim_us(platform_->now());
    trace_->instant(trace_track_, "bmc", "set-subsystem-caps", ts,
                    {telemetry::TraceArg::num("cpu_w", subsystem_caps_->cpu_w),
                     telemetry::TraceArg::num("uncore_w",
                                              subsystem_caps_->uncore_w),
                     telemetry::TraceArg::num("memory_w",
                                              subsystem_caps_->memory_w)});
  }
  return *subsystem_caps_;
}

void Bmc::on_control_tick() {
  ++ticks_;
  const double reading = platform_->window_average_power_w();
  last_reading_w_ = reading;
  if (reading_count_ == 0) {
    min_w_ = reading;
    max_w_ = reading;
  }
  min_w_ = std::min(min_w_, reading);
  max_w_ = std::max(max_w_, reading);
  energy_acc_w_ += reading;
  ++reading_count_;

  // Per-subsystem meters smooth over control periods (EWMA) so the ladder
  // does not chase one noisy breakdown sample.
  const bool sub_active =
      subsystem_caps_.has_value() && subsystem_caps_->enabled;
  if (sub_active) {
    const double now_w[power::kSubsystemCount] = {
        platform_->subsystem_power_w(power::Subsystem::kCpu),
        platform_->subsystem_power_w(power::Subsystem::kUncore),
        platform_->subsystem_power_w(power::Subsystem::kMemory)};
    for (int i = 0; i < power::kSubsystemCount; ++i) {
      subsys_ewma_[i] = subsys_ewma_init_
                            ? 0.5 * subsys_ewma_[i] + 0.5 * now_w[i]
                            : now_w[i];
    }
    subsys_ewma_init_ = true;
  }

  if (!cap_w_ && !sub_active) return;

  // One ladder, worst offender wins: the package overshoot and every
  // enabled subsystem overshoot feed the same throttle index.
  double error = -std::numeric_limits<double>::infinity();
  if (cap_w_) {
    const double target = *cap_w_ - config_.guard_band_w;
    error = reading - target;
  }
  if (sub_active) {
    const double caps[power::kSubsystemCount] = {subsystem_caps_->cpu_w,
                                                 subsystem_caps_->uncore_w,
                                                 subsystem_caps_->memory_w};
    for (int i = 0; i < power::kSubsystemCount; ++i) {
      if (caps[i] <= 0.0) continue;  // 0 W = uncapped subsystem
      error = std::max(error,
                       subsys_ewma_[i] - (caps[i] - config_.guard_band_w));
    }
  }
  if (error > 0.0) {
    index_ += std::min(config_.step_gain * error, config_.max_step);
  } else if (error < -config_.hysteresis_w) {
    index_ -= config_.deescalate_step;
  }
  index_ = std::clamp(index_, 0.0, static_cast<double>(ladder_.size() - 1));

  const auto floor_level = static_cast<std::uint32_t>(index_);
  const double frac = index_ - static_cast<double>(floor_level);
  std::uint32_t level = floor_level;
  if (config_.enable_dither && frac > 0.0 && floor_level + 1 < ladder_.size() &&
      ladder_[floor_level].same_structure(ladder_[floor_level + 1])) {
    // Time-dither between the two adjacent rungs in proportion to frac.
    dither_acc_ += frac;
    if (dither_acc_ >= 1.0) {
      dither_acc_ -= 1.0;
      level = floor_level + 1;
    }
  }
  apply_level(level);
}

ipmi::PowerReading Bmc::power_reading() const {
  ipmi::PowerReading r;
  if (reading_count_ == 0) {
    // No control-loop samples yet: serve the instantaneous sensor, as a
    // real BMC would between averaging windows.
    const double now_w = platform_->instantaneous_power_w();
    return ipmi::PowerReading{now_w, now_w, now_w, now_w};
  }
  r.current_w = last_reading_w_;
  r.average_w = energy_acc_w_ / static_cast<double>(reading_count_);
  r.minimum_w = min_w_;
  r.maximum_w = max_w_;
  return r;
}

ipmi::Capabilities Bmc::capabilities() const {
  return ipmi::Capabilities{config_.min_cap_w, config_.max_cap_w};
}

ipmi::ThrottleStatus Bmc::throttle_status() const {
  ipmi::ThrottleStatus s;
  s.pstate = static_cast<std::uint8_t>(platform_->pstate());
  s.duty_eighths =
      static_cast<std::uint8_t>(std::lround(platform_->duty() * 8.0));
  s.l3_ways = static_cast<std::uint8_t>(platform_->l3_ways());
  s.l2_ways = static_cast<std::uint8_t>(platform_->l2_ways());
  s.itlb_entries = static_cast<std::uint8_t>(platform_->itlb_entries());
  s.dtlb_entries = static_cast<std::uint8_t>(platform_->dtlb_entries());
  s.dram_gated = platform_->dram_gated();
  s.capping_active = cap_w_.has_value() ||
                     (subsystem_caps_ && subsystem_caps_->enabled);
  return s;
}

}  // namespace pcap::core
