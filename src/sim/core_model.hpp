// In-order core timing model: converts micro-ops and memory latencies into
// simulated time under the current P-state (frequency/voltage) and T-state
// (clock-modulation duty cycle), and accounts PMU events including a
// mis-speculation replay model.
#pragma once

#include <cstdint>

#include "pmu/counters.hpp"
#include "power/pstate.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "util/units.hpp"

namespace pcap::sim {

class CoreModel {
 public:
  CoreModel(const CoreTimingConfig& config, const power::PStateTable& pstates,
            pmu::CounterBank& bank);

  // --- actuators ---
  /// Throws std::out_of_range for an invalid index.
  void set_pstate(std::uint32_t index);
  std::uint32_t pstate() const { return pstate_; }
  const power::PState& pstate_info() const;
  util::Hertz frequency() const { return pstate_info().frequency; }
  /// Clock period at the current P-state, cached by set_pstate().
  util::Picoseconds cycle_period() const { return period_; }
  double voltage() const { return pstate_info().voltage; }

  /// Clock-modulation duty in (0, 1]; clamped to [min_duty, 1].
  void set_duty(double duty);
  double duty() const { return duty_; }
  static constexpr double kMinDuty = 0.125;

  // --- execution ---
  /// Retires `uops` arithmetic micro-ops (committed instructions).
  void compute(std::uint64_t uops);

  /// Accounts one committed load/store whose hierarchy cost is `lat`.
  void memory_op(const AccessLatency& lat, bool is_store);

  /// Bit-identical to `n` repetitions of the element sequence
  /// memory_op(load_lat, false) [kLoad]; memory_op(store_lat, true)
  /// [kStore]; compute(uops) [when uops != 0]. The latency of an op the
  /// shape lacks is ignored. Integer counters are added in bulk, while the
  /// per-op floating-point state (duty, cycle, branch, mispredict carries)
  /// is replayed in order, so the picosecond clock matches the per-op path
  /// to the last bit.
  template <bool kLoad, bool kStore>
  void repeat(const AccessLatency& load_lat, const AccessLatency& store_lat,
              std::uint64_t uops, std::uint64_t n);

  /// Accounts one instruction fetch (not a committed instruction); only the
  /// portion of the latency beyond an L1I hit stalls the front end.
  void fetch_op(const AccessLatency& lat, std::uint32_t l1_hit_cycles);

  /// Pipeline drain caused by an external event (OS tick): costs cycles and
  /// re-executed speculative work.
  void external_drain();

  /// Advances time without retiring work (halted / idle core).
  void idle_advance(util::Picoseconds dt) { now_ += dt; }

  util::Picoseconds now() const { return now_; }
  const CoreTimingConfig& config() const { return config_; }

 private:
  /// Charges `cycles` at the current clock plus a fixed wall-clock part,
  /// both inflated by the duty cycle (the clock-off windows stall retire).
  void charge(std::uint64_t cycles, util::Picoseconds fixed_ps);

  /// Branch/mispredict accounting for `uops` of committed work.
  void speculate(std::uint64_t uops);

  /// Advances the clock by a pre-divided duty-scaled cost, reproducing
  /// charge()'s exact float sequence fl(fl(per) + carry).
  void advance_scaled(double per_ps) {
    const double scaled = per_ps + time_carry_ps_;
    const auto whole = static_cast<util::Picoseconds>(scaled);
    time_carry_ps_ = scaled - static_cast<double>(whole);
    now_ += whole;
  }

  CoreTimingConfig config_;
  const power::PStateTable* pstates_;
  pmu::CounterBank* bank_;
  std::uint32_t pstate_ = 0;
  util::Picoseconds period_ = 0;  // util::cycle_period of pstate_
  double duty_ = 1.0;
  util::Picoseconds now_ = 0;
  double cycle_carry_ = 0.0;   // fractional compute cycles
  double branch_carry_ = 0.0;  // fractional branches
  double mispredict_carry_ = 0.0;
  double time_carry_ps_ = 0.0;  // fractional picoseconds from duty scaling
};

}  // namespace pcap::sim
