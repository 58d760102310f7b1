#include "sim/core_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcap::sim {

using pmu::Event;

CoreModel::CoreModel(const CoreTimingConfig& config,
                     const power::PStateTable& pstates,
                     pmu::CounterBank& bank)
    : config_(config),
      pstates_(&pstates),
      bank_(&bank),
      period_(util::cycle_period(pstates.state(0).frequency)) {}

void CoreModel::set_pstate(std::uint32_t index) {
  if (index >= pstates_->size()) {
    throw std::out_of_range("CoreModel::set_pstate: bad index");
  }
  pstate_ = index;
  period_ = util::cycle_period(pstates_->state(index).frequency);
}

const power::PState& CoreModel::pstate_info() const {
  return pstates_->state(pstate_);
}

void CoreModel::set_duty(double duty) {
  duty_ = std::clamp(duty, kMinDuty, 1.0);
}

void CoreModel::charge(std::uint64_t cycles, util::Picoseconds fixed_ps) {
  const double raw_ps =
      static_cast<double>(cycles) * static_cast<double>(period_) +
      static_cast<double>(fixed_ps);
  // Clock modulation: retire progresses only during the duty-on fraction.
  // x / 1.0 == x exactly in IEEE-754, so skipping the divide at full duty
  // leaves the carry sequence unchanged.
  const double scaled =
      (duty_ == 1.0 ? raw_ps : raw_ps / duty_) + time_carry_ps_;
  const auto whole = static_cast<util::Picoseconds>(scaled);
  time_carry_ps_ = scaled - static_cast<double>(whole);
  now_ += whole;
  // TOT_CYC counts the cycles the work occupied (stall cycles included, as
  // "cycle count * clock speed = execution time" in the paper's method).
  if (fixed_ps == 0) {
    bank_->add(Event::kTotCyc, cycles);
    return;
  }
  const std::uint64_t stall = fixed_ps / period_;
  bank_->add(Event::kTotCyc, cycles + stall);
  bank_->add(Event::kStallCyc, stall);
}

void CoreModel::speculate(std::uint64_t uops) {
  branch_carry_ += static_cast<double>(uops) * config_.branch_fraction;
  const auto branches = static_cast<std::uint64_t>(branch_carry_);
  branch_carry_ -= static_cast<double>(branches);
  if (branches == 0) return;
  bank_->add(Event::kBrIns, branches);

  mispredict_carry_ +=
      static_cast<double>(branches) * config_.mispredict_rate;
  const auto mispredicts = static_cast<std::uint64_t>(mispredict_carry_);
  mispredict_carry_ -= static_cast<double>(mispredicts);
  if (mispredicts == 0) return;
  bank_->add(Event::kBrMsp, mispredicts);
  bank_->add(Event::kInsExec, mispredicts * config_.mispredict_replay_uops);
  charge(mispredicts * config_.mispredict_penalty_cycles, 0);
}

void CoreModel::compute(std::uint64_t uops) {
  bank_->add(Event::kTotIns, uops);
  bank_->add(Event::kInsExec, uops);
  const double cycles_f =
      static_cast<double>(uops) / config_.base_ipc + cycle_carry_;
  const auto cycles = static_cast<std::uint64_t>(cycles_f);
  cycle_carry_ = cycles_f - static_cast<double>(cycles);
  charge(cycles, 0);
  speculate(uops);
}

void CoreModel::memory_op(const AccessLatency& lat, bool is_store) {
  bank_->add(Event::kTotIns);
  bank_->add(Event::kInsExec);
  bank_->add(is_store ? Event::kSrIns : Event::kLdIns);
  charge(lat.cycles, lat.fixed_ps);
  speculate(1);
}

template <bool kLoad, bool kStore>
void CoreModel::repeat(const AccessLatency& load_lat,
                       const AccessLatency& store_lat, std::uint64_t uops,
                       std::uint64_t n) {
  static_assert(kLoad || kStore, "an element has at least one memory op");
  if (n == 0) return;
  constexpr std::uint64_t kOps = (kLoad ? 1 : 0) + (kStore ? 1 : 0);
  bank_->add(Event::kTotIns, n * (kOps + uops));
  bank_->add(Event::kInsExec, n * (kOps + uops));
  if constexpr (kLoad) bank_->add(Event::kLdIns, n);
  if constexpr (kStore) bank_->add(Event::kSrIns, n);
  const util::Picoseconds period = period_;
  // charge() computes fl(fl(raw_ps / duty) + carry); raw_ps and duty are
  // constant across the repeats, so hoisting the division preserves the
  // exact floating-point sequence.
  const auto per_ps = [&](const AccessLatency& lat) {
    return (static_cast<double>(lat.cycles) * static_cast<double>(period) +
            static_cast<double>(lat.fixed_ps)) /
           duty_;
  };
  const double per_load = kLoad ? per_ps(load_lat) : 0.0;
  const double per_store = kStore ? per_ps(store_lat) : 0.0;
  // Integer cycle counters commute, so the memory ops' contributions bulk;
  // compute cycles vary per element (cycle_carry_) and accrue in the loop.
  std::uint64_t stall = 0;
  std::uint64_t cycles = 0;
  if constexpr (kLoad) {
    stall += load_lat.fixed_ps / period;
    cycles += load_lat.cycles;
  }
  if constexpr (kStore) {
    stall += store_lat.fixed_ps / period;
    cycles += store_lat.cycles;
  }
  bank_->add(Event::kTotCyc, n * (cycles + stall));
  if (stall != 0) bank_->add(Event::kStallCyc, n * stall);
  for (std::uint64_t i = 0; i < n; ++i) {
    if constexpr (kLoad) {
      advance_scaled(per_load);
      speculate(1);
    }
    if constexpr (kStore) {
      advance_scaled(per_store);
      speculate(1);
    }
    if (uops != 0) {
      // compute(uops) replayed: identical cycle-carry and charge() math,
      // only the (bulked) counter adds pulled out.
      const double cycles_f =
          static_cast<double>(uops) / config_.base_ipc + cycle_carry_;
      const auto compute_cycles = static_cast<std::uint64_t>(cycles_f);
      cycle_carry_ = cycles_f - static_cast<double>(compute_cycles);
      advance_scaled(static_cast<double>(compute_cycles) *
                     static_cast<double>(period) / duty_);
      bank_->add(Event::kTotCyc, compute_cycles);
      speculate(uops);
    }
  }
}

// The three element shapes ExecutionContext batches.
template void CoreModel::repeat<true, false>(const AccessLatency&,
                                             const AccessLatency&,
                                             std::uint64_t, std::uint64_t);
template void CoreModel::repeat<false, true>(const AccessLatency&,
                                             const AccessLatency&,
                                             std::uint64_t, std::uint64_t);
template void CoreModel::repeat<true, true>(const AccessLatency&,
                                            const AccessLatency&,
                                            std::uint64_t, std::uint64_t);

void CoreModel::fetch_op(const AccessLatency& lat, std::uint32_t l1_hit_cycles) {
  // An L1I hit overlaps with decode; only the excess stalls the front end.
  const std::uint64_t stall =
      lat.cycles > l1_hit_cycles ? lat.cycles - l1_hit_cycles : 0;
  if (stall != 0 || lat.fixed_ps != 0) charge(stall, lat.fixed_ps);
}

void CoreModel::external_drain() {
  bank_->add(Event::kInsExec, config_.noise_replay_uops);
  charge(config_.noise_replay_uops, 0);
}

}  // namespace pcap::sim
