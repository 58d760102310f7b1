#include "core/governor.hpp"

#include <algorithm>

namespace pcap::core {

namespace {

/// Stall fraction above which the clock steps down.
constexpr double kHighStall = 0.45;
/// Stall fraction below which the clock races back toward P0.
constexpr double kLowStall = 0.25;
/// P-state steps per decision in each direction.
constexpr std::uint32_t kDownStep = 1;
constexpr std::uint32_t kUpStep = 4;
/// Deepest P-state the governor may select (it never duty-cycles or
/// reconfigures caches — those are capping mechanisms).
constexpr std::uint32_t kMaxPstate = 15;

}  // namespace

MemoryAwareGovernor::MemoryAwareGovernor(sim::PlatformControl& platform)
    : platform_(&platform) {}

void MemoryAwareGovernor::on_tick() {
  ++decisions_;
  const double stall = platform_->memory_stall_fraction();
  const std::uint32_t current = platform_->pstate();
  const std::uint32_t deepest =
      std::min(kMaxPstate, platform_->pstate_count() - 1);

  if (stall > kHighStall && current < deepest) {
    platform_->set_pstate(std::min(current + kDownStep, deepest));
    ++downshifts_;
  } else if (stall < kLowStall && current > 0) {
    platform_->set_pstate(current > kUpStep ? current - kUpStep : 0);
    ++upshifts_;
  }
}

}  // namespace pcap::core
