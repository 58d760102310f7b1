// Memory-aware OS-side DVFS governor — the in-band counterpart to the BMC's
// out-of-band capping, for the "what saves energy?" comparison the paper's
// §II-B motivates.
//
// Policy: when the core is stalled on memory most of the time, frequency is
// wasted (the DRAM does not speed up with the core clock), so step the
// P-state down; when the workload turns compute-bound, race back up. Unlike
// the BMC it has no power target and no ladder below DVFS — it trades a
// small, bounded slowdown for genuine energy savings on memory-bound
// phases, where capping can only ever lose energy (race-to-idle ablation).
#pragma once

#include <cstdint>

#include "sim/platform_control.hpp"

namespace pcap::core {

class MemoryAwareGovernor {
 public:
  explicit MemoryAwareGovernor(sim::PlatformControl& platform);

  /// Decision step; wire into Node::set_control_hook.
  void on_tick();

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t downshifts() const { return downshifts_; }
  std::uint64_t upshifts() const { return upshifts_; }

 private:
  sim::PlatformControl* platform_;
  std::uint64_t decisions_ = 0;
  std::uint64_t downshifts_ = 0;
  std::uint64_t upshifts_ = 0;
};

}  // namespace pcap::core
