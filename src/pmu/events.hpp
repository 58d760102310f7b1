// Hardware performance event identifiers, mirroring the PAPI preset events
// the paper collected on the Romley platform (PAPI_TOT_CYC, PAPI_L2_TCM,
// PAPI_TLB_IM, ...).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pcap::pmu {

enum class Event : std::uint32_t {
  kTotCyc = 0,   // total core cycles (including duty-gated stall cycles)
  kTotIns,       // instructions committed (architecturally retired)
  kInsExec,      // instructions executed, incl. mis-speculated work
  kLdIns,        // load instructions executed
  kSrIns,        // store instructions executed
  kBrIns,        // branch instructions committed
  kBrMsp,        // branches mispredicted
  kL1Dca,        // L1 data cache accesses
  kL1Dcm,        // L1 data cache misses
  kL1Ica,        // L1 instruction cache accesses
  kL1Icm,        // L1 instruction cache misses
  kL2Tca,        // L2 total accesses
  kL2Tcm,        // L2 total misses
  kL3Tca,        // L3 total accesses
  kL3Tcm,        // L3 total misses
  kTlbDm,        // data TLB misses
  kTlbIm,        // instruction TLB misses
  kDramAcc,      // DRAM accesses (L3 misses reaching memory)
  kL2Pf,         // prefetches issued into the L2
  kStallCyc,     // cycles lost to memory stalls
  kCount,
};

inline constexpr std::size_t kEventCount = static_cast<std::size_t>(Event::kCount);

constexpr std::size_t index_of(Event e) { return static_cast<std::size_t>(e); }

inline constexpr std::array<Event, kEventCount> all_events() {
  std::array<Event, kEventCount> events{};
  for (std::size_t i = 0; i < kEventCount; ++i) {
    events[i] = static_cast<Event>(i);
  }
  return events;
}

}  // namespace pcap::pmu
