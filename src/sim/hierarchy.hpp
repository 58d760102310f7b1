// One core's view of the memory hierarchy: ITLB/DTLB -> L1I/L1D -> unified
// L2, which it owns, over the inclusive shared L3 and the DRAM, which the
// node owns (sim::PackagePlatform) and every core's view borrows. Accounts
// each access into the core's PMU counter bank. The BMC's L2 and TLB gating
// act on the private levels here; L3-way and DRAM gating act on the shared
// ones and so live on the node.
#pragma once

#include <cstdint>

#include "cache/cache.hpp"
#include "cache/tlb.hpp"
#include "mem/dram.hpp"
#include "pmu/counters.hpp"
#include "sim/machine_config.hpp"
#include "util/units.hpp"

namespace pcap::sim {

using Address = cache::Address;

enum class AccessType { kLoad, kStore, kFetch };

/// Cost of one access: core cycles (scale with the core clock) plus a
/// wall-clock component (DRAM, which does not scale with DVFS).
struct AccessLatency {
  std::uint64_t cycles = 0;
  util::Picoseconds fixed_ps = 0;
};

class MemoryHierarchy {
 public:
  /// Owns the core-private levels (L1I/L1D/L2/TLBs) and borrows the shared
  /// `l3` and `dram`, which must outlive this object.
  MemoryHierarchy(const HierarchyConfig& config, pmu::CounterBank& bank,
                  cache::Cache& shared_l3, mem::Dram& shared_dram);

  /// Performs one access, updating caches/TLBs and the counter bank. A TLB
  /// hit plus an L1 MRU hit costs one TLB find and one MRU probe here, so
  /// there is no separate single-access fast path.
  AccessLatency access(Address addr, AccessType type);

  /// Bulk fast path: when `addr` is a provable TLB hit plus L1 MRU hit,
  /// accounts `n` back-to-back accesses to its line (PMU and structural
  /// stats) exactly as `n` access() calls would and returns true with `lat`
  /// the (identical) per-access latency. Accounts nothing and returns false
  /// otherwise; the caller then takes the access() path.
  ///
  /// SMP legality: the provable-hit precondition and the accounting touch
  /// only core-private state (L1 MRU way, the matching TLB entry, this
  /// core's counter bank) — never the shared L3 or a DRAM row buffer. A
  /// bulk group can therefore never elide an interference point a
  /// co-runner could observe: any access that would reach the shared
  /// levels fails the precondition and takes the full access() path.
  bool try_fast_repeat(Address addr, AccessType type, std::uint64_t n,
                       AccessLatency& lat);

  // --- private-level gating actuators (BMC escalation ladder) ---
  void set_l2_ways(std::uint32_t n) { l2_.set_active_ways(n); }
  void set_itlb_entries(std::uint32_t n) { itlb_.set_active_entries(n); }
  void set_dtlb_entries(std::uint32_t n) { dtlb_.set_active_entries(n); }

  std::uint32_t l2_ways() const { return l2_.active_ways(); }
  std::uint32_t itlb_entries() const { return itlb_.active_entries(); }
  std::uint32_t dtlb_entries() const { return dtlb_.active_entries(); }

  /// OS-noise hook: a context switch evicts translations.
  void flush_tlbs();
  /// Flushes the private levels and the shared L3.
  void flush_caches();
  /// Flushes only the private levels (an L3 shrink keeps inclusion so).
  void flush_private();

  // --- component access for tests and stats ---
  const cache::Cache& l1i() const { return l1i_; }
  const cache::Cache& l1d() const { return l1d_; }
  const cache::Cache& l2() const { return l2_; }
  const cache::Cache& l3() const { return *l3_; }
  const cache::Tlb& itlb() const { return itlb_; }
  const cache::Tlb& dtlb() const { return dtlb_; }
  const mem::Dram& dram() const { return *dram_; }

  const HierarchyConfig& config() const { return config_; }

 private:
  /// Invalidate an L3-evicted line from the inner levels (inclusive L3).
  void back_invalidate(Address line);

  HierarchyConfig config_;
  pmu::CounterBank& bank_;
  cache::Cache l1i_;
  cache::Cache l1d_;
  cache::Cache l2_;
  cache::Tlb itlb_;
  cache::Tlb dtlb_;
  // Shared levels, owned by the node.
  cache::Cache* l3_;
  mem::Dram* dram_;
};

}  // namespace pcap::sim
