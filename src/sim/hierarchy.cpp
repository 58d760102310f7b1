#include "sim/hierarchy.hpp"

namespace pcap::sim {

using pmu::Event;

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config,
                                 pmu::CounterBank& bank,
                                 cache::Cache& shared_l3,
                                 mem::Dram& shared_dram)
    : config_(config),
      bank_(bank),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      itlb_(config.itlb),
      dtlb_(config.dtlb),
      l3_(&shared_l3),
      dram_(&shared_dram) {}

void MemoryHierarchy::back_invalidate(Address line) {
  l2_.invalidate(line);
  l1d_.invalidate(line);
  l1i_.invalidate(line);
}

bool MemoryHierarchy::try_fast_repeat(Address addr, AccessType type,
                                      std::uint64_t n, AccessLatency& lat) {
  const bool is_fetch = type == AccessType::kFetch;
  cache::Cache& l1 = is_fetch ? l1i_ : l1d_;
  if (!l1.is_mru_hit(addr)) return false;
  cache::Tlb& tlb = is_fetch ? itlb_ : dtlb_;
  if (!tlb.note_hits(addr, n)) return false;
  const bool is_store = type == AccessType::kStore;
  l1.note_mru_hits(addr, is_store, n);
  bank_.add(is_fetch ? Event::kL1Ica : Event::kL1Dca, n);
  lat.cycles = is_store ? 1 : config_.l1_hit_cycles;
  lat.fixed_ps = 0;
  return true;
}

AccessLatency MemoryHierarchy::access(Address addr, AccessType type) {
  AccessLatency lat;
  const bool is_fetch = type == AccessType::kFetch;
  const bool is_store = type == AccessType::kStore;

  // Address translation.
  if (is_fetch) {
    if (!itlb_.lookup(addr)) {
      bank_.add(Event::kTlbIm);
      lat.cycles += config_.tlb_walk_cycles;
    }
  } else {
    if (!dtlb_.lookup(addr)) {
      bank_.add(Event::kTlbDm);
      lat.cycles += config_.tlb_walk_cycles;
    }
  }

  // First level.
  cache::Cache& l1 = is_fetch ? l1i_ : l1d_;
  bank_.add(is_fetch ? Event::kL1Ica : Event::kL1Dca);
  const std::uint64_t walk_cycles = lat.cycles;
  lat.cycles += config_.l1_hit_cycles;
  if (l1.access(addr, is_store).hit) {
    // Stores to resident lines drain through the store buffer off the
    // critical path: retire costs a single cycle (plus any walk).
    if (is_store) lat.cycles = walk_cycles + 1;
    return lat;
  }
  bank_.add(is_fetch ? Event::kL1Icm : Event::kL1Dcm);

  // Unified L2.
  bank_.add(Event::kL2Tca);
  lat.cycles += config_.l2_extra_cycles;
  if (l2_.access(addr, is_store).hit) return lat;
  bank_.add(Event::kL2Tcm);

  // Shared inclusive L3.
  bank_.add(Event::kL3Tca);
  lat.cycles += config_.l3_extra_cycles;
  const auto l3_outcome = l3_->access(addr, is_store);
  if (l3_outcome.evicted) back_invalidate(l3_outcome.evicted_line);
  if (l3_outcome.hit) return lat;
  bank_.add(Event::kL3Tcm);

  // Memory.
  bank_.add(Event::kDramAcc);
  lat.fixed_ps += dram_->access(l3_->line_base(addr));

  // Next-line prefetch: pulled in off the critical path (no latency charge
  // to the triggering access), but the fills are architecturally real --
  // they occupy L2/L3 ways and their DRAM traffic is power-visible.
  if (config_.prefetch_enabled && !is_fetch) {
    const Address line = l3_->line_base(addr);
    for (std::uint32_t i = 1; i <= config_.prefetch_depth; ++i) {
      const Address next =
          line + static_cast<Address>(i) * config_.l3.line_bytes;
      if (l2_.contains(next)) continue;
      bank_.add(Event::kL2Pf);
      if (!l3_->contains(next)) {
        bank_.add(Event::kDramAcc);
        dram_->access(next);  // row-buffer state advances; latency hidden
        const auto outcome = l3_->access(next, false);
        if (outcome.evicted) back_invalidate(outcome.evicted_line);
      }
      l2_.access(next, false);
    }
  }
  return lat;
}

void MemoryHierarchy::flush_tlbs() {
  itlb_.flush();
  dtlb_.flush();
}

void MemoryHierarchy::flush_private() {
  l1i_.flush_all();
  l1d_.flush_all();
  l2_.flush_all();
}

void MemoryHierarchy::flush_caches() {
  flush_private();
  l3_->flush_all();
}

}  // namespace pcap::sim
