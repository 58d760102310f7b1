#include "sim/hierarchy.hpp"

namespace pcap::sim {

using pmu::Event;

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config,
                                 pmu::CounterBank& bank)
    : config_(config),
      bank_(bank),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      itlb_(config.itlb),
      dtlb_(config.dtlb),
      owned_l3_(std::make_unique<cache::Cache>(config.l3)),
      owned_dram_(std::make_unique<mem::Dram>(config.dram)),
      l3_(owned_l3_.get()),
      dram_(owned_dram_.get()) {}

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

std::uint64_t MemoryHierarchy::fast_span(Address addr, std::int64_t stride,
                                         std::uint64_t max_ops,
                                         AccessType type, AccessLatency& lat) {
  if (stride <= 0 || max_ops < 2) return 0;
  const bool is_fetch = type == AccessType::kFetch;
  cache::Cache& l1 = is_fetch ? l1i_ : l1d_;
  cache::Tlb& tlb = is_fetch ? itlb_ : dtlb_;
  const std::uint64_t line_bytes = l1.config().line_bytes;
  const std::uint64_t page_bytes = tlb.config().page_bytes;
  const std::uint64_t s = static_cast<std::uint64_t>(stride);

  // Distinct-sets precondition of the sweep probe/commit: the lines of one
  // page each map to their own L1 set. Holds for the default L1 geometry
  // (64 sets * 64 B = 4 KiB page); bail out (never silently mis-account)
  // for configs where it does not.
  if (l1.sets() * line_bytes < page_bytes) return 0;

  std::uint64_t line_step = 1;
  if (s > line_bytes) {
    // A stride that skips lines must land on a fixed line grid so the
    // probe can walk it; otherwise fall back to the per-line path.
    if (s % line_bytes != 0) return 0;
    line_step = s / line_bytes;
  }

  // Clamp the group to addr's page: one TLB entry then covers every op and
  // Tlb::note_hits accounts the whole group against it.
  const Address page_end = (addr & ~(page_bytes - 1)) + page_bytes;
  std::uint64_t n = (page_end - 1 - addr) / s + 1;
  if (n > max_ops) n = max_ops;
  if (n < 2) return 0;

  // Lines those ops touch, clamped to the probe scratch buffer.
  const Address first_line = l1.line_base(addr);
  constexpr std::uint64_t kMaxSweepLines = 64;
  std::uint64_t n_lines =
      ((addr + (n - 1) * s) - first_line) / (line_bytes * line_step) + 1;
  if (n_lines > kMaxSweepLines) n_lines = kMaxSweepLines;

  std::uint32_t hit_ways[kMaxSweepLines];
  const std::uint64_t hit_lines =
      l1.probe_line_sweep(addr, n_lines, line_step, hit_ways);
  if (hit_lines == 0) return 0;

  // Keep only the leading ops that land on the resident-line prefix; the
  // first op past it (a potential miss, with fills/evictions/prefetch the
  // sweep must not elide) goes through the full access() path next.
  const Address limit = first_line + hit_lines * line_step * line_bytes;
  const std::uint64_t ops_in_prefix = (limit - 1 - addr) / s + 1;
  if (ops_in_prefix < n) n = ops_in_prefix;
  if (n < 2) return 0;
  const std::uint64_t used_lines =
      ((addr + (n - 1) * s) - first_line) / (line_bytes * line_step) + 1;

  // Probe was pure; note_hits is the last gate that can fail, so a false
  // return still means "nothing changed".
  if (!tlb.note_hits(addr, n)) return 0;

  const bool is_store = type == AccessType::kStore;
  l1.commit_line_sweep(addr, used_lines, line_step, hit_ways, is_store,
                       n - used_lines);
  bank_.add(is_fetch ? Event::kL1Ica : Event::kL1Dca, n);
  lat.cycles = is_store ? 1 : config_.l1_hit_cycles;
  lat.fixed_ps = 0;
  return n;
}

std::uint64_t MemoryHierarchy::same_line_run(Address addr, std::int64_t stride,
                                             std::uint64_t remaining,
                                             std::uint32_t line_bytes) {
  if (remaining == 0) return 0;
  if (stride == 0) return remaining;
  const Address offset = addr & (line_bytes - 1);
  std::uint64_t room;
  if (stride > 0) {
    room = (line_bytes - 1 - offset) / static_cast<std::uint64_t>(stride);
  } else {
    room = offset / static_cast<std::uint64_t>(-stride);
  }
  return room < remaining ? room : remaining;
}

StreamLatency MemoryHierarchy::access_stream(Address base, std::int64_t stride,
                                             std::uint64_t count,
                                             AccessType type) {
  StreamLatency total;
  const std::uint32_t line_bytes = (type == AccessType::kFetch)
                                       ? l1i_.config().line_bytes
                                       : l1d_.config().line_bytes;

  Address addr = base;
  std::uint64_t i = 0;
  while (i < count) {
    // Whole-set sweep: a forward-strided run over resident lines is
    // accounted as one group spanning many lines (and their same-line
    // repeats). Falls through to the per-line path on the first line the
    // probe cannot prove resident.
    if (stride > 0) {
      AccessLatency span;
      const std::uint64_t done = fast_span(addr, stride, count - i, type, span);
      if (done > 0) {
        total.cycles += done * span.cycles;  // span.fixed_ps is always 0
        i += done;
        addr += static_cast<Address>(stride) * done;
        continue;
      }
    }
    // Leading access on each line takes the full path (it may miss, fill,
    // evict, prefetch, ...). The rest of the line's run is then a provable
    // MRU repeat unless the lead did not allocate (no-write-allocate miss).
    total.add(access(addr, type));
    ++i;
    std::uint64_t run = same_line_run(addr, stride, count - i, line_bytes);
    addr += static_cast<Address>(stride);
    while (run > 0) {
      AccessLatency rep;
      if (try_fast_repeat(addr, type, run, rep)) {
        total.cycles += run * rep.cycles;  // rep.fixed_ps is always 0
        i += run;
        addr += static_cast<Address>(stride) * run;
        run = 0;
      } else {
        total.add(access(addr, type));
        ++i;
        --run;
        addr += static_cast<Address>(stride);
      }
    }
  }
  return total;
}

AccessLatency MemoryHierarchy::access(Address addr, AccessType type) {
  AccessLatency lat;
  if (try_fast_access(addr, type, lat)) return lat;
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

void MemoryHierarchy::set_l3_ways(std::uint32_t n) {
  if (n < l3_->active_ways()) {
    // The reconfiguration drops inclusive lines; conservatively flush the
    // inner levels so inclusion holds (models the reconfig disruption).
    l3_->set_active_ways(n);
    l2_.flush_all();
    l1d_.flush_all();
    l1i_.flush_all();
  } else {
    l3_->set_active_ways(n);
  }
}

void MemoryHierarchy::set_l2_ways(std::uint32_t n) { l2_.set_active_ways(n); }

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
  l1i_.flush_all();
  l1d_.flush_all();
  l2_.flush_all();
  l3_->flush_all();
}

}  // namespace pcap::sim
