// Set-associative cache model with age-based LRU replacement and way gating.
//
// The model is purely structural: it answers hit/miss and reports evictions;
// latency and power are composed by the memory hierarchy and power model.
// Way gating (set_active_ways) implements the dynamic cache reconfiguration
// mechanism the paper hypothesises is engaged at low power caps: gated ways
// are invalidated and excluded from allocation, shrinking effective capacity
// and associativity while saving leakage power.
//
// Replacement keeps a uint8_t age per way: a hit moves its line to age 0
// and ages every valid line younger than it; a fill ages every valid line
// (saturating at 254) and installs at age 0. The victim of a full set is
// the valid active way with the greatest age, and among tied ways the
// HIGHEST way index. Ages are distinct (true LRU) until something makes
// them tie:
//   * set_active_ways(n) clamps the survivors' ages to n - 1, so several
//     survivors can share age n - 1;
//   * a set that keeps filling one way while the others stay untouched
//     pins those others at the 254 cap.
// Every capped cell gates ways, so the golden outputs depend on this
// tie-break. Per-set recency stamps (true LRU) would evict the oldest of
// the tied lines instead and are therefore not output-equivalent
// (Cache.GatingClampTieEvictsHighestTiedWay and
// Cache.SaturatedAgeTieEvictsHighestTiedWay pin both cases).
//
// Storage is struct-of-arrays (tags / ages / valid / dirty as parallel
// flat arrays, row-major by set): the whole-set sweep kernels walk the tag
// array with a branch-free way-compare loop the compiler can vectorise,
// and the arrays draw from the per-cell arena (util::CellAllocator) when a
// chunk simulation builds the cache under a CellArenaScope (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/arena.hpp"

namespace pcap::cache {

using Address = std::uint64_t;

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;   // power of two
  std::uint32_t ways = 8;          // associativity
  bool write_allocate = true;

  std::uint64_t sets() const { return size_bytes / (line_bytes * ways); }
};

/// Result of one cache access.
struct AccessOutcome {
  bool hit = false;
  /// When a fill evicted a valid line, its base address.
  std::optional<Address> evicted_line;
  bool evicted_dirty = false;
};

/// Structural statistics (separate from the PMU, which the hierarchy feeds).
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses)
                    : 0.0;
  }
};

class Cache {
 public:
  /// Throws std::invalid_argument if the geometry is inconsistent
  /// (non-power-of-two line size, size not divisible by line*ways, ...).
  explicit Cache(const CacheConfig& config);

  const CacheConfig& config() const { return config_; }
  std::uint64_t sets() const { return sets_; }
  std::uint32_t active_ways() const { return active_ways_; }

  /// Looks up `addr`; on miss, allocates (for reads always; for writes only
  /// if write_allocate). Returns the outcome including any eviction.
  AccessOutcome access(Address addr, bool is_write);

  /// True when the line holding `addr` is resident in an active way and is
  /// its set's most-recently-used line, i.e. another access would be a pure
  /// hit whose LRU touch is a no-op. No state or statistics change.
  bool is_mru_hit(Address addr) const;

  /// Accounts `n` repeat hits on the MRU line holding `addr` without
  /// re-walking the set: by definition the LRU state cannot change, so only
  /// statistics (and the dirty bit for writes) move. Verifies the MRU
  /// precondition itself and returns false having accounted nothing if it
  /// does not hold — callers then fall back to access().
  bool note_mru_hits(Address addr, bool is_write, std::uint64_t n);

  /// Whole-set sweep probe: for the `n_lines` lines starting at the line of
  /// `addr` and advancing `line_step` lines each, counts how many of the
  /// LEADING lines are resident in an active way, writing the hit way per
  /// line into `hit_ways`. Non-mutating (no statistics, no LRU motion), so
  /// the caller may probe first and decide later. The swept lines must map
  /// to distinct sets (n_lines * line_step <= sets(); the hierarchy keeps
  /// sweeps within one page, which guarantees it for L1 geometries).
  std::uint64_t probe_line_sweep(Address addr, std::uint64_t n_lines,
                                 std::uint64_t line_step,
                                 std::uint32_t* hit_ways) const;

  /// Commits a sweep of `n_lines` resident lines the caller proved with
  /// probe_line_sweep: per line, leaves exactly the state one access()
  /// hit leaves (LRU touch unless the line is already its set's MRU, the
  /// per-set MRU hint, the dirty bit for writes) and counts one hit.
  /// `extra_hits` additionally accounts that many pure MRU repeat hits
  /// (statistics only — the per-line repeats of a strided stream). The
  /// distinct-sets precondition of the probe applies.
  void commit_line_sweep(Address addr, std::uint64_t n_lines,
                         std::uint64_t line_step,
                         const std::uint32_t* hit_ways, bool is_write,
                         std::uint64_t extra_hits);

  /// True if the line containing addr is present (no LRU update).
  bool contains(Address addr) const;

  /// Invalidates the line containing addr if present. Returns true if a
  /// valid line was dropped; sets `was_dirty` accordingly when non-null.
  bool invalidate(Address addr, bool* was_dirty = nullptr);

  /// Drops every valid line.
  void flush_all();

  /// Gates ways [n, ways): their lines are invalidated and they are excluded
  /// from hits and allocation until re-enabled. n is clamped to [1, ways].
  /// Returns the number of valid lines dropped.
  std::uint64_t set_active_ways(std::uint32_t n);

  /// Number of currently valid lines (for capacity assertions in tests).
  std::uint64_t valid_lines() const;

  /// Base addresses of every valid line (tests: inclusion invariants).
  std::vector<Address> valid_line_addresses() const;

  /// Effective capacity with the current gating, in bytes.
  std::uint64_t effective_size_bytes() const {
    return sets_ * active_ways_ * config_.line_bytes;
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  Address line_base(Address addr) const { return addr & ~line_mask_; }

 private:
  std::uint64_t set_index(Address addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  Address tag_of(Address addr) const { return addr >> line_shift_; }
  Address addr_of(Address tag) const { return tag << line_shift_; }
  /// Way holding `addr` in an active way, or active_ways_ when absent.
  std::uint32_t find_way(Address addr) const;
  void touch(std::uint64_t set, std::uint32_t way);

  CacheConfig config_;
  std::uint64_t sets_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint64_t line_mask_ = 0;
  std::uint32_t active_ways_ = 0;
  // SoA line state, each sets_ * ways, row-major by set (the sweep compare
  // loop always pairs a tag read with its validity byte, so stale tags in
  // invalidated ways are never trusted). The arrays draw from the ambient
  // cell arena when one is installed. tags/age/dirty are deliberately left
  // uninitialised when constructed under an arena: every use of them is
  // gated by valid_ (which IS zeroed; the branch-free age loops read an
  // invalid way's age but mask its increment to zero), so their initial
  // contents are unobservable and the multi-megabyte zero-fill of an L3's
  // metadata would be pure cost on the per-cell construction path.
  std::vector<Address, util::UninitCellAllocator<Address>> tags_;
  std::vector<std::uint8_t, util::UninitCellAllocator<std::uint8_t>> age_;
  std::vector<std::uint8_t, util::CellAllocator<std::uint8_t>> valid_;
  std::vector<std::uint8_t, util::UninitCellAllocator<std::uint8_t>> dirty_;
  // Per-set hint: the way of the last hit or fill. Purely an accelerator —
  // a stale hint is caught by the validity/tag/age checks, never trusted.
  std::vector<std::uint32_t, util::CellAllocator<std::uint32_t>> mru_way_;
  CacheStats stats_;
};

}  // namespace pcap::cache
