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
// and ages every line younger than it; a fill ages every line (saturating
// at 254) and installs at age 0. The victim of a full set is the valid
// active way with the greatest age, and among tied ways the HIGHEST way
// index. Ages are distinct (true LRU) until something makes them tie:
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
// Storage is one 64-byte control line per set (SetCtl: ages, 8-bit partial
// tags, valid and dirty bitmasks, the MRU way) plus a flat full-tag array,
// row-major by set. A probe compares the set's partial tags in one SSE2
// group match (the SwissTable idiom), masks the result with the valid and
// active-way bits and confirms each candidate against the full tag, so a
// lookup touches the control line and, on a candidate, one tag line.
//
// Unspecified ages. The age loops run over all kMaxWays lanes with a fixed
// trip count and no validity gate, and set_active_ways clamps every lane,
// so the age of an invalid or gated way is unspecified. That is safe
// because every age read is gated by a valid bit (the MRU checks, the hit
// touch, the victim choice of a full set) or follows the fill that resets
// the way's age to 0. The ages of valid lines are exactly those of the
// validity-gated loops this layout replaced (tests/test_cache_reference.cpp
// drives the frozen struct-of-arrays cache in lockstep).
//
// Both arrays use util::ZeroPageCellAllocator (DESIGN.md §17). A per-cell
// cache, built under a CellArenaScope, draws them from the recycled arena:
// the constructor clears the control lines and leaves the valid-gated tags
// as the last cell left them. A long-lived cache gets zero pages: an
// all-zero control line is an empty set, so neither array is written at
// construction and the host backs only the pages a simulation touches.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
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

/// Result of one cache access. Sixteen trivially copyable bytes, so it is
/// returned in two registers rather than through memory.
struct AccessOutcome {
  bool hit = false;
  /// A fill evicted a valid line; evicted_line and evicted_dirty describe
  /// it (both are zero otherwise).
  bool evicted = false;
  bool evicted_dirty = false;
  Address evicted_line = 0;
};
static_assert(sizeof(AccessOutcome) == 16 &&
              std::is_trivially_copyable_v<AccessOutcome>);

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
  /// Ways one control line holds.
  static constexpr std::uint32_t kMaxWays = 24;

  /// Throws std::invalid_argument if the geometry is inconsistent
  /// (non-power-of-two line size, size not divisible by line*ways, more
  /// than kMaxWays ways, ...).
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

  /// The probe's 8-bit prefilter: a hash of the tag bits above the set
  /// index. Public so tests can build lines whose partial tags collide.
  std::uint8_t partial_tag(Address addr) const {
    return static_cast<std::uint8_t>(((addr >> set_shift_) *
                                      0x9E3779B97F4A7C15ull) >> 56);
  }

 private:
  // One set's replacement state in one host cache line. ptag and age sit at
  // 16-byte boundaries so each is one 16-byte plus one 8-byte lane group.
  // Trivial, so default-insertion writes nothing: all-zero bytes are an
  // empty set, which is what zero pages and the arena memset provide.
  struct alignas(64) SetCtl {
    std::uint8_t ptag[kMaxWays];  // partial tag per way (valid ways only)
    std::uint32_t valid;          // bit w: way w holds a line
    std::uint32_t dirty;          // bit w: that line is dirty
    std::uint8_t age[kMaxWays];   // LRU age per way (valid ways only)
    // The way of the last hit or fill. Purely an accelerator: every use
    // re-checks its valid bit and tag, so a stale hint is never trusted.
    std::uint32_t mru;
  };
  static_assert(sizeof(SetCtl) == 64 &&
                std::is_trivially_default_constructible_v<SetCtl>);

  std::uint64_t set_index(Address addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  Address tag_of(Address addr) const { return addr >> line_shift_; }
  Address addr_of(Address tag) const { return tag << line_shift_; }
  /// Way `w` of `ctl` holds a line and is active.
  bool live(const SetCtl& ctl, std::uint32_t w) const {
    return ((ctl.valid & active_mask_) >> w & 1u) != 0;
  }
  /// Way of the set `ctl` (full tags `tags`) holding `addr` in a valid
  /// active way, or kMaxWays when absent.
  std::uint32_t find_way(const SetCtl& ctl, const Address* tags,
                         Address addr) const;

  CacheConfig config_;
  std::uint64_t sets_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_shift_ = 0;  // line_shift_ + log2(sets_)
  std::uint64_t line_mask_ = 0;
  std::uint32_t active_ways_ = 0;
  std::uint32_t active_mask_ = 0;  // bits [0, active_ways_)
  // sets_ control lines, zero at construction. Valid bits are only ever
  // set for active ways: set_active_ways clears the gated ways' bits.
  std::vector<SetCtl, util::ZeroPageCellAllocator<SetCtl>> ctl_;
  // sets_ * ways full tags, row-major by set. Read only behind a valid bit,
  // so under a cell arena they are left uninitialised (util/arena.hpp).
  std::vector<Address, util::ZeroPageCellAllocator<Address>> tags_;
  CacheStats stats_;
};

}  // namespace pcap::cache
