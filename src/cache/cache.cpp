#include "cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace pcap::cache {

namespace {

// Lane kernels over one control line's kMaxWays byte lanes (partial tags
// or ages). The two that reduce lanes to a bitmask use a 16-byte plus an
// 8-byte SSE2 group (the 8-byte loads never reach past lane 23), with a
// plain loop where SSE2 is absent; the compiler vectorises the lane-wise
// age loops by itself.
constexpr std::uint32_t kLanes = Cache::kMaxWays;

#if defined(__SSE2__)
__m128i load_lo(const std::uint8_t* lanes) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes));
}
__m128i load_hi(const std::uint8_t* lanes) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + 16));
}
std::uint32_t movemask(__m128i lo, __m128i hi) {
  return static_cast<std::uint32_t>(_mm_movemask_epi8(lo)) |
         (static_cast<std::uint32_t>(_mm_movemask_epi8(hi)) & 0xFFu) << 16;
}
#endif

/// Bit w set when lanes[w] == value.
std::uint32_t match_lanes(const std::uint8_t* lanes, std::uint8_t value) {
#if defined(__SSE2__)
  const __m128i v = _mm_set1_epi8(static_cast<char>(value));
  return movemask(_mm_cmpeq_epi8(load_lo(lanes), v),
                  _mm_cmpeq_epi8(load_hi(lanes), v));
#else
  std::uint32_t mask = 0;
  for (std::uint32_t w = 0; w < kLanes; ++w) {
    mask |= static_cast<std::uint32_t>(lanes[w] == value) << w;
  }
  return mask;
#endif
}

/// Ages every lane younger than `bound` by one step.
void age_lanes_below(std::uint8_t* age, std::uint8_t bound) {
  for (std::uint32_t w = 0; w < kLanes; ++w) age[w] += age[w] < bound;
}

/// Clamps every lane to at most `cap`.
void clamp_lanes(std::uint8_t* age, std::uint8_t cap) {
  for (std::uint32_t w = 0; w < kLanes; ++w) age[w] = std::min(age[w], cap);
}

/// Bit w set when lane w holds the maximum over lanes [0, ways).
std::uint32_t oldest_lanes(const std::uint8_t* age, std::uint32_t ways) {
  const std::uint32_t in_range = (1u << ways) - 1;
#if defined(__SSE2__)
  // Zero the lanes at or above `ways`, then reduce to the maximum.
  const __m128i n = _mm_set1_epi8(static_cast<char>(ways));
  const __m128i lo = _mm_and_si128(
      load_lo(age),
      _mm_cmplt_epi8(_mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15),
                     n));
  const __m128i hi = _mm_and_si128(
      load_hi(age),
      _mm_cmplt_epi8(_mm_setr_epi8(16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
                                   26, 27, 28, 29, 30, 31),
                     n));
  __m128i m = _mm_max_epu8(lo, hi);
  m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
  const __m128i oldest = _mm_set1_epi8(static_cast<char>(_mm_cvtsi128_si32(m)));
  return movemask(_mm_cmpeq_epi8(lo, oldest), _mm_cmpeq_epi8(hi, oldest)) &
         in_range;
#else
  std::uint8_t oldest = 0;
  for (std::uint32_t w = 0; w < ways; ++w) oldest = std::max(oldest, age[w]);
  return match_lanes(age, oldest) & in_range;
#endif
}

/// The LRU touch of way `way`: every younger lane ages one step and the
/// way becomes age 0.
void touch(std::uint8_t* age, std::uint32_t way) {
  age_lanes_below(age, age[way]);
  age[way] = 0;
}

}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  if (config.line_bytes == 0 || !std::has_single_bit(config.line_bytes)) {
    throw std::invalid_argument("Cache: line size must be a power of two");
  }
  if (config.ways == 0) {
    throw std::invalid_argument("Cache: need at least one way");
  }
  if (config.ways > kMaxWays) {
    throw std::invalid_argument("Cache: at most 24 ways");
  }
  const std::uint64_t line_way = static_cast<std::uint64_t>(config.line_bytes) * config.ways;
  if (config.size_bytes == 0 || config.size_bytes % line_way != 0) {
    throw std::invalid_argument("Cache: size must be a multiple of line*ways");
  }
  sets_ = config.size_bytes / line_way;
  if (!std::has_single_bit(sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  set_mask_ = sets_ - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  set_shift_ =
      line_shift_ + static_cast<std::uint32_t>(std::countr_zero(sets_));
  line_mask_ = config.line_bytes - 1;
  active_ways_ = config.ways;
  active_mask_ = (1u << config.ways) - 1;
  // Default-inserted, so neither resize writes a byte. Off the arena both
  // arrays are zero pages. An arena block holds an earlier cell's bytes:
  // clear the control lines, and leave the tags, whose every read is
  // valid-gated (zeroing megabytes of L3 tags would dominate per-cell
  // construction).
  ctl_.resize(sets_);
  tags_.resize(sets_ * config.ways);
  if (ctl_.get_allocator().arena() != nullptr) {
    std::memset(ctl_.data(), 0, sets_ * sizeof(SetCtl));
  }
}

std::uint32_t Cache::find_way(const SetCtl& ctl, const Address* tags,
                              Address addr) const {
  const Address tag = tag_of(addr);
  std::uint32_t candidates =
      match_lanes(ctl.ptag, partial_tag(addr)) & ctl.valid & active_mask_;
  for (; candidates != 0; candidates &= candidates - 1) {
    const auto w = static_cast<std::uint32_t>(std::countr_zero(candidates));
    if (tags[w] == tag) return w;
  }
  return kMaxWays;
}

bool Cache::is_mru_hit(Address addr) const {
  const std::uint64_t set = set_index(addr);
  const SetCtl& ctl = ctl_[set];
  const std::uint32_t w = ctl.mru;
  return live(ctl, w) && ctl.age[w] == 0 &&
         tags_[set * config_.ways + w] == tag_of(addr);
}

bool Cache::note_mru_hits(Address addr, bool is_write, std::uint64_t n) {
  if (!is_mru_hit(addr)) return false;
  stats_.accesses += n;
  stats_.hits += n;
  SetCtl& ctl = ctl_[set_index(addr)];
  if (is_write && n != 0) ctl.dirty |= 1u << ctl.mru;
  return true;
}

AccessOutcome Cache::access(Address addr, bool is_write) {
  ++stats_.accesses;
  const std::uint64_t set = set_index(addr);
  const Address tag = tag_of(addr);
  Address* const tags = tags_.data() + set * config_.ways;
  // Start the tag row's host miss before the control line's: a large
  // cache's rows do not stay in the host's caches, and every tag read
  // below would otherwise wait for the control line first.
  __builtin_prefetch(tags);
  SetCtl& ctl = ctl_[set];

  // Fast path: repeat hit on the set's MRU line. touch() would be a no-op
  // (every other line is already older), so skip the probe and aging.
  const std::uint32_t hint = ctl.mru;
  if (live(ctl, hint) && ctl.age[hint] == 0 && tags[hint] == tag) {
    if (is_write) ctl.dirty |= 1u << hint;
    ++stats_.hits;
    return {.hit = true};
  }

  const std::uint32_t way = find_way(ctl, tags, addr);
  if (way != kMaxWays) {
    touch(ctl.age, way);
    ctl.mru = way;
    if (is_write) ctl.dirty |= 1u << way;
    ++stats_.hits;
    return {.hit = true};
  }

  ++stats_.misses;
  if (is_write && !config_.write_allocate) return {};

  // Victim: the lowest invalid active way if any, else the highest active
  // way of the greatest age.
  AccessOutcome outcome;
  const std::uint32_t free = ~ctl.valid & active_mask_;
  const auto victim = static_cast<std::uint32_t>(
      free != 0 ? std::countr_zero(free)
                : 31 - std::countl_zero(oldest_lanes(ctl.age, active_ways_)));
  if (free == 0) {
    outcome.evicted = true;
    outcome.evicted_dirty = (ctl.dirty >> victim & 1u) != 0;
    outcome.evicted_line = addr_of(tags[victim]);
    ++stats_.evictions;
  }
  // A fill makes the new line MRU: every line ages by one step, saturating
  // at 254.
  age_lanes_below(ctl.age, 254);
  const std::uint32_t bit = 1u << victim;
  tags[victim] = tag;
  ctl.ptag[victim] = partial_tag(addr);
  ctl.age[victim] = 0;
  ctl.valid |= bit;
  ctl.dirty = is_write ? ctl.dirty | bit : ctl.dirty & ~bit;
  ctl.mru = victim;
  return outcome;
}

bool Cache::contains(Address addr) const {
  const std::uint64_t set = set_index(addr);
  return find_way(ctl_[set], tags_.data() + set * config_.ways, addr) !=
         kMaxWays;
}

bool Cache::invalidate(Address addr, bool* was_dirty) {
  const std::uint64_t set = set_index(addr);
  SetCtl& ctl = ctl_[set];
  const std::uint32_t w =
      find_way(ctl, tags_.data() + set * config_.ways, addr);
  if (w == kMaxWays) return false;
  if (was_dirty != nullptr) *was_dirty = (ctl.dirty >> w & 1u) != 0;
  ctl.valid &= ~(1u << w);
  ctl.dirty &= ~(1u << w);
  ++stats_.invalidations;
  return true;
}

void Cache::flush_all() {
  // An empty set is skipped unwritten (dirty bits are a subset of valid
  // ones), so a flush does not make an untouched zero page resident.
  for (SetCtl& ctl : ctl_) {
    if (ctl.valid == 0) continue;
    stats_.invalidations +=
        static_cast<std::uint64_t>(std::popcount(ctl.valid));
    ctl.valid = 0;
    ctl.dirty = 0;
  }
}

std::uint64_t Cache::set_active_ways(std::uint32_t n) {
  n = std::clamp<std::uint32_t>(n, 1, config_.ways);
  std::uint64_t dropped = 0;
  if (n < active_ways_) {
    // Invalidate lines living in the ways being gated, and clamp ages so
    // surviving lines keep a consistent LRU order. An empty set has no age
    // anyone reads, so it is skipped unwritten, as in flush_all.
    const std::uint32_t keep = (1u << n) - 1;
    const auto cap = static_cast<std::uint8_t>(n - 1);
    for (SetCtl& ctl : ctl_) {
      if (ctl.valid == 0) continue;
      dropped += static_cast<std::uint64_t>(std::popcount(ctl.valid & ~keep));
      ctl.valid &= keep;
      ctl.dirty &= keep;
      clamp_lanes(ctl.age, cap);
    }
    stats_.invalidations += dropped;
  }
  active_ways_ = n;
  active_mask_ = (1u << n) - 1;
  return dropped;
}

std::uint64_t Cache::valid_lines() const {
  std::uint64_t count = 0;
  for (const SetCtl& ctl : ctl_) {
    count += static_cast<std::uint64_t>(std::popcount(ctl.valid));
  }
  return count;
}

std::vector<Address> Cache::valid_line_addresses() const {
  std::vector<Address> addresses;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    const Address* const tags = tags_.data() + set * config_.ways;
    for (std::uint32_t m = ctl_[set].valid; m != 0; m &= m - 1) {
      addresses.push_back(addr_of(tags[std::countr_zero(m)]));
    }
  }
  return addresses;
}

}  // namespace pcap::cache
