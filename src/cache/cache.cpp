#include "cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pcap::cache {

Cache::Cache(const CacheConfig& config) : config_(config) {
  if (config.line_bytes == 0 || !std::has_single_bit(config.line_bytes)) {
    throw std::invalid_argument("Cache: line size must be a power of two");
  }
  if (config.ways == 0) {
    throw std::invalid_argument("Cache: need at least one way");
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
  line_mask_ = config.line_bytes - 1;
  active_ways_ = config.ways;
  const std::size_t n = sets_ * config.ways;
  // tags/age/dirty are default-inserted: under a cell arena they stay
  // uninitialised (all reads are valid_-gated, and zeroing megabytes of L3
  // metadata would dominate per-cell construction); off-arena keep the
  // conservative zero-fill for long-lived caches.
  tags_.resize(n);
  age_.resize(n);
  dirty_.resize(n);
  if (util::current_cell_arena() == nullptr) {
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(age_.begin(), age_.end(), std::uint8_t{0});
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  }
  valid_.assign(n, 0);
  mru_way_.assign(sets_, 0);
}

bool Cache::is_mru_hit(Address addr) const {
  const std::uint64_t set = set_index(addr);
  const std::uint32_t w = mru_way_[set];
  if (w >= active_ways_) return false;
  const std::size_t i = set * config_.ways + w;
  return valid_[i] != 0 && age_[i] == 0 && tags_[i] == tag_of(addr);
}

bool Cache::note_mru_hits(Address addr, bool is_write, std::uint64_t n) {
  const std::uint64_t set = set_index(addr);
  const std::uint32_t w = mru_way_[set];
  if (w >= active_ways_) return false;
  const std::size_t i = set * config_.ways + w;
  if (valid_[i] == 0 || age_[i] != 0 || tags_[i] != tag_of(addr)) return false;
  stats_.accesses += n;
  stats_.hits += n;
  if (is_write && n != 0) dirty_[i] = 1;
  return true;
}

std::uint32_t Cache::find_way(Address addr) const {
  const std::uint64_t set = set_index(addr);
  const Address tag = tag_of(addr);
  const std::size_t base = set * config_.ways;
  for (std::uint32_t w = 0; w < active_ways_; ++w) {
    if (valid_[base + w] != 0 && tags_[base + w] == tag) return w;
  }
  return active_ways_;
}

void Cache::touch(std::uint64_t set, std::uint32_t way) {
  // Locals, not members: a uint8_t store may alias *this, which would make
  // the compiler reload active_ways_ and the array bases every iteration.
  // The branch-free add lets it vectorise the loop.
  const std::uint32_t ways = active_ways_;
  std::uint8_t* const age = age_.data() + set * config_.ways;
  const std::uint8_t* const valid = valid_.data() + set * config_.ways;
  const std::uint8_t old_age = age[way];
  for (std::uint32_t w = 0; w < ways; ++w) {
    age[w] += (valid[w] != 0) & (age[w] < old_age);
  }
  age[way] = 0;
}

std::uint64_t Cache::probe_line_sweep(Address addr, std::uint64_t n_lines,
                                      std::uint64_t line_step,
                                      std::uint32_t* hit_ways) const {
  const std::uint32_t ways = config_.ways;
  std::uint64_t set = set_index(addr);
  Address tag = tag_of(addr);
  for (std::uint64_t i = 0; i < n_lines; ++i) {
    const std::size_t base = set * ways;
    // Hint first: a repeated sweep finds every line at its set's MRU way,
    // making the common probe one compare per line instead of a way scan.
    const std::uint32_t hint = mru_way_[set];
    if (hint < active_ways_ && valid_[base + hint] != 0 &&
        tags_[base + hint] == tag) {
      hit_ways[i] = hint;
    } else {
      // Branch-free way compare: accumulate the matching way index (at most
      // one way can match a tag) and a hit flag over the SoA arrays.
      std::uint32_t hit_way = 0;
      std::uint32_t hit = 0;
      for (std::uint32_t w = 0; w < active_ways_; ++w) {
        const std::uint32_t match =
            static_cast<std::uint32_t>(valid_[base + w] != 0 &&
                                       tags_[base + w] == tag);
        hit |= match;
        hit_way |= match * w;
      }
      if (hit == 0) return i;
      hit_ways[i] = hit_way;
    }
    set = (set + line_step) & set_mask_;
    tag += line_step;
  }
  return n_lines;
}

void Cache::commit_line_sweep(Address addr, std::uint64_t n_lines,
                              std::uint64_t line_step,
                              const std::uint32_t* hit_ways, bool is_write,
                              std::uint64_t extra_hits) {
  stats_.accesses += n_lines + extra_hits;
  stats_.hits += n_lines + extra_hits;
  std::uint64_t set = set_index(addr);
  for (std::uint64_t i = 0; i < n_lines; ++i) {
    const std::uint32_t w = hit_ways[i];
    const std::size_t idx = set * config_.ways + w;
    // Exactly access()'s hit bookkeeping: a non-MRU hit ages the set and
    // promotes the line; an MRU hit leaves ages alone. The hint update is
    // idempotent on the MRU path, so it is applied unconditionally.
    if (age_[idx] != 0) touch(set, w);
    mru_way_[set] = w;
    if (is_write) dirty_[idx] = 1;
    set = (set + line_step) & set_mask_;
  }
}

AccessOutcome Cache::access(Address addr, bool is_write) {
  ++stats_.accesses;
  const std::uint64_t set = set_index(addr);
  const Address tag = tag_of(addr);
  const std::size_t base = set * config_.ways;

  // Fast path: repeat hit on the set's MRU line. touch() would be a no-op
  // (every other line is already older), so skip the scan and aging walk.
  const std::uint32_t hint = mru_way_[set];
  if (hint < active_ways_ && valid_[base + hint] != 0 &&
      age_[base + hint] == 0 && tags_[base + hint] == tag) {
    if (is_write) dirty_[base + hint] = 1;
    ++stats_.hits;
    return {.hit = true, .evicted_line = std::nullopt, .evicted_dirty = false};
  }

  for (std::uint32_t w = 0; w < active_ways_; ++w) {
    if (valid_[base + w] != 0 && tags_[base + w] == tag) {
      touch(set, w);
      mru_way_[set] = w;
      if (is_write) dirty_[base + w] = 1;
      ++stats_.hits;
      return {.hit = true, .evicted_line = std::nullopt, .evicted_dirty = false};
    }
  }

  ++stats_.misses;
  AccessOutcome outcome;
  outcome.hit = false;

  if (is_write && !config_.write_allocate) return outcome;

  // Victim: an invalid active way if any, else the LRU (max age) active way.
  std::uint32_t victim = 0;
  bool found_invalid = false;
  std::uint8_t worst_age = 0;
  for (std::uint32_t w = 0; w < active_ways_; ++w) {
    if (valid_[base + w] == 0) {
      victim = w;
      found_invalid = true;
      break;
    }
    if (age_[base + w] >= worst_age) {
      worst_age = age_[base + w];
      victim = w;
    }
  }
  if (!found_invalid && valid_[base + victim] != 0) {
    outcome.evicted_line = addr_of(tags_[base + victim]);
    outcome.evicted_dirty = dirty_[base + victim] != 0;
    ++stats_.evictions;
  }
  // A fill makes the new line MRU: every resident line ages by one step,
  // saturating at 254 (alias-free, branch-free as in touch()).
  {
    const std::uint32_t ways = active_ways_;
    std::uint8_t* const age = age_.data() + base;
    const std::uint8_t* const valid = valid_.data() + base;
    for (std::uint32_t w = 0; w < ways; ++w) {
      age[w] += (valid[w] != 0) & (age[w] < 254);
    }
  }
  tags_[base + victim] = tag;
  valid_[base + victim] = 1;
  dirty_[base + victim] = is_write ? 1 : 0;
  age_[base + victim] = 0;
  mru_way_[set] = victim;
  return outcome;
}

bool Cache::contains(Address addr) const {
  return find_way(addr) < active_ways_;
}

bool Cache::invalidate(Address addr, bool* was_dirty) {
  const std::uint32_t w = find_way(addr);
  if (w >= active_ways_) return false;
  const std::size_t i = set_index(addr) * config_.ways + w;
  if (was_dirty != nullptr) *was_dirty = dirty_[i] != 0;
  valid_[i] = 0;
  dirty_[i] = 0;
  ++stats_.invalidations;
  return true;
}

void Cache::flush_all() {
  const std::size_t n = sets_ * config_.ways;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid_[i] != 0) ++stats_.invalidations;
    valid_[i] = 0;
    dirty_[i] = 0;
    age_[i] = 0;
  }
}

std::uint64_t Cache::set_active_ways(std::uint32_t n) {
  if (n < 1) n = 1;
  if (n > config_.ways) n = config_.ways;
  std::uint64_t dropped = 0;
  if (n < active_ways_) {
    // Invalidate lines living in the ways being gated.
    for (std::uint64_t set = 0; set < sets_; ++set) {
      const std::size_t base = set * config_.ways;
      for (std::uint32_t w = n; w < active_ways_; ++w) {
        if (valid_[base + w] != 0) {
          valid_[base + w] = 0;
          dirty_[base + w] = 0;
          ++dropped;
          ++stats_.invalidations;
        }
      }
      // Re-normalise ages so surviving lines keep a consistent LRU order
      // (valid-gated: invalid ways' ages are uninitialised by design).
      for (std::uint32_t w = 0; w < n; ++w) {
        if (valid_[base + w] != 0 && age_[base + w] >= n) {
          age_[base + w] = static_cast<std::uint8_t>(n - 1);
        }
      }
    }
  }
  active_ways_ = n;
  return dropped;
}

std::uint64_t Cache::valid_lines() const {
  std::uint64_t count = 0;
  const std::size_t n = sets_ * config_.ways;
  for (std::size_t i = 0; i < n; ++i) count += valid_[i] != 0 ? 1 : 0;
  return count;
}

std::vector<Address> Cache::valid_line_addresses() const {
  std::vector<Address> addresses;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    const std::size_t base = set * config_.ways;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (valid_[base + w] != 0) {
        addresses.push_back(tags_[base + w] << line_shift_);
      }
    }
  }
  return addresses;
}

}  // namespace pcap::cache
