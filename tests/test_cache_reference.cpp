// Differential test layer for the cache/TLB fast paths: naive,
// obviously-correct reference models (recency lists, modular arithmetic, no
// MRU hints, no bulk accounting, linear slot scans) and the frozen
// implementations the fast ones replaced (the struct-of-arrays cache, the
// linear-scan TLB) are driven in lockstep with cache::Cache and cache::Tlb
// over seeded random and adversarial streams, asserting identical
// hit/miss/eviction sequences. This is what licenses the MRU fast-hit
// path, the note_* bulk accounting, the cache's control lines and the
// TLB's page index.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "cache/tlb.hpp"
#include "util/rng.hpp"

namespace pcap {
namespace {

using cache::Address;

// --- reference models -------------------------------------------------------

/// Set-associative true-LRU cache, the slow obvious way: one recency list
/// per set, most recently used at the front, evict from the back.
class ReferenceCache {
 public:
  struct Outcome {
    bool hit = false;
    std::optional<Address> evicted_line;
    bool evicted_dirty = false;
  };

  ReferenceCache(std::uint64_t sets, std::uint32_t ways,
                 std::uint32_t line_bytes)
      : sets_(sets), ways_(ways), line_bytes_(line_bytes), table_(sets) {}

  Outcome access(Address addr, bool is_write) {
    const Address tag = addr / line_bytes_;
    auto& set = table_[tag % sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->tag == tag) {
        Line line = *it;
        line.dirty = line.dirty || is_write;
        set.erase(it);
        set.push_front(line);
        return {.hit = true, .evicted_line = std::nullopt,
                .evicted_dirty = false};
      }
    }
    Outcome out;
    if (is_write && !write_allocate_) return out;
    if (set.size() == ways_) {
      out.evicted_line = set.back().tag * line_bytes_;
      out.evicted_dirty = set.back().dirty;
      set.pop_back();
    }
    set.push_front({tag, is_write});
    return out;
  }

  void set_write_allocate(bool wa) { write_allocate_ = wa; }

 private:
  struct Line {
    Address tag = 0;
    bool dirty = false;
  };
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint32_t line_bytes_;
  bool write_allocate_ = true;
  std::vector<std::deque<Line>> table_;
};

/// Fully-associative true-LRU TLB: a recency list of pages.
class ReferenceTlb {
 public:
  ReferenceTlb(std::uint32_t entries, std::uint32_t page_bytes)
      : entries_(entries), page_bytes_(page_bytes) {}

  bool lookup(std::uint64_t vaddr) {
    const std::uint64_t page = vaddr / page_bytes_;
    for (auto it = pages_.begin(); it != pages_.end(); ++it) {
      if (*it == page) {
        pages_.erase(it);
        pages_.push_front(page);
        return true;
      }
    }
    if (pages_.size() == entries_) pages_.pop_back();
    pages_.push_front(page);
    return false;
  }

  void flush() { pages_.clear(); }

 private:
  std::uint32_t entries_;
  std::uint32_t page_bytes_;
  std::deque<std::uint64_t> pages_;
};

/// Slot-exact TLB, frozen from the linear-scan implementation cache::Tlb
/// replaced with its page index: numbered slots, timestamp LRU, gating of
/// slots [n, entries). Every operation scans the active slots. A fill takes
/// an empty slot if there is one (the last empty slot in scan order), else
/// the slot with the oldest use. Slot placement decides which translations
/// a later shrink drops, which ReferenceTlb's recency list cannot model.
class SlotReferenceTlb {
 public:
  SlotReferenceTlb(std::uint32_t entries, std::uint32_t page_bytes)
      : page_bytes_(page_bytes), active_(entries), slots_(entries) {}

  bool lookup(std::uint64_t vaddr) {
    ++accesses_;
    ++tick_;
    const std::uint64_t page = vaddr / page_bytes_;
    Slot* lru = &slots_[0];
    for (std::uint32_t i = 0; i < active_; ++i) {
      Slot& e = slots_[i];
      if (e.valid && e.page == page) {
        e.last_use = tick_;
        return true;
      }
      if (!e.valid) {
        lru = &e;
      } else if (lru->valid && e.last_use < lru->last_use) {
        lru = &e;
      }
    }
    ++misses_;
    *lru = {.page = page, .last_use = tick_, .valid = true};
    return false;
  }

  /// n back-to-back hits on a resident page, or nothing at all.
  bool note_hits(std::uint64_t vaddr, std::uint64_t n) {
    if (n == 0 || !contains(vaddr)) return false;
    for (std::uint64_t i = 0; i < n; ++i) lookup(vaddr);
    return true;
  }

  bool contains(std::uint64_t vaddr) const {
    const std::uint64_t page = vaddr / page_bytes_;
    for (std::uint32_t i = 0; i < active_; ++i) {
      if (slots_[i].valid && slots_[i].page == page) return true;
    }
    return false;
  }

  void set_active_entries(std::uint32_t n) {
    n = std::clamp<std::uint32_t>(n, 1, static_cast<std::uint32_t>(slots_.size()));
    for (std::uint32_t i = n; i < active_; ++i) slots_[i].valid = false;
    active_ = n;
  }

  void flush() {
    for (auto& e : slots_) e.valid = false;
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Slot {
    std::uint64_t page = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };
  std::uint32_t page_bytes_;
  std::uint32_t active_;
  std::uint64_t tick_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Slot> slots_;
};

/// The struct-of-arrays cache::Cache, frozen when the cache moved to one
/// control line per set: parallel tag / age / valid / dirty arrays and a
/// per-set MRU hint, every scan bounded by the active way count, every age
/// loop gated on validity. Kept verbatim (heap vectors, always zeroed) so
/// the control-line cache can be driven against it in lockstep: equal
/// outcomes, statistics, MRU answers and resident sets across every
/// operation, including the way-gating age clamp and its tie-breaks.
class SoaReferenceCache {
 public:
  struct Outcome {
    bool hit = false;
    std::optional<Address> evicted_line;
    bool evicted_dirty = false;
  };

  explicit SoaReferenceCache(const cache::CacheConfig& config)
      : config_(config) {
    const std::uint64_t line_way =
        static_cast<std::uint64_t>(config.line_bytes) * config.ways;
    sets_ = config.size_bytes / line_way;
    set_mask_ = sets_ - 1;
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
    active_ways_ = config.ways;
    const std::size_t n = sets_ * config.ways;
    tags_.assign(n, 0);
    age_.assign(n, 0);
    dirty_.assign(n, 0);
    valid_.assign(n, 0);
    mru_way_.assign(sets_, 0);
  }

  bool is_mru_hit(Address addr) const {
    const std::uint64_t set = set_index(addr);
    const std::uint32_t w = mru_way_[set];
    if (w >= active_ways_) return false;
    const std::size_t i = set * config_.ways + w;
    return valid_[i] != 0 && age_[i] == 0 && tags_[i] == tag_of(addr);
  }

  bool note_mru_hits(Address addr, bool is_write, std::uint64_t n) {
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

  Outcome access(Address addr, bool is_write) {
    ++stats_.accesses;
    const std::uint64_t set = set_index(addr);
    const Address tag = tag_of(addr);
    const std::size_t base = set * config_.ways;

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
    Outcome outcome;
    outcome.hit = false;

    if (is_write && !config_.write_allocate) return outcome;

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

  bool contains(Address addr) const { return find_way(addr) < active_ways_; }

  bool invalidate(Address addr, bool* was_dirty = nullptr) {
    const std::uint32_t w = find_way(addr);
    if (w >= active_ways_) return false;
    const std::size_t i = set_index(addr) * config_.ways + w;
    if (was_dirty != nullptr) *was_dirty = dirty_[i] != 0;
    valid_[i] = 0;
    dirty_[i] = 0;
    ++stats_.invalidations;
    return true;
  }

  void flush_all() {
    const std::size_t n = sets_ * config_.ways;
    for (std::size_t i = 0; i < n; ++i) {
      if (valid_[i] != 0) ++stats_.invalidations;
      valid_[i] = 0;
      dirty_[i] = 0;
      age_[i] = 0;
    }
  }

  std::uint64_t set_active_ways(std::uint32_t n) {
    if (n < 1) n = 1;
    if (n > config_.ways) n = config_.ways;
    std::uint64_t dropped = 0;
    if (n < active_ways_) {
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

  std::uint64_t valid_lines() const {
    std::uint64_t count = 0;
    const std::size_t n = sets_ * config_.ways;
    for (std::size_t i = 0; i < n; ++i) count += valid_[i] != 0 ? 1 : 0;
    return count;
  }

  std::vector<Address> valid_line_addresses() const {
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

  const cache::CacheStats& stats() const { return stats_; }

 private:
  std::uint64_t set_index(Address addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  Address tag_of(Address addr) const { return addr >> line_shift_; }
  Address addr_of(Address tag) const { return tag << line_shift_; }

  std::uint32_t find_way(Address addr) const {
    const std::uint64_t set = set_index(addr);
    const Address tag = tag_of(addr);
    const std::size_t base = set * config_.ways;
    for (std::uint32_t w = 0; w < active_ways_; ++w) {
      if (valid_[base + w] != 0 && tags_[base + w] == tag) return w;
    }
    return active_ways_;
  }

  void touch(std::uint64_t set, std::uint32_t way) {
    const std::uint32_t ways = active_ways_;
    std::uint8_t* const age = age_.data() + set * config_.ways;
    const std::uint8_t* const valid = valid_.data() + set * config_.ways;
    const std::uint8_t old_age = age[way];
    for (std::uint32_t w = 0; w < ways; ++w) {
      age[w] += (valid[w] != 0) & (age[w] < old_age);
    }
    age[way] = 0;
  }

  cache::CacheConfig config_;
  std::uint64_t sets_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t active_ways_ = 0;
  std::vector<Address> tags_;
  std::vector<std::uint8_t> age_;
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint32_t> mru_way_;
  cache::CacheStats stats_;
};

// --- stream drivers ---------------------------------------------------------

struct Access {
  Address addr = 0;
  bool is_write = false;
};

void drive_cache(const cache::CacheConfig& config,
                 const std::vector<Access>& stream) {
  cache::Cache dut(config);
  ReferenceCache ref(config.sets(), config.ways, config.line_bytes);
  ref.set_write_allocate(config.write_allocate);

  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto [addr, is_write] = stream[i];
    const bool mru_before = dut.is_mru_hit(addr);
    const auto got = dut.access(addr, is_write);
    const auto want = ref.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << config.name << " op " << i;
    ASSERT_EQ(got.evicted, want.evicted_line.has_value())
        << config.name << " op " << i;
    ASSERT_EQ(got.evicted_line, want.evicted_line.value_or(0))
        << config.name << " op " << i;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty)
        << config.name << " op " << i;
    // An MRU fast hit must be a subset of plain hits, and after any access
    // the touched line is the set's MRU line (when it was allocated).
    if (mru_before) {
      ASSERT_TRUE(got.hit) << config.name << " op " << i;
    }
    if (got.hit || !(is_write && !config.write_allocate)) {
      ASSERT_TRUE(dut.is_mru_hit(addr)) << config.name << " op " << i;
    }
    hits += got.hit ? 1 : 0;
    evictions += got.evicted ? 1 : 0;
  }
  EXPECT_EQ(dut.stats().accesses, stream.size());
  EXPECT_EQ(dut.stats().hits, hits);
  EXPECT_EQ(dut.stats().misses, stream.size() - hits);
  EXPECT_EQ(dut.stats().evictions, evictions);
}

void drive_tlb(const cache::TlbConfig& config,
               const std::vector<std::uint64_t>& stream,
               std::uint32_t flush_every = 0) {
  cache::Tlb dut(config);
  ReferenceTlb ref(config.entries, config.page_bytes);
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (flush_every != 0 && i != 0 && i % flush_every == 0) {
      dut.flush();
      ref.flush();
    }
    const bool got = dut.lookup(stream[i]);
    const bool want = ref.lookup(stream[i]);
    ASSERT_EQ(got, want) << config.name << " op " << i;
    misses += got ? 0 : 1;
  }
  EXPECT_EQ(dut.stats().accesses, stream.size());
  EXPECT_EQ(dut.stats().misses, misses);
}

std::vector<Access> random_stream(std::uint64_t seed, std::size_t n,
                                  Address space, double store_fraction) {
  util::Rng rng(seed);
  std::vector<Access> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back({rng.below(space), rng.chance(store_fraction)});
  }
  return stream;
}

// Repeated strided passes, like the stride microbenchmark's probe loop.
std::vector<Access> stride_stream(Address array, Address stride,
                                  std::size_t passes) {
  std::vector<Access> stream;
  for (std::size_t p = 0; p < passes; ++p) {
    for (Address a = 0; a < array; a += stride) {
      stream.push_back({a, false});
      stream.push_back({a, true});
    }
  }
  return stream;
}

// All addresses map to one set: maximal replacement pressure.
std::vector<Access> same_set_stream(const cache::CacheConfig& config,
                                    std::uint64_t seed, std::size_t n) {
  const Address set_stride =
      config.sets() * config.line_bytes;  // same set, new tag
  util::Rng rng(seed);
  std::vector<Access> stream;
  for (std::size_t i = 0; i < n; ++i) {
    // Cycle over ways+3 distinct tags: persistent thrash with reuse.
    const Address tag = rng.below(config.ways + 3);
    stream.push_back({tag * set_stride + rng.below(config.line_bytes),
                      rng.chance(0.3)});
  }
  return stream;
}

// --- cache differentials ----------------------------------------------------

TEST(CacheReference, RandomStreamSmallCache) {
  // 4 sets x 2 ways over a tiny space: constant conflict pressure.
  cache::CacheConfig config{.name = "tiny", .size_bytes = 512,
                            .line_bytes = 64, .ways = 2};
  drive_cache(config, random_stream(11, 20000, 4096, 0.3));
}

TEST(CacheReference, RandomStreamL1Geometry) {
  cache::CacheConfig config{.name = "L1D", .size_bytes = 32 * 1024,
                            .line_bytes = 64, .ways = 8};
  drive_cache(config, random_stream(12, 30000, 96 * 1024, 0.4));
}

TEST(CacheReference, RandomStreamNoWriteAllocate) {
  cache::CacheConfig config{.name = "L1I", .size_bytes = 8 * 1024,
                            .line_bytes = 64, .ways = 4,
                            .write_allocate = false};
  drive_cache(config, random_stream(13, 20000, 32 * 1024, 0.5));
}

TEST(CacheReference, StrideStreams) {
  cache::CacheConfig config{.name = "L1D", .size_bytes = 32 * 1024,
                            .line_bytes = 64, .ways = 8};
  for (Address stride : {8ull, 64ull, 256ull, 4096ull}) {
    drive_cache(config, stride_stream(64 * 1024, stride, 3));
  }
}

TEST(CacheReference, SameSetThrash) {
  cache::CacheConfig config{.name = "L1D", .size_bytes = 32 * 1024,
                            .line_bytes = 64, .ways = 8};
  drive_cache(config, same_set_stream(config, 14, 20000));
}

TEST(CacheReference, MruBulkAccountingMatchesRepeatedAccesses) {
  cache::CacheConfig config{.name = "L1D", .size_bytes = 32 * 1024,
                            .line_bytes = 64, .ways = 8};
  cache::Cache bulk(config);
  cache::Cache loop(config);
  util::Rng rng(15);
  for (int round = 0; round < 2000; ++round) {
    const Address addr = rng.below(64 * 1024);
    const bool is_write = rng.chance(0.4);
    const std::uint64_t n = 1 + rng.below(16);
    // Keep both instances in lockstep: same leading access...
    ASSERT_EQ(bulk.access(addr, is_write).hit, loop.access(addr, is_write).hit);
    // ...then n repeats, bulk-accounted on one and looped on the other.
    ASSERT_TRUE(bulk.is_mru_hit(addr));
    ASSERT_TRUE(bulk.note_mru_hits(addr, is_write, n));
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(loop.access(addr, is_write).hit);
    }
    ASSERT_EQ(bulk.stats().accesses, loop.stats().accesses);
    ASSERT_EQ(bulk.stats().hits, loop.stats().hits);
    ASSERT_EQ(bulk.stats().misses, loop.stats().misses);
    ASSERT_EQ(bulk.stats().evictions, loop.stats().evictions);
  }
}

TEST(CacheReference, NoteMruHitsRefusesNonMruLines) {
  cache::CacheConfig config{.name = "L1D", .size_bytes = 512,
                            .line_bytes = 64, .ways = 2};
  cache::Cache c(config);
  c.access(0x0, false);
  c.access(0x200, false);  // same set (4 sets x 64 B), different line: now MRU
  const auto before = c.stats();
  EXPECT_FALSE(c.is_mru_hit(0x0));
  EXPECT_FALSE(c.note_mru_hits(0x0, false, 5));  // not MRU: must account nothing
  EXPECT_FALSE(c.note_mru_hits(0x1000, false, 5));  // not resident at all
  EXPECT_EQ(c.stats().accesses, before.accesses);
  EXPECT_EQ(c.stats().hits, before.hits);
  EXPECT_TRUE(c.is_mru_hit(0x200));
  EXPECT_TRUE(c.note_mru_hits(0x200, false, 5));
  EXPECT_EQ(c.stats().hits, before.hits + 5);
}

TEST(CacheReference, GatedWidthBehavesLikeNarrowCache) {
  // A cache gated to n ways must produce the same hit/miss/eviction
  // sequence as a fresh n-way cache of the same set geometry.
  cache::CacheConfig full{.name = "L2", .size_bytes = 16 * 1024,
                          .line_bytes = 64, .ways = 8};
  cache::Cache gated(full);
  gated.set_active_ways(3);
  gated.flush_all();  // start both from cold
  ReferenceCache ref(full.sets(), 3, full.line_bytes);
  util::Rng rng(16);
  for (int i = 0; i < 20000; ++i) {
    const Address addr = rng.below(64 * 1024);
    const bool is_write = rng.chance(0.3);
    const auto got = gated.access(addr, is_write);
    const auto want = ref.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << "op " << i;
    ASSERT_EQ(got.evicted, want.evicted_line.has_value()) << "op " << i;
    ASSERT_EQ(got.evicted_line, want.evicted_line.value_or(0)) << "op " << i;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "op " << i;
  }
}

// Lockstep against the frozen struct-of-arrays cache over seeded mixes of
// every operation. `lines` is the pool of line addresses the ops draw from
// (offsets within a line are added per op). Outcomes, statistics, MRU
// and residency answers are compared on every op, the resident set every
// 64 ops and at the end.
void expect_same_lines(const cache::Cache& dut, const SoaReferenceCache& ref,
                       int op) {
  std::vector<Address> got = dut.valid_line_addresses();
  std::vector<Address> want = ref.valid_line_addresses();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, want) << "op " << op;
  ASSERT_EQ(dut.valid_lines(), ref.valid_lines()) << "op " << op;
}

void drive_soa(const cache::CacheConfig& config,
               const std::vector<Address>& lines, std::uint64_t seed,
               int ops) {
  cache::Cache dut(config);
  SoaReferenceCache ref(config);
  util::Rng rng(seed);
  const auto pick = [&] {
    return lines[rng.below(lines.size())] + rng.below(config.line_bytes);
  };
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.below(100);
    const Address addr = pick();
    const bool is_write = rng.chance(0.35);
    if (kind < 62) {
      const auto got = dut.access(addr, is_write);
      const auto want = ref.access(addr, is_write);
      ASSERT_EQ(got.hit, want.hit) << "op " << op;
      ASSERT_EQ(got.evicted, want.evicted_line.has_value()) << "op " << op;
      ASSERT_EQ(got.evicted_line, want.evicted_line.value_or(0)) << "op " << op;
      ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "op " << op;
    } else if (kind < 70) {
      bool got_dirty = false;
      bool want_dirty = false;
      ASSERT_EQ(dut.invalidate(addr, &got_dirty), ref.invalidate(addr, &want_dirty))
          << "op " << op;
      ASSERT_EQ(got_dirty, want_dirty) << "op " << op;
    } else if (kind < 80) {
      const std::uint64_t n = rng.below(5);  // includes n == 0
      ASSERT_EQ(dut.note_mru_hits(addr, is_write, n),
                ref.note_mru_hits(addr, is_write, n))
          << "op " << op;
    } else if (kind < 90) {
      ASSERT_EQ(dut.is_mru_hit(addr), ref.is_mru_hit(addr)) << "op " << op;
      ASSERT_EQ(dut.contains(addr), ref.contains(addr)) << "op " << op;
    } else if (kind < 98) {
      // Shrinks and regrows, including the clamps at 0 and past the top.
      const auto n = static_cast<std::uint32_t>(rng.below(config.ways + 2));
      ASSERT_EQ(dut.set_active_ways(n), ref.set_active_ways(n)) << "op " << op;
      ASSERT_EQ(dut.active_ways(), std::clamp<std::uint32_t>(n, 1, config.ways));
    } else if (kind < 99) {
      dut.flush_all();
      ref.flush_all();
    } else {
      // Fill-and-drop one line hundreds of times: the set's other lines
      // age up to the 254 cap, the older ones tying there and the younger
      // ones stopping just below it.
      const std::uint64_t fills = 200 + rng.below(100);
      for (std::uint64_t i = 0; i < fills; ++i) {
        ASSERT_EQ(dut.access(addr, false).hit, ref.access(addr, false).hit)
            << "op " << op;
        ASSERT_EQ(dut.invalidate(addr), ref.invalidate(addr)) << "op " << op;
      }
    }
    const cache::CacheStats& got = dut.stats();
    const cache::CacheStats& want = ref.stats();
    ASSERT_EQ(got.accesses, want.accesses) << "op " << op;
    ASSERT_EQ(got.hits, want.hits) << "op " << op;
    ASSERT_EQ(got.misses, want.misses) << "op " << op;
    ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
    ASSERT_EQ(got.invalidations, want.invalidations) << "op " << op;
    if (op % 64 == 0) expect_same_lines(dut, ref, op);
  }
  expect_same_lines(dut, ref, ops);
}

// Line addresses spanning `factor` times the cache's capacity.
std::vector<Address> line_pool(const cache::CacheConfig& config,
                               std::uint64_t factor) {
  std::vector<Address> lines;
  const std::uint64_t n = config.size_bytes / config.line_bytes * factor;
  for (std::uint64_t i = 0; i < n; ++i) lines.push_back(i * config.line_bytes);
  return lines;
}

TEST(CacheReference, SoaLockstepAcrossWayCounts) {
  std::uint64_t seed = 40;
  for (const std::uint32_t ways : {1u, 3u, 8u, 20u, 24u}) {
    for (const bool write_allocate : {true, false}) {
      // 8 sets: small enough that every set sees constant conflict.
      const cache::CacheConfig config{.name = "soa",
                                      .size_bytes = 64ull * ways * 8,
                                      .line_bytes = 64,
                                      .ways = ways,
                                      .write_allocate = write_allocate};
      SCOPED_TRACE(testing::Message() << ways << " ways, write_allocate "
                                      << write_allocate);
      drive_soa(config, line_pool(config, 3), ++seed, 20000);
    }
  }
}

TEST(CacheReference, SoaLockstepL3Geometry) {
  // The romley L3's associativity over 64 sets, the working set inside
  // and well past its reach.
  const cache::CacheConfig config{.name = "L3", .size_bytes = 64ull * 20 * 64,
                                  .line_bytes = 64, .ways = 20};
  drive_soa(config, line_pool(config, 1), 50, 30000);
  drive_soa(config, line_pool(config, 4), 51, 30000);
}

TEST(CacheReference, SoaLockstepSharedPartialTag) {
  // Every line of set 0 carries the same partial tag, so each probe of the
  // set yields every valid way as a candidate and only the full-tag
  // compare tells them apart.
  for (const std::uint32_t ways : {3u, 8u, 24u}) {
    const cache::CacheConfig config{.name = "ptag",
                                    .size_bytes = 64ull * ways * 16,
                                    .line_bytes = 64, .ways = ways};
    const cache::Cache probe(config);
    const Address set_stride = config.sets() * config.line_bytes;
    const std::uint8_t shared = probe.partial_tag(0);
    std::vector<Address> lines;
    for (Address a = 0; lines.size() < ways + 4; a += set_stride) {
      if (probe.partial_tag(a) == shared) lines.push_back(a);
    }
    ASSERT_EQ(probe.partial_tag(lines.back()), shared);
    SCOPED_TRACE(testing::Message() << ways << " ways");
    drive_soa(config, lines, 60 + ways, 20000);
  }
}

// --- TLB differentials ------------------------------------------------------

TEST(TlbReference, RandomPages) {
  cache::TlbConfig config{.name = "DTLB", .entries = 64, .page_bytes = 4096};
  util::Rng rng(21);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 50000; ++i) {
    stream.push_back(rng.below(96ull << 12) << 4 | rng.below(16));
  }
  drive_tlb(config, stream);
}

TEST(TlbReference, HotPagesWithPeriodicFlush) {
  // Mostly MRU-slot hits (the fast path) with OS-noise-style flushes.
  cache::TlbConfig config{.name = "ITLB", .entries = 48, .page_bytes = 4096};
  util::Rng rng(22);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t page =
        rng.chance(0.9) ? rng.below(3) : rng.below(4096);
    stream.push_back((page << 12) + rng.below(4096));
  }
  drive_tlb(config, stream, /*flush_every=*/1000);
}

TEST(TlbReference, SequentialPageWalk) {
  cache::TlbConfig config{.name = "DTLB", .entries = 64, .page_bytes = 4096};
  std::vector<std::uint64_t> stream;
  // Several passes over more pages than the TLB holds: every access a miss
  // after warmup (the classic LRU-antagonistic sequential sweep).
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t page = 0; page < 96; ++page) {
      for (int touch = 0; touch < 3; ++touch) {
        stream.push_back((page << 12) + static_cast<std::uint64_t>(touch) * 8);
      }
    }
  }
  drive_tlb(config, stream);
}

TEST(TlbReference, GatedEntriesBehaveLikeSmallTlb) {
  cache::TlbConfig config{.name = "DTLB", .entries = 64, .page_bytes = 4096};
  cache::Tlb gated(config);
  gated.set_active_entries(8);
  gated.flush();
  ReferenceTlb ref(8, 4096);
  util::Rng rng(23);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t vaddr = rng.below(24) << 12;
    ASSERT_EQ(gated.lookup(vaddr), ref.lookup(vaddr)) << "op " << i;
  }
}

// Lockstep against the frozen slot-exact model over seeded mixes of every
// mutating operation. Shrinks drop whatever sits in the gated slots, so any
// drift in slot placement shows up as a differing hit/miss or contains().
void drive_slot_tlb(std::uint32_t entries, std::uint64_t pages,
                    std::uint64_t seed) {
  constexpr std::uint32_t kPageBytes = 4096;
  cache::Tlb dut({.name = "DTLB", .entries = entries, .page_bytes = kPageBytes});
  SlotReferenceTlb ref(entries, kPageBytes);
  util::Rng rng(seed);
  for (int op = 0; op < 40000; ++op) {
    const std::uint64_t vaddr = rng.below(pages) * kPageBytes + rng.below(kPageBytes);
    const std::uint64_t kind = rng.below(100);
    if (kind < 70) {
      ASSERT_EQ(dut.lookup(vaddr), ref.lookup(vaddr)) << "op " << op;
    } else if (kind < 94) {
      const std::uint64_t n = rng.below(9);  // includes the n == 0 refusal
      ASSERT_EQ(dut.note_hits(vaddr, n), ref.note_hits(vaddr, n)) << "op " << op;
    } else if (kind < 99) {
      const auto n = static_cast<std::uint32_t>(rng.below(entries + 2));
      dut.set_active_entries(n);
      ref.set_active_entries(n);
    } else {
      dut.flush();
      ref.flush();
    }
    ASSERT_EQ(dut.stats().accesses, ref.accesses()) << "op " << op;
    ASSERT_EQ(dut.stats().misses, ref.misses()) << "op " << op;
    if (op % 64 == 0) {
      for (std::uint64_t p = 0; p < pages; ++p) {
        ASSERT_EQ(dut.contains(p * kPageBytes), ref.contains(p * kPageBytes))
            << "op " << op << " page " << p;
      }
    }
  }
  for (std::uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(dut.contains(p * kPageBytes), ref.contains(p * kPageBytes))
        << "page " << p;
  }
}

TEST(TlbReference, SlotExactUnderGatingAndFlush) {
  drive_slot_tlb(64, 96, 25);   // the DTLB, working set past its reach
  drive_slot_tlb(48, 40, 26);   // the ITLB, working set within reach
  drive_slot_tlb(5, 12, 27);    // tiny and odd: index wraps, shrink to 1
  drive_slot_tlb(1, 3, 28);     // a single slot
}

TEST(TlbReference, ShrinkDropsTheTopSlots) {
  // Fills go to the highest empty slot, so the first pages land at the
  // top and a shrink drops them, not the most recently filled ones.
  cache::Tlb tlb({.name = "t", .entries = 4});
  for (std::uint64_t p = 0; p < 4; ++p) tlb.lookup(p << 12);  // slots 3..0
  tlb.set_active_entries(2);
  EXPECT_FALSE(tlb.contains(0 << 12));
  EXPECT_FALSE(tlb.contains(1 << 12));
  EXPECT_TRUE(tlb.contains(2 << 12));
  EXPECT_TRUE(tlb.contains(3 << 12));
  // Regrown slots are empty; the next fill takes the highest of them.
  tlb.set_active_entries(4);
  tlb.lookup(4 << 12);  // slot 3
  tlb.set_active_entries(3);
  EXPECT_FALSE(tlb.contains(4 << 12));
  EXPECT_TRUE(tlb.contains(2 << 12));
}

TEST(TlbReference, NoteHitsMatchesRepeatedLookups) {
  cache::TlbConfig config{.name = "DTLB", .entries = 64, .page_bytes = 4096};
  cache::Tlb bulk(config);
  cache::Tlb loop(config);
  util::Rng rng(24);
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t vaddr = rng.below(16) << 12 | rng.below(4096);
    const std::uint64_t n = 1 + rng.below(16);
    ASSERT_EQ(bulk.lookup(vaddr), loop.lookup(vaddr));
    ASSERT_TRUE(bulk.note_hits(vaddr, n));  // just looked up: resident
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_TRUE(loop.lookup(vaddr));
    ASSERT_EQ(bulk.stats().accesses, loop.stats().accesses);
    ASSERT_EQ(bulk.stats().misses, loop.stats().misses);
  }
  // And the victim ordering must agree afterwards: sweep both with misses.
  for (std::uint64_t page = 100; page < 300; ++page) {
    ASSERT_EQ(bulk.lookup(page << 12), loop.lookup(page << 12));
  }
}

}  // namespace
}  // namespace pcap
