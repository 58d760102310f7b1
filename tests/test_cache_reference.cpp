// Differential test layer for the cache/TLB fast paths: naive,
// obviously-correct reference models (recency lists, modular arithmetic, no
// MRU hints, no bulk accounting, linear slot scans) are driven in lockstep
// with cache::Cache and cache::Tlb over seeded random and adversarial
// streams, asserting identical hit/miss/eviction sequences. This is what
// licenses the MRU fast-hit path, the note_* bulk accounting and the TLB's
// page index.
#include <gtest/gtest.h>

#include <algorithm>
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
    ASSERT_EQ(got.evicted_line, want.evicted_line) << config.name << " op "
                                                   << i;
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
    evictions += got.evicted_line.has_value() ? 1 : 0;
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
    ASSERT_EQ(got.evicted_line, want.evicted_line) << "op " << i;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "op " << i;
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
