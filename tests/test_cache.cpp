// Unit and property tests for the set-associative cache model, including a
// reference-model comparison (exact LRU semantics) and the regression test
// for the fill-aging bug (a fill must age every resident line).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <list>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "apps/synthetic.hpp"
#include "cache/cache.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace pcap::cache {
namespace {

CacheConfig small_config() {
  return {.name = "test", .size_bytes = 1024, .line_bytes = 64, .ways = 4};
  // 4 sets x 4 ways x 64 B.
}

TEST(Cache, GeometryDerivation) {
  Cache c(small_config());
  EXPECT_EQ(c.sets(), 4u);
  EXPECT_EQ(c.active_ways(), 4u);
  EXPECT_EQ(c.effective_size_bytes(), 1024u);
}

TEST(Cache, RomleyL3GeometryIsValid) {
  Cache l3({.name = "L3",
            .size_bytes = 20 * 1024 * 1024,
            .line_bytes = 64,
            .ways = 20});
  EXPECT_EQ(l3.sets(), 16384u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache({.size_bytes = 1000, .line_bytes = 48, .ways = 4}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 1000, .line_bytes = 64, .ways = 4}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 64, .ways = 0}),
               std::invalid_argument);
  // 3 sets: not a power of two.
  EXPECT_THROW(Cache({.size_bytes = 64 * 4 * 3, .line_bytes = 64, .ways = 4}),
               std::invalid_argument);
}

TEST(Cache, WayLimitIsOneControlLine) {
  // One set's state is one 64-byte control line: 24 ways at most.
  EXPECT_THROW(Cache({.size_bytes = 64 * 25 * 4, .line_bytes = 64, .ways = 25}),
               std::invalid_argument);
  Cache c({.size_bytes = 64 * 24 * 4, .line_bytes = 64, .ways = 24});
  EXPECT_EQ(c.sets(), 4u);
  // All 24 ways of set 0 fill, and the 25th line evicts the first.
  const Address set_stride = 4 * 64;
  for (Address i = 0; i < 24; ++i) {
    EXPECT_FALSE(c.access(i * set_stride, false).evicted);
  }
  EXPECT_EQ(c.valid_lines(), 24u);
  const auto out = c.access(24 * set_stride, false);
  ASSERT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, 0u);
}

TEST(Cache, MissThenHit) {
  Cache c(small_config());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x13F, false).hit);   // same line
  EXPECT_FALSE(c.access(0x140, false).hit);  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionOrder) {
  Cache c(small_config());  // 4 ways, set stride = 256
  // Fill one set with 4 lines.
  for (int i = 0; i < 4; ++i) c.access(0x1000 + 256u * i, false);
  // Touch line 0 so line 1 becomes LRU.
  c.access(0x1000, false);
  const auto outcome = c.access(0x1000 + 256u * 4, false);
  EXPECT_FALSE(outcome.hit);
  ASSERT_TRUE(outcome.evicted);
  EXPECT_EQ(outcome.evicted_line, 0x1000u + 256u);
}

// Regression: a fill must make the new line MRU relative to ALL residents.
// The original bug aged lines only relative to the (reset) victim age, which
// froze every age at zero and degraded replacement to "churn the last way".
TEST(Cache, FillAgingRegression) {
  Cache c(small_config());
  // Cyclic sweep of 5 lines through a 4-way set: true LRU must miss every
  // access after warmup (classic worst case), not settle into hits.
  const std::uint64_t kLines = 5;
  for (int warm = 0; warm < 2; ++warm) {
    for (std::uint64_t i = 0; i < kLines; ++i) c.access(0x2000 + 256 * i, false);
  }
  c.reset_stats();
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < kLines; ++i) c.access(0x2000 + 256 * i, false);
  }
  EXPECT_EQ(c.stats().misses, 50u);  // every access misses
}

// The age array is not true LRU once ages tie: set_active_ways() clamps the
// survivors' ages and fills saturate them at 254, and a full set then
// evicts the HIGHEST tied way. Every capped cell gates ways, so the golden
// outputs depend on this rule; a recency-stamp rewrite fails these cases.
TEST(Cache, GatingClampTieEvictsHighestTiedWay) {
  Cache c({.name = "tie", .size_bytes = 256, .line_bytes = 64, .ways = 4});
  const Address a = 0x000, b = 0x040, cc = 0x080, d = 0x0C0, e = 0x100;
  for (const Address line : {a, b, cc, d}) c.access(line, false);
  c.set_active_ways(2);  // keeps A (way 0) and B (way 1), both aged to 1
  const auto out = c.access(e, false);
  ASSERT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, b);  // true LRU would evict A
  EXPECT_TRUE(c.contains(a));
}

TEST(Cache, SaturatedAgeTieEvictsHighestTiedWay) {
  Cache c({.name = "tie", .size_bytes = 192, .line_bytes = 64, .ways = 3});
  const Address a = 0x000, b = 0x040, cc = 0x080, d = 0x0C0, x = 0x100;
  c.access(a, false);
  c.access(b, false);
  // Each fill of the third way ages A and B; 300 fills pin both at 254.
  for (int i = 0; i < 300; ++i) {
    c.access(x, false);
    c.invalidate(x);
  }
  c.access(cc, false);
  const auto out = c.access(d, false);
  ASSERT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, b);  // true LRU would evict A
  EXPECT_TRUE(c.contains(a));
}

TEST(Cache, CyclicWorkingSetThatFitsAlwaysHits) {
  Cache c(small_config());
  for (std::uint64_t i = 0; i < 4; ++i) c.access(0x2000 + 256 * i, false);
  c.reset_stats();
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) c.access(0x2000 + 256 * i, false);
  }
  EXPECT_EQ(c.stats().hits, 40u);
}

TEST(Cache, DirtyEvictionReported) {
  Cache c(small_config());
  c.access(0x3000, true);  // dirty line
  for (int i = 1; i <= 4; ++i) c.access(0x3000 + 256u * i, false);
  // 0x3000 was LRU and dirty.
  bool saw_dirty = false;
  Cache c2(small_config());
  c2.access(0x3000, true);
  for (int i = 1; i <= 3; ++i) c2.access(0x3000 + 256u * i, false);
  const auto outcome = c2.access(0x3000 + 256u * 4, false);
  ASSERT_TRUE(outcome.evicted);
  EXPECT_EQ(outcome.evicted_line, 0x3000u);
  saw_dirty = outcome.evicted_dirty;
  EXPECT_TRUE(saw_dirty);
}

TEST(Cache, InvalidateAndContains) {
  Cache c(small_config());
  c.access(0x4000, true);
  EXPECT_TRUE(c.contains(0x4000));
  EXPECT_TRUE(c.contains(0x403F));
  bool was_dirty = false;
  EXPECT_TRUE(c.invalidate(0x4000, &was_dirty));
  EXPECT_TRUE(was_dirty);
  EXPECT_FALSE(c.contains(0x4000));
  EXPECT_FALSE(c.invalidate(0x4000));
}

TEST(Cache, FlushAllDropsEverything) {
  Cache c(small_config());
  for (int i = 0; i < 16; ++i) c.access(64u * i, false);
  EXPECT_GT(c.valid_lines(), 0u);
  c.flush_all();
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(Cache, WayGatingDropsGatedLinesAndShrinksCapacity) {
  Cache c(small_config());
  for (int i = 0; i < 16; ++i) c.access(64u * i, false);  // fill all 16 lines
  EXPECT_EQ(c.valid_lines(), 16u);
  const std::uint64_t dropped = c.set_active_ways(2);
  EXPECT_EQ(dropped, 8u);  // half the lines lived in gated ways
  EXPECT_EQ(c.active_ways(), 2u);
  EXPECT_EQ(c.effective_size_bytes(), 512u);
  EXPECT_EQ(c.valid_lines(), 8u);
}

TEST(Cache, GatedWaysNotUsedForAllocation) {
  Cache c(small_config());
  c.set_active_ways(1);
  // With 1 way per set, two conflicting lines always evict each other.
  c.access(0x0, false);
  c.access(0x400, false);  // same set (set stride 256, 4 sets -> 0x400 maps set 0)
  EXPECT_FALSE(c.contains(0x0));
  EXPECT_TRUE(c.contains(0x400));
  EXPECT_LE(c.valid_lines(), 4u);
}

TEST(Cache, ReenablingWaysKeepsSurvivors) {
  Cache c(small_config());
  for (int i = 0; i < 16; ++i) c.access(64u * i, false);
  c.set_active_ways(2);
  const auto survivors = c.valid_lines();
  c.set_active_ways(4);
  EXPECT_EQ(c.valid_lines(), survivors);  // re-enabling does not drop lines
  EXPECT_EQ(c.active_ways(), 4u);
}

TEST(Cache, WayGatingClamps) {
  Cache c(small_config());
  c.set_active_ways(0);
  EXPECT_EQ(c.active_ways(), 1u);
  c.set_active_ways(99);
  EXPECT_EQ(c.active_ways(), 4u);
}

TEST(Cache, ValidLineAddressesRoundTrip) {
  Cache c(small_config());
  c.access(0x12340, false);
  c.access(0x56780, false);
  const auto lines = c.valid_line_addresses();
  ASSERT_EQ(lines.size(), 2u);
  for (const auto a : lines) {
    EXPECT_TRUE(c.contains(a));
    EXPECT_EQ(a % 64, 0u);
  }
}

// ---------------------------------------------------------------------------
// Reference-model property test: exact LRU per set, compared against the
// Cache under random access streams, across several geometries.
// ---------------------------------------------------------------------------

class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t sets, std::uint32_t ways, std::uint32_t line)
      : sets_(sets), ways_(ways), line_(line), lru_(sets) {}

  bool access(Address addr) {
    const std::uint64_t line_addr = addr / line_;
    const std::uint64_t set = line_addr % sets_;
    auto& order = lru_[set];  // front == MRU
    for (auto it = order.begin(); it != order.end(); ++it) {
      if (*it == line_addr) {
        order.erase(it);
        order.push_front(line_addr);
        return true;
      }
    }
    order.push_front(line_addr);
    if (order.size() > ways_) order.pop_back();
    return false;
  }

 private:
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint32_t line_;
  std::vector<std::list<std::uint64_t>> lru_;
};

struct Geometry {
  std::uint64_t size;
  std::uint32_t line;
  std::uint32_t ways;
};

// Names the ctest entries (gtest would otherwise print the raw bytes).
void PrintTo(const Geometry& g, std::ostream* os) {
  *os << (g.size >> 10) << "KiB_Line" << g.line << "_Ways" << g.ways;
}

class CacheVsReference : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheVsReference, RandomStreamMatchesExactLru) {
  const Geometry g = GetParam();
  Cache cache({.name = "p", .size_bytes = g.size, .line_bytes = g.line,
               .ways = g.ways});
  ReferenceLru reference(cache.sets(), g.ways, g.line);
  util::Rng rng(g.size ^ g.ways);
  // Footprint ~4x the cache so hits and misses both occur.
  const std::uint64_t span = g.size * 4;
  for (int i = 0; i < 20000; ++i) {
    // Mix of random and sequential accesses.
    const Address addr = (i % 3 == 0) ? (static_cast<Address>(i) * g.line) % span
                                      : rng.below(span);
    const bool hit = cache.access(addr, rng.chance(0.3)).hit;
    const bool ref_hit = reference.access(addr);
    ASSERT_EQ(hit, ref_hit) << "divergence at access " << i << " addr " << addr;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Geometry{1024, 64, 4}, Geometry{4096, 64, 8},
                      Geometry{8192, 32, 2}, Geometry{32 * 1024, 64, 8},
                      Geometry{64 * 1024, 128, 16},
                      Geometry{20 * 1024, 64, 20} /* 16 sets x 20 ways */));

// Hit-after-access property across random gating.
class CacheGatingProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheGatingProperty, JustAccessedLineHitsUntilConflict) {
  Cache c({.name = "g", .size_bytes = 8192, .line_bytes = 64, .ways = 8});
  util::Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    if (rng.chance(0.01)) {
      c.set_active_ways(1 + static_cast<std::uint32_t>(rng.below(8)));
    }
    const Address addr = rng.below(64 * 1024);
    c.access(addr, false);
    // Immediately re-accessing the same line must hit (it is MRU).
    EXPECT_TRUE(c.access(addr, false).hit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheGatingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Storage of the control-line and tag arrays (util::ZeroPageCellAllocator).

#if defined(__linux__)
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}
#endif

// A long-lived node (a scheduler slot that only idles and answers IPMI) is
// built off the arena, where the cache arrays are zero pages: a Romley
// node's 20 MiB L3 alone holds 3.5 MiB of control lines and tags, and none
// of it may become resident before the simulation writes it.
TEST(CacheStorage, OffArenaNodesCostOnlyTheirTouchedPages) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads /proc/self/statm";
#else
  ASSERT_EQ(util::current_cell_arena(), nullptr);
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(8);
  const std::int64_t before = resident_bytes();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    nodes.push_back(std::make_unique<sim::Node>(machine, seed));
  }
  const std::int64_t grown = resident_bytes() - before;
  EXPECT_LT(grown, std::int64_t{8} << 20)
      << "8 idle nodes made " << grown / 1024 << " KiB resident";
#endif
}

// An arena block holds the bytes of the cell that used it last; a cache
// built on it must still start empty.
TEST(CacheStorage, ArenaCacheOnDirtiedMemoryStartsEmpty) {
  const CacheConfig config{
      .name = "L2", .size_bytes = 256 * 1024, .line_bytes = 64, .ways = 8};
  {
    util::CellArenaScope scope;
    ASSERT_NE(util::current_cell_arena(), nullptr);
    Cache dirty(config);
    for (Address a = 0; a < 2 * config.size_bytes; a += 64) {
      dirty.access(a, /*is_write=*/true);
    }
    ASSERT_EQ(dirty.valid_lines(), config.size_bytes / config.line_bytes);
  }
  util::CellArenaScope scope;
  Cache fresh(config);
  EXPECT_EQ(fresh.valid_lines(), 0u);
  EXPECT_FALSE(fresh.contains(2 * config.size_bytes - 64));
  EXPECT_FALSE(fresh.access(2 * config.size_bytes - 64, false).hit);
}

struct CellOutcome {
  sim::RunReport report;
  std::array<std::uint64_t, pmu::kEventCount> bank{};
};

// A stereo-like chunk: a 2 MiB hot set that stays resident in the L3, so a
// node that inherited the previous cell's lines would hit where a fresh
// node misses.
CellOutcome run_cell(const sim::MachineConfig& machine) {
  sim::Node node(machine, 7);
  apps::MemoryBoundWorkload chunk(2ull << 20, 9000, 192);
  CellOutcome out;
  out.report = node.run(chunk);
  out.bank = node.counters().snapshot();
  return out;
}

TEST(CacheStorage, NodeOnDirtiedArenaMatchesOffArenaNode) {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  ASSERT_EQ(util::current_cell_arena(), nullptr);
  const CellOutcome reference = run_cell(machine);
  {
    util::CellArenaScope scope;
    ASSERT_NE(util::current_cell_arena(), nullptr);
    (void)run_cell(machine);  // leaves its cache state in the arena
  }
  util::CellArenaScope scope;
  const CellOutcome recycled = run_cell(machine);
  EXPECT_EQ(recycled.report.elapsed, reference.report.elapsed);
  EXPECT_EQ(recycled.report.energy_j, reference.report.energy_j);
  EXPECT_EQ(recycled.report.avg_power_w, reference.report.avg_power_w);
  EXPECT_EQ(recycled.report.peak_power_w, reference.report.peak_power_w);
  EXPECT_EQ(recycled.report.avg_frequency, reference.report.avg_frequency);
  EXPECT_EQ(recycled.report.avg_duty, reference.report.avg_duty);
  EXPECT_EQ(recycled.report.final_temperature_c,
            reference.report.final_temperature_c);
  EXPECT_EQ(recycled.report.counters, reference.report.counters);
  EXPECT_EQ(recycled.bank, reference.bank);
}

}  // namespace
}  // namespace pcap::cache
