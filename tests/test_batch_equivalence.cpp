// Equivalence tests for the batched access APIs: the fast paths may change
// how fast the simulator runs, never what it computes. Pairs of identically
// configured components are driven with the same logical operation stream —
// one through the batched entry points, one through the per-operation loop —
// and every observable (the picosecond clock, PMU counters, structural
// cache/TLB stats and resident lines) must match bit for bit. Also pins the
// jobs-invariance of the study runner: StudyConfig{jobs=8} returns a
// bit-identical StudyResult to jobs=1.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "apps/stride/stride.hpp"
#include "harness/experiment.hpp"
#include "pmu/counters.hpp"
#include "power/pstate.hpp"
#include "sim/execution_context.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace pcap {
namespace {

// --- bare hierarchy, stream vs per-op ---------------------------------------

/// Never ticks: every op completes before the horizon, so stream groups
/// are bounded only by the same-line run and the I-fetch slot.
class NeverTicks final : public sim::TickSink {
 public:
  void on_op() override {}
  util::Picoseconds op_horizon() const override {
    return std::numeric_limits<util::Picoseconds>::max();
  }
};

/// Two ExecutionContexts over identically configured bare hierarchies and
/// cores (no Node): `streamed` narrates each walk through load_stream/
/// store_stream, `looped` through the equivalent per-op load/store calls.
class HierarchyPair {
 public:
  HierarchyPair()
      : config_(sim::MachineConfig::romley()),
        pstates_(power::PStateTable::romley_e5_2680()),
        streamed_hierarchy_(config_.hierarchy, streamed_bank_),
        looped_hierarchy_(config_.hierarchy, looped_bank_),
        streamed_core_(config_.core, pstates_, streamed_bank_),
        looped_core_(config_.core, pstates_, looped_bank_),
        streamed_(streamed_hierarchy_, streamed_core_, sink_, config_),
        looped_(looped_hierarchy_, looped_core_, sink_, config_) {}

  void run_stream(sim::Address base, std::int64_t stride, std::uint64_t count,
                  bool is_store) {
    if (is_store) {
      streamed_.store_stream(base, stride, count);
    } else {
      streamed_.load_stream(base, stride, count);
    }
    sim::Address addr = base;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (is_store) {
        looped_.store(addr);
      } else {
        looped_.load(addr);
      }
      addr += static_cast<sim::Address>(stride);
    }
    ASSERT_EQ(streamed_.now(), looped_.now())
        << "base=" << base << " stride=" << stride << " count=" << count;
    expect_equal_state();
  }

  void expect_equal_state() {
    ASSERT_EQ(streamed_bank_.snapshot(), looped_bank_.snapshot());
    expect_equal_cache(streamed_hierarchy_.l1i(), looped_hierarchy_.l1i());
    expect_equal_cache(streamed_hierarchy_.l1d(), looped_hierarchy_.l1d());
    expect_equal_cache(streamed_hierarchy_.l2(), looped_hierarchy_.l2());
    expect_equal_cache(streamed_hierarchy_.l3(), looped_hierarchy_.l3());
    expect_equal_tlb(streamed_hierarchy_.itlb(), looped_hierarchy_.itlb());
    expect_equal_tlb(streamed_hierarchy_.dtlb(), looped_hierarchy_.dtlb());
  }

  /// Applies the same reconfiguration to both hierarchies.
  template <typename F>
  void on_both(F&& f) {
    f(streamed_hierarchy_);
    f(looped_hierarchy_);
  }

 private:
  static void expect_equal_cache(const cache::Cache& a, const cache::Cache& b) {
    ASSERT_EQ(a.stats().accesses, b.stats().accesses) << a.config().name;
    ASSERT_EQ(a.stats().hits, b.stats().hits) << a.config().name;
    ASSERT_EQ(a.stats().misses, b.stats().misses) << a.config().name;
    ASSERT_EQ(a.stats().evictions, b.stats().evictions) << a.config().name;
    ASSERT_EQ(a.stats().invalidations, b.stats().invalidations)
        << a.config().name;
    ASSERT_EQ(a.valid_line_addresses(), b.valid_line_addresses())
        << a.config().name;
  }
  static void expect_equal_tlb(const cache::Tlb& a, const cache::Tlb& b) {
    ASSERT_EQ(a.stats().accesses, b.stats().accesses) << a.config().name;
    ASSERT_EQ(a.stats().misses, b.stats().misses) << a.config().name;
  }

  sim::MachineConfig config_;
  power::PStateTable pstates_;
  NeverTicks sink_;
  pmu::CounterBank streamed_bank_;
  pmu::CounterBank looped_bank_;
  sim::MemoryHierarchy streamed_hierarchy_;
  sim::MemoryHierarchy looped_hierarchy_;
  sim::CoreModel streamed_core_;
  sim::CoreModel looped_core_;
  sim::ExecutionContext streamed_;
  sim::ExecutionContext looped_;
};

TEST(BatchEquivalence, HierarchyStreamRandomGrid) {
  HierarchyPair pair;
  util::Rng rng(31);
  const std::int64_t strides[] = {0,  1,   -1,  8,    -8,   63,   64,
                                  65, 256, -256, 4096, -4096, 65536};
  for (int trial = 0; trial < 300; ++trial) {
    const sim::Address base = rng.below(1ull << 24) + (1ull << 22);
    const std::int64_t stride = strides[rng.below(std::size(strides))];
    const std::uint64_t count = 1 + rng.below(400);
    pair.run_stream(base, stride, count, rng.chance(0.5));
  }
}

TEST(BatchEquivalence, HierarchyStreamHotLoop) {
  // Same small buffer revisited: maximally fast-path-friendly (every access
  // after warmup is an MRU/TLB hit), which is where a bug in the analytic
  // accounting would hide.
  HierarchyPair pair;
  for (int pass = 0; pass < 50; ++pass) {
    pair.run_stream(0x10000, 8, 512, /*is_store=*/false);
    pair.run_stream(0x10000, 8, 512, /*is_store=*/true);
    pair.run_stream(0x10000, 0, 173, /*is_store=*/false);
  }
}

TEST(BatchEquivalence, HierarchyWholeSetSweeps) {
  // Line-stride walks over resident pages: every op leads its own line, so
  // each one takes the full access path. Each shape runs twice — the
  // second pass finds every line its set's MRU.
  HierarchyPair pair;
  for (const bool is_store : {false, true}) {
    for (int pass = 0; pass < 2; ++pass) {
      // Full page at exactly line stride, aligned and unaligned bases.
      pair.run_stream(0x40000, 64, 64, is_store);
      pair.run_stream(0x40030, 64, 64, is_store);
      // Every other line (stride 128) and a page-boundary crossing.
      pair.run_stream(0x40000, 128, 32, is_store);
      pair.run_stream(0x40F80, 64, 8, is_store);
    }
  }
  // A line evicted mid-walk: alias 8 pages onto the same L1 sets so the
  // line at offset 48*64 of the first page is evicted, then walk that page
  // and its dead line.
  for (int p = 0; p < 8; ++p) {
    pair.run_stream(0x200000 + static_cast<sim::Address>(p) * 4096 + 48 * 64,
                    64, 1, /*is_store=*/false);
  }
  pair.run_stream(0x200000, 64, 64, /*is_store=*/false);
  // Repeats per line (stride < 64): same-line runs batch between fetches.
  pair.run_stream(0x40000, 8, 512, /*is_store=*/false);
  pair.run_stream(0x40000, 16, 256, /*is_store=*/true);
}

TEST(BatchEquivalence, HierarchyStreamAcrossGatingChanges) {
  // Gating reconfigures capacity/associativity mid-stream-sequence exactly
  // as the BMC's escalation ladder does; the fast path must keep agreeing.
  HierarchyPair pair;
  util::Rng rng(32);
  for (int round = 0; round < 12; ++round) {
    for (int trial = 0; trial < 20; ++trial) {
      pair.run_stream(rng.below(1ull << 22), 8 * (1 + rng.below(8)),
                      1 + rng.below(300), rng.chance(0.5));
    }
    const std::uint32_t l3_ways = 4 + static_cast<std::uint32_t>(rng.below(17));
    const std::uint32_t itlb = 4 + static_cast<std::uint32_t>(rng.below(45));
    const std::uint32_t dtlb = 4 + static_cast<std::uint32_t>(rng.below(61));
    pair.on_both([&](sim::MemoryHierarchy& h) {
      h.set_l3_ways(l3_ways);
      h.set_itlb_entries(itlb);
      h.set_dtlb_entries(dtlb);
      if (round == 6) h.flush_tlbs();
    });
  }
  pair.expect_equal_state();
}

// --- execution-context level ------------------------------------------------

// Two identically seeded nodes; `streamed` narrates through the batch APIs,
// `looped` through the equivalent per-op calls. on_op()/op_horizon() tick
// elision, fetch accounting and the float time carry are all in play.
class NodePair : public ::testing::Test {
 protected:
  NodePair()
      : streamed_node_(sim::MachineConfig::romley()),
        looped_node_(sim::MachineConfig::romley()),
        streamed_(streamed_node_),
        looped_(looped_node_) {}

  sim::Address alloc_both(std::uint64_t bytes) {
    const sim::Address a = streamed_.alloc(bytes);
    const sim::Address b = looped_.alloc(bytes);
    EXPECT_EQ(a, b);
    return a;
  }

  void expect_equal_state() {
    ASSERT_EQ(streamed_.now(), looped_.now());
    ASSERT_EQ(streamed_node_.counters().snapshot(),
              looped_node_.counters().snapshot());
  }

  sim::Node streamed_node_;
  sim::Node looped_node_;
  sim::ExecutionContext streamed_;
  sim::ExecutionContext looped_;
};

TEST_F(NodePair, LoadAndStoreStreams) {
  const sim::Address base = alloc_both(4 * 1024 * 1024);
  util::Rng rng(41);
  for (int trial = 0; trial < 120; ++trial) {
    const sim::Address start = base + rng.below(2 * 1024 * 1024);
    const std::int64_t stride =
        static_cast<std::int64_t>(rng.below(129)) - 64;
    const std::uint64_t count = 1 + rng.below(1500);
    const bool is_store = rng.chance(0.4);
    if (is_store) {
      streamed_.store_stream(start, stride, count);
      for (std::uint64_t k = 0; k < count; ++k) {
        looped_.store(start + static_cast<sim::Address>(stride) * k);
      }
    } else {
      streamed_.load_stream(start, stride, count);
      for (std::uint64_t k = 0; k < count; ++k) {
        looped_.load(start + static_cast<sim::Address>(stride) * k);
      }
    }
    expect_equal_state();
  }
}

TEST_F(NodePair, RmwStream) {
  const sim::Address base = alloc_both(1 * 1024 * 1024);
  util::Rng rng(42);
  for (int trial = 0; trial < 80; ++trial) {
    const sim::Address start = base + rng.below(512 * 1024);
    const std::int64_t stride = static_cast<std::int64_t>(8 * rng.below(16));
    const std::uint64_t count = 1 + rng.below(800);
    const std::uint64_t uops = rng.below(5);
    streamed_.rmw_stream(start, stride, count, uops);
    for (std::uint64_t k = 0; k < count; ++k) {
      const sim::Address a = start + static_cast<sim::Address>(stride) * k;
      looped_.load(a);
      looped_.store(a);
      if (uops != 0) looped_.compute(uops);
    }
    expect_equal_state();
  }
}

TEST_F(NodePair, PatternStream) {
  using StreamOp = sim::ExecutionContext::StreamOp;
  const sim::Address a = alloc_both(256 * 1024);
  const sim::Address b = alloc_both(256 * 1024);
  const sim::Address c = alloc_both(256 * 1024);
  util::Rng rng(43);
  for (int trial = 0; trial < 60; ++trial) {
    const sim::Address off = rng.below(64 * 1024);
    const StreamOp ops[3] = {
        {.kind = StreamOp::Kind::kLoad, .base = a + off},
        {.kind = StreamOp::Kind::kLoad, .base = b + off},
        {.kind = StreamOp::Kind::kStore, .base = c + off},
    };
    const std::int64_t stride = static_cast<std::int64_t>(4 * rng.below(12));
    const std::uint64_t count = 1 + rng.below(600);
    const std::uint64_t uops = rng.below(9);
    streamed_.pattern_stream(ops, stride, count, uops);
    for (std::uint64_t k = 0; k < count; ++k) {
      const sim::Address o = static_cast<sim::Address>(stride) * k;
      looped_.load(a + off + o);
      looped_.load(b + off + o);
      looped_.store(c + off + o);
      if (uops != 0) looped_.compute(uops);
    }
    expect_equal_state();
  }
}

TEST_F(NodePair, StreamsInterleavedWithScalarOps) {
  // Mix batched and scalar narration so streams start from arbitrary fetch
  // accumulator positions and time-carry values.
  const sim::Address base = alloc_both(2 * 1024 * 1024);
  util::Rng rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t warm = rng.below(7);
    for (std::uint64_t i = 0; i < warm; ++i) {
      const sim::Address addr = base + rng.below(1024 * 1024);
      streamed_.load(addr);
      looped_.load(addr);
    }
    const std::uint64_t uops = rng.below(4);
    if (uops != 0) {
      streamed_.compute(uops);
      looped_.compute(uops);
    }
    const sim::Address start = base + rng.below(1024 * 1024);
    const std::uint64_t count = 1 + rng.below(900);
    streamed_.load_stream(start, 8, count);
    for (std::uint64_t k = 0; k < count; ++k) looped_.load(start + 8 * k);
    expect_equal_state();
  }
}

// --- study runner -----------------------------------------------------------

TEST(BatchEquivalence, StudyJobsInvariant) {
  // Each cell owns a fresh identically-seeded node whether cells run inline
  // or on the pool, so the whole StudyResult must be bit-identical.
  apps::stride::StrideConfig stride_config;
  stride_config.min_array_bytes = 4 * 1024;
  stride_config.max_array_bytes = 32 * 1024;
  stride_config.touches_per_cell = 2000;
  const harness::WorkloadFactory factory = [stride_config] {
    return std::make_unique<apps::stride::StrideWorkload>(stride_config);
  };
  harness::StudyConfig serial;
  serial.caps_w = {150.0, 130.0};
  serial.repetitions = 1;
  harness::StudyConfig parallel = serial;
  parallel.jobs = 8;

  const harness::StudyResult a =
      harness::run_power_cap_study("stride", factory, serial);
  const harness::StudyResult b =
      harness::run_power_cap_study("stride", factory, parallel);

  auto expect_cells_equal = [](const harness::CellStats& x,
                               const harness::CellStats& y) {
    ASSERT_EQ(x.cap_w.has_value(), y.cap_w.has_value());
    if (x.cap_w) {
      ASSERT_EQ(*x.cap_w, *y.cap_w);
    }
    ASSERT_EQ(x.repetitions, y.repetitions);
    ASSERT_EQ(x.time_s, y.time_s);
    ASSERT_EQ(x.time_stddev_s, y.time_stddev_s);
    ASSERT_EQ(x.avg_power_w, y.avg_power_w);
    ASSERT_EQ(x.power_stddev_w, y.power_stddev_w);
    ASSERT_EQ(x.energy_j, y.energy_j);
    ASSERT_EQ(x.avg_frequency, y.avg_frequency);
    ASSERT_EQ(x.avg_duty, y.avg_duty);
    ASSERT_EQ(x.counters, y.counters);
  };
  expect_cells_equal(a.baseline, b.baseline);
  ASSERT_EQ(a.capped.size(), b.capped.size());
  for (std::size_t i = 0; i < a.capped.size(); ++i) {
    expect_cells_equal(a.capped[i], b.capped[i]);
  }
}

}  // namespace
}  // namespace pcap
