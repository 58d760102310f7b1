// Equivalence tests for the batched access APIs: the fast paths may change
// how fast the simulator runs, never what it computes. Pairs of identically
// configured components are driven with the same logical operation stream —
// one through the batched entry points, one through the per-operation loop —
// and every observable (the picosecond clock, PMU counters, structural
// cache/TLB stats and resident lines) must match bit for bit. Also pins the
// jobs-invariance of the study runner: StudyConfig{jobs=8} returns a
// bit-identical StudyResult to jobs=1.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/machine.hpp"
#include "apps/stereo/workload.hpp"
#include "apps/stride/stride.hpp"
#include "cache/cache.hpp"
#include "core/bmc.hpp"
#include "harness/experiment.hpp"
#include "mem/dram.hpp"
#include "pmu/counters.hpp"
#include "power/pstate.hpp"
#include "sim/execution_context.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace pcap {
namespace {

using StreamOp = sim::ExecutionContext::StreamOp;

/// The per-op loop pattern_stream must match: per element k, each op at
/// op.base + k*stride, then compute(uops) when uops != 0.
void loop_pattern(sim::ExecutionContext& ctx, std::span<const StreamOp> ops,
                  std::int64_t stride, std::uint64_t count,
                  std::uint64_t uops) {
  for (std::uint64_t k = 0; k < count; ++k) {
    const sim::Address offset = static_cast<sim::Address>(stride) * k;
    for (const StreamOp& op : ops) {
      if (op.kind == StreamOp::Kind::kStore) {
        ctx.store(op.base + offset);
      } else {
        ctx.load(op.base + offset);
      }
    }
    if (uops != 0) ctx.compute(uops);
  }
}

/// One load or one store of `base` per element.
std::array<StreamOp, 1> unit_op(sim::Address base, bool is_store) {
  return {{{.kind = is_store ? StreamOp::Kind::kStore : StreamOp::Kind::kLoad,
            .base = base}}};
}

/// x[i]++: a load then a store of `base` per element.
std::array<StreamOp, 2> rmw_ops(sim::Address base) {
  return {{{.kind = StreamOp::Kind::kLoad, .base = base},
           {.kind = StreamOp::Kind::kStore, .base = base}}};
}

// --- bare hierarchy, stream vs per-op ---------------------------------------

/// Ticks every `period` of simulated time like the node's OS noise: a
/// pipeline drain plus a TLB flush, so a tick moves the clock and the
/// counters, makes the next fetches walk the ITLB, and an elided or
/// misplaced tick shows. Period 0 never ticks: stream groups are then
/// bounded only by the same-line run and the I-fetches.
class NoiseTicks final : public sim::TickSink {
 public:
  NoiseTicks(sim::CoreModel& core, sim::MemoryHierarchy& hierarchy,
             util::Picoseconds period)
      : core_(&core),
        hierarchy_(&hierarchy),
        period_(period),
        next_(period == 0 ? kNever : period) {}

  void on_op() override {
    if (core_->now() < next_) return;
    hierarchy_->flush_tlbs();
    core_->external_drain();
    next_ = core_->now() + period_;
    ++ticks_;
  }
  util::Picoseconds op_horizon() const override { return next_; }
  std::uint64_t ticks() const { return ticks_; }

 private:
  static constexpr util::Picoseconds kNever =
      std::numeric_limits<util::Picoseconds>::max();
  sim::CoreModel* core_;
  sim::MemoryHierarchy* hierarchy_;
  util::Picoseconds period_;
  util::Picoseconds next_;
  std::uint64_t ticks_ = 0;
};

void expect_equal_cache(const cache::Cache& a, const cache::Cache& b) {
  ASSERT_EQ(a.stats().accesses, b.stats().accesses) << a.config().name;
  ASSERT_EQ(a.stats().hits, b.stats().hits) << a.config().name;
  ASSERT_EQ(a.stats().misses, b.stats().misses) << a.config().name;
  ASSERT_EQ(a.stats().evictions, b.stats().evictions) << a.config().name;
  ASSERT_EQ(a.stats().invalidations, b.stats().invalidations)
      << a.config().name;
  ASSERT_EQ(a.valid_line_addresses(), b.valid_line_addresses())
      << a.config().name;
}

void expect_equal_tlb(const cache::Tlb& a, const cache::Tlb& b) {
  ASSERT_EQ(a.stats().accesses, b.stats().accesses) << a.config().name;
  ASSERT_EQ(a.stats().misses, b.stats().misses) << a.config().name;
}

/// Cache/TLB stats and resident lines of every level.
void expect_equal_hierarchy(const sim::MemoryHierarchy& a,
                            const sim::MemoryHierarchy& b) {
  expect_equal_cache(a.l1i(), b.l1i());
  expect_equal_cache(a.l1d(), b.l1d());
  expect_equal_cache(a.l2(), b.l2());
  expect_equal_cache(a.l3(), b.l3());
  expect_equal_tlb(a.itlb(), b.itlb());
  expect_equal_tlb(a.dtlb(), b.dtlb());
}

/// Two ExecutionContexts over identically configured bare hierarchies and
/// cores (no Node): `streamed` narrates each walk through pattern_stream,
/// `looped` through the equivalent per-op calls.
/// A duty below 1 leaves a fractional time carry after each charge, so the
/// clock also shows a charge that moved to another slot.
class HierarchyPair {
 public:
  explicit HierarchyPair(
      util::Picoseconds tick_period = 0, double duty = 1.0,
      const sim::MachineConfig& config = sim::MachineConfig::romley())
      : config_(config),
        pstates_(power::PStateTable::romley_e5_2680()),
        streamed_l3_(config_.hierarchy.l3),
        looped_l3_(config_.hierarchy.l3),
        streamed_dram_(config_.hierarchy.dram),
        looped_dram_(config_.hierarchy.dram),
        streamed_hierarchy_(config_.hierarchy, streamed_bank_, streamed_l3_,
                            streamed_dram_),
        looped_hierarchy_(config_.hierarchy, looped_bank_, looped_l3_,
                          looped_dram_),
        streamed_core_(config_.core, pstates_, streamed_bank_),
        looped_core_(config_.core, pstates_, looped_bank_),
        streamed_sink_(streamed_core_, streamed_hierarchy_, tick_period),
        looped_sink_(looped_core_, looped_hierarchy_, tick_period),
        streamed_(streamed_hierarchy_, streamed_core_, streamed_sink_, config_),
        looped_(looped_hierarchy_, looped_core_, looped_sink_, config_) {
    streamed_core_.set_duty(duty);
    looped_core_.set_duty(duty);
  }

  void run_pattern(std::span<const StreamOp> ops, std::int64_t stride,
                   std::uint64_t count, std::uint64_t uops) {
    streamed_.pattern_stream(ops, stride, count, uops);
    loop_pattern(looped_, ops, stride, count, uops);
    ASSERT_EQ(streamed_.now(), looped_.now())
        << "ops=" << ops.size() << " base=" << ops[0].base
        << " stride=" << stride << " count=" << count << " uops=" << uops;
    expect_equal_state();
  }

  void run_stream(sim::Address base, std::int64_t stride, std::uint64_t count,
                  bool is_store) {
    run_pattern(unit_op(base, is_store), stride, count, /*uops=*/0);
  }

  void run_rmw(sim::Address base, std::int64_t stride, std::uint64_t count,
               std::uint64_t uops) {
    run_pattern(rmw_ops(base), stride, count, uops);
  }

  void set_code_footprint(std::uint32_t pages) {
    streamed_.set_code_footprint(1, pages);
    looped_.set_code_footprint(1, pages);
  }

  void expect_equal_state() {
    ASSERT_EQ(streamed_sink_.ticks(), looped_sink_.ticks());
    ASSERT_EQ(streamed_bank_.snapshot(), looped_bank_.snapshot());
    expect_equal_hierarchy(streamed_hierarchy_, looped_hierarchy_);
  }

  /// Applies the same reconfiguration to both hierarchies and their L3s.
  template <typename F>
  void on_both(F&& f) {
    f(streamed_hierarchy_, streamed_l3_);
    f(looped_hierarchy_, looped_l3_);
  }

  std::uint64_t ticks() const { return looped_sink_.ticks(); }

 private:
  sim::MachineConfig config_;
  power::PStateTable pstates_;
  cache::Cache streamed_l3_;
  cache::Cache looped_l3_;
  mem::Dram streamed_dram_;
  mem::Dram looped_dram_;
  pmu::CounterBank streamed_bank_;
  pmu::CounterBank looped_bank_;
  sim::MemoryHierarchy streamed_hierarchy_;
  sim::MemoryHierarchy looped_hierarchy_;
  sim::CoreModel streamed_core_;
  sim::CoreModel looped_core_;
  NoiseTicks streamed_sink_;
  NoiseTicks looped_sink_;
  sim::ExecutionContext streamed_;
  sim::ExecutionContext looped_;
};

// The duty cycle of a deep cap; some bare pairs run at it.
constexpr double kCappedDuty = 0.375;

TEST(BatchEquivalence, HierarchyStreamRandomGrid) {
  // Every pattern_stream routing: one load or one store (with and without
  // compute), a load then a store of one base (the grouped shapes), and
  // same-base shapes that must stay on the per-op loop. Run without ticks
  // (groups bounded only by the line and the I-fetches) and with a 500 ns
  // tick period, whose horizon lands inside most same-line runs. The last
  // variant makes every instruction a mispredicted branch at a capped duty,
  // so the group loop's horizon bound is tight (an element costing more
  // than it counts would carry a group past a tick). Its 1-page code
  // footprint lets groups of elements with compute span fetch slots, and
  // its 2 us period (about 30 such elements) leaves room for groups to
  // reach the horizon between the ITLB walks each tick's flush causes.
  sim::MachineConfig mispredicting = sim::MachineConfig::romley();
  mispredicting.core.branch_fraction = 1.0;
  mispredicting.core.mispredict_rate = 1.0;
  struct Variant {
    util::Picoseconds tick_period;
    double duty;
    sim::MachineConfig config;
    std::uint32_t code_pages;
  };
  const Variant variants[] = {
      {0, 1.0, sim::MachineConfig::romley(), 8},
      {util::nanoseconds(500), 1.0, sim::MachineConfig::romley(), 8},
      {util::nanoseconds(2000), kCappedDuty, mispredicting, 1},
  };
  const std::int64_t strides[] = {0,  1,   -1,  8,    -8,   63,   64,
                                  65, 256, -256, 4096, -4096, 65536};
  const std::uint64_t unit_uops[] = {0, 1, 3};
  for (const Variant& v : variants) {
    HierarchyPair pair(v.tick_period, v.duty, v.config);
    pair.set_code_footprint(v.code_pages);
    util::Rng rng(31);
    for (int trial = 0; trial < 300; ++trial) {
      const sim::Address base = rng.below(1ull << 24) + (1ull << 22);
      const std::int64_t stride = strides[rng.below(std::size(strides))];
      const std::uint64_t count = 1 + rng.below(400);
      switch (rng.below(4)) {
        case 0: {
          const std::uint64_t uops = unit_uops[rng.below(std::size(unit_uops))];
          pair.run_pattern(unit_op(base, rng.chance(0.5)), stride, count, uops);
          break;
        }
        case 1:
          pair.run_rmw(base, stride, count, rng.below(4));
          break;
        case 2: {
          const StreamOp store_load[2] = {
              {.kind = StreamOp::Kind::kStore, .base = base},
              {.kind = StreamOp::Kind::kLoad, .base = base},
          };
          pair.run_pattern(store_load, stride, count, rng.below(4));
          break;
        }
        default: {
          const StreamOp load_load[2] = {
              {.kind = StreamOp::Kind::kLoad, .base = base},
              {.kind = StreamOp::Kind::kLoad, .base = base},
          };
          pair.run_pattern(load_load, stride, count, rng.below(4));
          break;
        }
      }
    }
    if (v.tick_period != 0) {
      EXPECT_GT(pair.ticks(), 100u);
    }
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
    pair.on_both([&](sim::MemoryHierarchy& h, cache::Cache& l3) {
      // The node's L3 gating: a shrink flushes the private levels.
      const bool shrinking = l3_ways < l3.active_ways();
      l3.set_active_ways(l3_ways);
      if (shrinking) h.flush_private();
      h.set_itlb_entries(itlb);
      h.set_dtlb_entries(dtlb);
      if (round == 6) h.flush_tlbs();
    });
  }
  pair.expect_equal_state();
}

// --- groups spanning I-fetch slots ------------------------------------------

// A 1-page code footprint (the stride workload's) puts each fetch line alone
// in its L1I set, so once warm every fetch is a provable L1I-MRU + ITLB hit
// and a same-line group may span fetch slots. A 2-page footprint puts two
// fetch lines in each set: the fetches still hit L1I but not its MRU line,
// so groups fall back to ending at the next fetch slot.

/// The stride workload's shapes over a hot 32 KB buffer: load-then-store
/// elements (uops 2) at strides 8/16/32, then lone loads and lone stores
/// at stride 8. Three passes, so later ones run with every fetch warm.
void run_fetch_shapes(HierarchyPair& pair) {
  constexpr sim::Address kBase = 0x40000;
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::int64_t stride : {8, 16, 32}) {
      pair.run_rmw(kBase, stride, 1024, 2);
    }
    pair.run_stream(kBase, 8, 2048, /*is_store=*/false);
    pair.run_stream(kBase, 8, 2048, /*is_store=*/true);
  }
}

TEST(BatchEquivalence, FetchSpanningGroupsOneCodePage) {
  HierarchyPair pair(/*tick_period=*/0, kCappedDuty);
  pair.set_code_footprint(1);
  run_fetch_shapes(pair);
}

TEST(BatchEquivalence, FetchSpanningGroupsFallBackOnTwoCodePages) {
  HierarchyPair pair(/*tick_period=*/0, kCappedDuty);
  pair.set_code_footprint(2);
  run_fetch_shapes(pair);
}

TEST(BatchEquivalence, FetchSpanningGroupsWithTickHorizonInside) {
  // A 500 ns tick period lands the horizon inside a same-line run in most
  // periods, and each tick's TLB flush makes the next fetch an ITLB miss.
  HierarchyPair pair(util::nanoseconds(500), kCappedDuty);
  pair.set_code_footprint(1);
  run_fetch_shapes(pair);
  EXPECT_GT(pair.ticks(), 100u);
}

TEST(BatchEquivalence, FetchSpanningGroupsStopAtItlbMisses) {
  // A fetch whose line is L1I-MRU but whose page left the ITLB (each tick
  // flushes it) walks the page table. Walks of ~2 us (2000 cycles at duty
  // 0.375) and a 3.75 us tick period put the tick horizon between the
  // lead op's DTLB walk and the first fetch's ITLB walk: a fetch walk
  // charged after its group instead of in its slot would move that tick,
  // and the DTLB flush with it, past the rest of the group.
  sim::MachineConfig config = sim::MachineConfig::romley();
  config.hierarchy.tlb_walk_cycles = 2000;
  HierarchyPair pair(util::nanoseconds(3750), kCappedDuty, config);
  pair.set_code_footprint(1);
  run_fetch_shapes(pair);
  EXPECT_GT(pair.ticks(), 100u);
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
    const auto op = unit_op(start, rng.chance(0.4));
    streamed_.pattern_stream(op, stride, count, /*uops=*/0);
    loop_pattern(looped_, op, stride, count, /*uops=*/0);
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
    const auto ops = rmw_ops(start);
    streamed_.pattern_stream(ops, stride, count, uops);
    loop_pattern(looped_, ops, stride, count, uops);
    expect_equal_state();
  }
}

TEST_F(NodePair, PatternStream) {
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
    loop_pattern(looped_, ops, stride, count, uops);
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
    const auto op = unit_op(start, /*is_store=*/false);
    streamed_.pattern_stream(op, 8, count, /*uops=*/0);
    loop_pattern(looped_, op, 8, count, /*uops=*/0);
    expect_equal_state();
  }
}

// --- capped node ------------------------------------------------------------

/// Runs on a node capped at 120 W: DRAM-bound per-op loads until the BMC's
/// ladder has gated L3 ways and cut the duty cycle, then the fetch-spanning
/// shapes under 1- and 2-page code footprints, through the stream APIs
/// (`streamed`) or the equivalent per-op loop. Node ticks (power, BMC
/// control, OS noise) fall inside the shapes' same-line runs.
class CappedFetchShapes final : public sim::Workload {
 public:
  CappedFetchShapes(const sim::Node& node, bool streamed)
      : node_(&node), streamed_(streamed) {}

  std::string name() const override { return "capped-fetch-shapes"; }

  void run(sim::ExecutionContext& ctx) override {
    constexpr std::uint64_t kWarmBytes = 64ull << 20;
    const sim::Address warm = ctx.alloc(kWarmBytes);
    const sim::Address hot = ctx.alloc(32 * 1024);
    for (std::uint64_t i = 0; i < 4'000'000 && !throttled(); ++i) {
      ctx.load(warm + (i * 64) % kWarmBytes);
    }
    throttled_before_shapes_ = throttled();
    for (const std::uint32_t pages : {1u, 2u}) {
      ctx.set_code_footprint(1, pages);
      for (int pass = 0; pass < 3; ++pass) {
        for (const std::int64_t stride : {8, 16, 32}) {
          narrate(ctx, rmw_ops(hot), stride, 1024, 2);
        }
        narrate(ctx, unit_op(hot, /*is_store=*/false), 8, 2048, 0);
        narrate(ctx, unit_op(hot, /*is_store=*/true), 8, 2048, 0);
      }
    }
  }

  bool throttled_before_shapes() const { return throttled_before_shapes_; }

 private:
  bool throttled() const {
    return node_->duty() < 1.0 &&
           node_->l3_ways() < node_->config().hierarchy.l3.ways;
  }

  void narrate(sim::ExecutionContext& ctx, std::span<const StreamOp> ops,
               std::int64_t stride, std::uint64_t count,
               std::uint64_t uops) const {
    if (streamed_) {
      ctx.pattern_stream(ops, stride, count, uops);
    } else {
      loop_pattern(ctx, ops, stride, count, uops);
    }
  }

  const sim::Node* node_;
  bool streamed_;
  bool throttled_before_shapes_ = false;
};

TEST(BatchEquivalence, FetchSpanningGroupsOnNodeCappedAt120W) {
  sim::Node streamed_node(sim::MachineConfig::romley());
  sim::Node looped_node(sim::MachineConfig::romley());
  core::Bmc streamed_bmc(streamed_node);
  core::Bmc looped_bmc(looped_node);
  streamed_node.set_control_hook(
      [&](sim::PlatformControl&) { streamed_bmc.on_control_tick(); });
  looped_node.set_control_hook(
      [&](sim::PlatformControl&) { looped_bmc.on_control_tick(); });
  streamed_bmc.set_cap(120.0);
  looped_bmc.set_cap(120.0);
  CappedFetchShapes streamed(streamed_node, /*streamed=*/true);
  CappedFetchShapes looped(looped_node, /*streamed=*/false);

  const sim::RunReport a = streamed_node.run(streamed);
  const sim::RunReport b = looped_node.run(looped);

  ASSERT_TRUE(looped.throttled_before_shapes());
  ASSERT_TRUE(streamed.throttled_before_shapes());
  ASSERT_EQ(a.elapsed, b.elapsed);
  ASSERT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.energy_j, b.energy_j);
  ASSERT_EQ(streamed_node.counters().snapshot(),
            looped_node.counters().snapshot());
  expect_equal_hierarchy(streamed_node.hierarchy(), looped_node.hierarchy());
}

// --- a whole application ---------------------------------------------------

/// SimMachine with every pattern_stream expanded into the documented per-op
/// loop; the kernels are templates over the machine, so they pick this
/// pattern_stream up statically.
class PerOpMachine : public apps::SimMachine {
 public:
  explicit PerOpMachine(sim::ExecutionContext& ctx)
      : apps::SimMachine(ctx), ctx_(&ctx) {}
  void pattern_stream(std::span<const StreamOp> ops, std::int64_t stride,
                      std::uint64_t count, std::uint64_t uops) {
    loop_pattern(*ctx_, ops, stride, count, uops);
  }

 private:
  sim::ExecutionContext* ctx_;
};

/// StereoWorkload::run, narrated through PerOpMachine.
class PerOpStereo final : public sim::Workload {
 public:
  explicit PerOpStereo(const apps::stereo::StereoWorkload& app) : app_(&app) {}
  std::string name() const override { return "stereo per-op"; }
  void run(sim::ExecutionContext& ctx) override {
    PerOpMachine m(ctx);
    const apps::stereo::StereoPair& pair = app_->pair();
    const apps::Address left = m.alloc(pair.pixels() * sizeof(float));
    const apps::Address right = m.alloc(pair.pixels() * sizeof(float));
    const apps::Address volume = m.alloc(static_cast<std::uint64_t>(
        pair.max_disparity * pair.pixels() * sizeof(std::uint16_t)));
    const apps::Address disparity = m.alloc(pair.pixels());
    const apps::stereo::CostVolume vol = apps::stereo::build_cost_volume(
        m, pair, app_->params().window, left, right, volume);
    result_ = apps::stereo::anneal_disparity(m, vol, app_->params().anneal,
                                             volume, disparity);
  }
  const apps::stereo::AnnealResult& result() const { return result_; }

 private:
  const apps::stereo::StereoWorkload* app_;
  apps::stereo::AnnealResult result_;
};

TEST(BatchEquivalence, StereoAppMatchesPerOp) {
  // The whole stereo application, OS noise on, on nodes the BMC holds at
  // 120 W: every pattern_stream the kernels issue, with the throttle ladder
  // engaged, must leave the node exactly where the per-op loop leaves it.
  sim::Node streamed_node(sim::MachineConfig::romley());
  sim::Node looped_node(sim::MachineConfig::romley());
  core::Bmc streamed_bmc(streamed_node);
  core::Bmc looped_bmc(looped_node);
  streamed_node.set_control_hook(
      [&](sim::PlatformControl&) { streamed_bmc.on_control_tick(); });
  looped_node.set_control_hook(
      [&](sim::PlatformControl&) { looped_bmc.on_control_tick(); });
  streamed_bmc.set_cap(120.0);
  looped_bmc.set_cap(120.0);
  apps::stereo::StereoWorkload streamed(apps::stereo::StereoParams::quick());
  PerOpStereo looped(streamed);

  const sim::RunReport a = streamed_node.run(streamed);
  const sim::RunReport b = looped_node.run(looped);

  ASSERT_GT(a.counter(pmu::Event::kLdIns), 100000u);
  ASSERT_GT(streamed_bmc.level_changes(), 0u);  // the cap bit
  ASSERT_EQ(streamed_bmc.level_changes(), looped_bmc.level_changes());
  ASSERT_EQ(a.elapsed, b.elapsed);
  ASSERT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.energy_j, b.energy_j);
  ASSERT_EQ(streamed_node.counters().snapshot(),
            looped_node.counters().snapshot());
  expect_equal_hierarchy(streamed_node.hierarchy(), looped_node.hierarchy());
  EXPECT_EQ(streamed.last_result().disparity, looped.result().disparity);
  EXPECT_EQ(streamed.last_result().final_energy, looped.result().final_energy);
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
