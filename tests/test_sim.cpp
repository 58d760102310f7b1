// Unit tests for the simulator: memory hierarchy composition and counter
// identities, the core timing model, the execution context (including the
// instruction-fetch/code-footprint model), and the Node's power/metering/
// tick machinery.
#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "pmu/counters.hpp"
#include "sim/core_model.hpp"
#include "sim/execution_context.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace pcap::sim {
namespace {

using pmu::Event;

// --- MemoryHierarchy ---

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() : hierarchy_(MachineConfig::romley().hierarchy, bank_) {}
  pmu::CounterBank bank_;
  MemoryHierarchy hierarchy_;
};

TEST_F(HierarchyTest, ColdLoadReachesDram) {
  const AccessLatency lat = hierarchy_.access(0x100000, AccessType::kLoad);
  EXPECT_EQ(bank_.get(Event::kL1Dca), 1u);
  EXPECT_EQ(bank_.get(Event::kL1Dcm), 1u);
  EXPECT_EQ(bank_.get(Event::kL2Tcm), 1u);
  EXPECT_EQ(bank_.get(Event::kL3Tcm), 1u);
  EXPECT_EQ(bank_.get(Event::kDramAcc), 1u);
  EXPECT_EQ(bank_.get(Event::kTlbDm), 1u);
  // Cycles: walk + L1 + L2 + L3 extra latencies.
  const auto& h = hierarchy_.config();
  EXPECT_EQ(lat.cycles, h.tlb_walk_cycles + h.l1_hit_cycles +
                            h.l2_extra_cycles + h.l3_extra_cycles);
  EXPECT_GT(lat.fixed_ps, 0u);
}

TEST_F(HierarchyTest, WarmLoadHitsL1) {
  hierarchy_.access(0x100000, AccessType::kLoad);
  const AccessLatency lat = hierarchy_.access(0x100000, AccessType::kLoad);
  EXPECT_EQ(lat.cycles, hierarchy_.config().l1_hit_cycles);
  EXPECT_EQ(lat.fixed_ps, 0u);
}

TEST_F(HierarchyTest, CounterIdentities) {
  util::Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const Address addr = rng.below(64ull << 20);
    const auto type = rng.chance(0.2) ? AccessType::kFetch
                      : rng.chance(0.4) ? AccessType::kStore
                                        : AccessType::kLoad;
    hierarchy_.access(addr, type);
  }
  // L2 accesses == L1D misses + L1I misses.
  EXPECT_EQ(bank_.get(Event::kL2Tca),
            bank_.get(Event::kL1Dcm) + bank_.get(Event::kL1Icm));
  // L3 accesses == L2 misses; DRAM accesses == L3 misses.
  EXPECT_EQ(bank_.get(Event::kL3Tca), bank_.get(Event::kL2Tcm));
  EXPECT_EQ(bank_.get(Event::kDramAcc), bank_.get(Event::kL3Tcm));
  // Hits cannot exceed accesses.
  EXPECT_LE(bank_.get(Event::kL1Dcm), bank_.get(Event::kL1Dca));
}

TEST_F(HierarchyTest, InclusionHoldsUnderRandomTrafficAndGating) {
  util::Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    if (i % 5000 == 2500) {
      hierarchy_.set_l3_ways(1 + static_cast<std::uint32_t>(rng.below(20)));
    }
    hierarchy_.access(rng.below(96ull << 20), AccessType::kLoad);
  }
  // Every line in L1D and L2 must be present in the inclusive L3.
  for (const Address line : hierarchy_.l1d().valid_line_addresses()) {
    EXPECT_TRUE(hierarchy_.l3().contains(line)) << std::hex << line;
  }
  for (const Address line : hierarchy_.l2().valid_line_addresses()) {
    EXPECT_TRUE(hierarchy_.l3().contains(line)) << std::hex << line;
  }
}

TEST_F(HierarchyTest, L3GatingFlushesInnerLevels) {
  hierarchy_.access(0x1000, AccessType::kLoad);
  EXPECT_TRUE(hierarchy_.l1d().contains(0x1000));
  hierarchy_.set_l3_ways(4);
  EXPECT_EQ(hierarchy_.l1d().valid_lines(), 0u);
  EXPECT_EQ(hierarchy_.l2().valid_lines(), 0u);
  EXPECT_EQ(hierarchy_.l3_ways(), 4u);
}

TEST_F(HierarchyTest, GatingActuatorsReflectState) {
  hierarchy_.set_l2_ways(2);
  hierarchy_.set_itlb_entries(6);
  hierarchy_.set_dtlb_entries(32);
  hierarchy_.set_dram_gated(true);
  EXPECT_EQ(hierarchy_.l2_ways(), 2u);
  EXPECT_EQ(hierarchy_.itlb_entries(), 6u);
  EXPECT_EQ(hierarchy_.dtlb_entries(), 32u);
  EXPECT_TRUE(hierarchy_.dram_gated());
}

TEST_F(HierarchyTest, FetchUsesItlbAndL1I) {
  hierarchy_.access(0x400000, AccessType::kFetch);
  EXPECT_EQ(bank_.get(Event::kL1Ica), 1u);
  EXPECT_EQ(bank_.get(Event::kTlbIm), 1u);
  EXPECT_EQ(bank_.get(Event::kTlbDm), 0u);
  EXPECT_EQ(bank_.get(Event::kL1Dca), 0u);
}

TEST_F(HierarchyTest, DramGatingSlowsMisses) {
  const AccessLatency normal = hierarchy_.access(0x500000, AccessType::kLoad);
  hierarchy_.set_dram_gated(true);
  const AccessLatency gated = hierarchy_.access(0x900000, AccessType::kLoad);
  EXPECT_GT(gated.fixed_ps, normal.fixed_ps);
}

// --- CoreModel ---

class CoreModelTest : public ::testing::Test {
 protected:
  CoreModelTest()
      : pstates_(power::PStateTable::romley_e5_2680()),
        core_(MachineConfig::romley().core, pstates_, bank_) {}
  pmu::CounterBank bank_;
  power::PStateTable pstates_;
  CoreModel core_;
};

TEST_F(CoreModelTest, ComputeAdvancesTimeAtIpc) {
  core_.compute(16000);
  // 16000 uops at base IPC 1.6 = 10000 cycles at 2701 MHz (370 ps/cycle),
  // plus a small mispredict penalty.
  const double expected_ps = 10000.0 * 370.0;
  EXPECT_GE(core_.now(), static_cast<util::Picoseconds>(expected_ps));
  EXPECT_LT(core_.now(), static_cast<util::Picoseconds>(expected_ps * 1.1));
  EXPECT_EQ(bank_.get(Event::kTotIns), 16000u);
}

TEST_F(CoreModelTest, SpeculationProducesExtraExecutedInstructions) {
  core_.compute(1000000);
  EXPECT_GT(bank_.get(Event::kInsExec), bank_.get(Event::kTotIns));
  // Paper: the committed-vs-executed gap is small (<= ~0.4%).
  const double gap =
      static_cast<double>(bank_.get(Event::kInsExec) -
                          bank_.get(Event::kTotIns)) /
      static_cast<double>(bank_.get(Event::kTotIns));
  EXPECT_LT(gap, 0.05);
  EXPECT_GT(bank_.get(Event::kBrIns), 0u);
  EXPECT_GT(bank_.get(Event::kBrMsp), 0u);
}

TEST_F(CoreModelTest, PStateChangesSlowRetire) {
  core_.compute(100000);
  const util::Picoseconds fast = core_.now();
  core_.set_pstate(15);
  EXPECT_EQ(core_.frequency(), 1200 * util::kMegaHertz);
  core_.compute(100000);
  const util::Picoseconds slow = core_.now() - fast;
  EXPECT_NEAR(static_cast<double>(slow) / static_cast<double>(fast),
              2701.0 / 1200.0, 0.05);
}

TEST_F(CoreModelTest, InvalidPStateThrows) {
  EXPECT_THROW(core_.set_pstate(16), std::out_of_range);
}

TEST_F(CoreModelTest, DutyCycleInflatesWallTime) {
  core_.compute(100000);
  const util::Picoseconds full = core_.now();
  core_.set_duty(0.5);
  core_.compute(100000);
  const util::Picoseconds half = core_.now() - full;
  EXPECT_NEAR(static_cast<double>(half) / static_cast<double>(full), 2.0, 0.02);
}

TEST_F(CoreModelTest, DutyClampedToPlatformMinimum) {
  core_.set_duty(0.01);
  EXPECT_DOUBLE_EQ(core_.duty(), CoreModel::kMinDuty);
  core_.set_duty(5.0);
  EXPECT_DOUBLE_EQ(core_.duty(), 1.0);
}

TEST_F(CoreModelTest, MemoryOpAccountsLoadsAndStores) {
  AccessLatency lat{.cycles = 10, .fixed_ps = 0};
  core_.memory_op(lat, false);
  core_.memory_op(lat, true);
  EXPECT_EQ(bank_.get(Event::kLdIns), 1u);
  EXPECT_EQ(bank_.get(Event::kSrIns), 1u);
  EXPECT_EQ(bank_.get(Event::kTotIns), 2u);
}

TEST_F(CoreModelTest, FixedLatencyCountsStallCycles) {
  AccessLatency lat{.cycles = 4, .fixed_ps = util::nanoseconds(60.0)};
  core_.memory_op(lat, false);
  EXPECT_GT(bank_.get(Event::kStallCyc), 0u);
  // 60 ns at 370 ps/cycle ~ 162 cycles.
  EXPECT_NEAR(static_cast<double>(bank_.get(Event::kStallCyc)), 162.0, 2.0);
}

TEST_F(CoreModelTest, FetchChargesOnlyBeyondL1Hit) {
  const util::Picoseconds before = core_.now();
  core_.fetch_op({.cycles = 4, .fixed_ps = 0}, 4);  // L1I hit: free
  EXPECT_EQ(core_.now(), before);
  core_.fetch_op({.cycles = 32, .fixed_ps = 0}, 4);  // miss: 28 cycles
  EXPECT_GT(core_.now(), before);
}

// --- ExecutionContext + Node ---

TEST(Node, IdlePowerMatchesPaper) {
  Node node(MachineConfig::romley());
  node.start_metering();
  node.idle_for(util::milliseconds(2.0));
  const double idle = node.meter().average_watts();
  const CalibrationTargets& cal = node.config().calibration;
  EXPECT_GE(idle, cal.idle_min_w);
  EXPECT_LE(idle, cal.idle_max_w);  // paper: 100-103 W
}

TEST(Node, RunReportBasics) {
  Node node(MachineConfig::romley());
  apps::ComputeBoundWorkload work(500000);
  const RunReport report = node.run(work);
  EXPECT_EQ(report.workload, "compute-bound");
  EXPECT_GT(report.elapsed, 0u);
  EXPECT_GT(report.energy_j, 0.0);
  EXPECT_GT(report.avg_power_w, 100.0);
  EXPECT_EQ(report.counter(Event::kTotIns), 500000u);
  EXPECT_EQ(report.avg_frequency, 2701 * util::kMegaHertz);
  EXPECT_DOUBLE_EQ(report.avg_duty, 1.0);
}

TEST(Node, ReportCountersAreDeltas) {
  Node node(MachineConfig::romley());
  apps::ComputeBoundWorkload work(200000);
  const RunReport first = node.run(work);
  const RunReport second = node.run(work);
  EXPECT_EQ(first.counter(Event::kTotIns), second.counter(Event::kTotIns));
}

TEST(Node, LoadedPowerAboveIdle) {
  Node node(MachineConfig::romley());
  apps::MemoryBoundWorkload work(8 << 20, 200000);
  const RunReport report = node.run(work);
  EXPECT_GT(report.avg_power_w, 130.0);
  EXPECT_LT(report.avg_power_w, 165.0);
}

TEST(Node, MeterSamplesAtConfiguredCadence) {
  Node node(MachineConfig::romley());
  apps::ComputeBoundWorkload work(3000000);
  const RunReport report = node.run(work);
  const auto expected =
      report.elapsed / node.config().ticks.meter_period();
  EXPECT_NEAR(static_cast<double>(node.meter().samples().size()),
              static_cast<double>(expected), 2.0);
}

TEST(Node, ControlHookFiresAtBmcCadence) {
  Node node(MachineConfig::romley());
  int fired = 0;
  node.set_control_hook([&fired](PlatformControl&) { ++fired; });
  apps::ComputeBoundWorkload work(3000000);
  const RunReport report = node.run(work);
  const auto expected = report.elapsed / node.config().ticks.bmc_period;
  EXPECT_GT(fired, 0);
  EXPECT_NEAR(static_cast<double>(fired), static_cast<double>(expected),
              static_cast<double>(expected) * 0.2 + 2.0);
}

TEST(Node, OsNoiseCausesTlbMisses) {
  MachineConfig config = MachineConfig::romley();
  Node node(config);
  apps::ComputeBoundWorkload work(2000000, /*code_pages=*/4);
  const RunReport with_noise = node.run(work);
  node.set_os_noise(false);
  const RunReport without = node.run(work);
  // The 4-page loop fits the ITLB: every ITLB miss after warmup comes from
  // the OS-noise flushes.
  EXPECT_GT(with_noise.counter(Event::kTlbIm),
            without.counter(Event::kTlbIm) + 2);
  EXPECT_LE(without.counter(Event::kTlbIm), 4u);
}

TEST(Node, PlatformControlActuatorsWork) {
  Node node(MachineConfig::romley());
  PlatformControl& control = node;
  EXPECT_EQ(control.pstate_count(), 16u);
  control.set_pstate(15);
  EXPECT_EQ(control.frequency(), 1200 * util::kMegaHertz);
  control.set_duty(0.25);
  EXPECT_DOUBLE_EQ(control.duty(), 0.25);
  control.set_l3_ways(4);
  EXPECT_EQ(control.l3_ways(), 4u);
  EXPECT_EQ(control.l3_max_ways(), 20u);
  control.set_dram_gated(true);
  EXPECT_TRUE(control.dram_gated());
  EXPECT_GT(control.instantaneous_power_w(), 90.0);
}

TEST(Node, WindowAveragePowerResets) {
  Node node(MachineConfig::romley());
  node.idle_for(util::milliseconds(1.0));
  const double first = node.window_average_power_w();
  EXPECT_GT(first, 90.0);
  node.idle_for(util::milliseconds(1.0));
  const double second = node.window_average_power_w();
  EXPECT_NEAR(second, first, 5.0);
}

TEST(Node, DeterministicForSeed) {
  apps::PhasedWorkload workload;
  Node a(MachineConfig::romley(), 42);
  Node b(MachineConfig::romley(), 42);
  const RunReport ra = a.run(workload);
  const RunReport rb = b.run(workload);
  EXPECT_EQ(ra.elapsed, rb.elapsed);
  EXPECT_EQ(ra.counters, rb.counters);
  EXPECT_DOUBLE_EQ(ra.energy_j, rb.energy_j);
}

TEST(ExecutionContext, AllocBumpsAligned) {
  Node node(MachineConfig::romley());
  ExecutionContext ctx(node);
  const Address a = ctx.alloc(100);
  const Address b = ctx.alloc(1);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(ExecutionContext, CodeFootprintDrivesItlb) {
  MachineConfig config = MachineConfig::romley();
  Node node(config);
  node.set_os_noise(false);

  // Footprint beyond the gated ITLB: the sequential fetch rotation misses
  // once per page entered (64 fetch lines per 4 KB page), every cycle.
  node.set_itlb_entries(6);
  apps::ComputeBoundWorkload big(400000, /*code_pages=*/12);
  const RunReport thrash = node.run(big);
  const double fetches = 400000.0 / config.core.ins_per_fetch;
  const double page_entries = fetches / 64.0;
  EXPECT_GT(static_cast<double>(thrash.counter(Event::kTlbIm)),
            page_entries * 0.8);

  // Footprint within the ITLB: negligible misses.
  node.set_itlb_entries(48);
  apps::ComputeBoundWorkload small(400000, /*code_pages=*/4);
  const RunReport fits = node.run(small);
  EXPECT_LT(fits.counter(Event::kTlbIm), 20u);
}

TEST(ExecutionContext, LoadStoreTouchHierarchy) {
  Node node(MachineConfig::romley());
  ExecutionContext ctx(node);
  const Address base = ctx.alloc(4096);
  ctx.load(base);
  ctx.store(base);
  EXPECT_EQ(node.counters().get(Event::kLdIns), 1u);
  EXPECT_EQ(node.counters().get(Event::kSrIns), 1u);
  EXPECT_EQ(node.counters().get(Event::kL1Dca), 2u);
}

}  // namespace
}  // namespace pcap::sim
