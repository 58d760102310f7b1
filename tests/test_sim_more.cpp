// Additional simulator-level tests: thermal coupling, report invariants,
// duty accounting, synthetic workload behaviours, and idle/load power
// transitions.
#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "cache/cache.hpp"
#include "mem/dram.hpp"
#include "sim/execution_context.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"

namespace pcap::sim {
namespace {

using pmu::Event;

TEST(NodeThermal, TemperatureRisesUnderLoadAndRecovers) {
  Node node(MachineConfig::romley());
  const double cold = node.temperature_c();
  apps::ComputeBoundWorkload work(12000000);
  node.run(work);
  const double hot = node.temperature_c();
  EXPECT_GT(hot, cold + 8.0);
  // Idle long enough to converge to the idle steady state, which sits well
  // below the loaded temperature.
  node.idle_for(util::milliseconds(20.0));
  EXPECT_LT(node.temperature_c(), hot - 2.0);
}

TEST(NodeReport, PeakAtLeastAverage) {
  Node node(MachineConfig::romley());
  apps::PhasedWorkload work;
  const RunReport r = node.run(work);
  EXPECT_GE(r.peak_power_w, r.avg_power_w);
}

TEST(NodeReport, DutyAccountingUnderManualThrottle) {
  Node node(MachineConfig::romley());
  apps::ComputeBoundWorkload work(500000);
  node.run(work);  // warm the code footprint so runs compare like-for-like
  const RunReport full = node.run(work);
  EXPECT_NEAR(full.avg_duty, 1.0, 0.01);
  node.set_duty(0.5);
  const RunReport half = node.run(work);
  EXPECT_NEAR(half.avg_duty, 0.5, 0.01);
  // Same committed work, roughly double the wall time at half duty.
  EXPECT_NEAR(static_cast<double>(half.elapsed) /
                  static_cast<double>(full.elapsed),
              2.0, 0.1);
}

TEST(NodeReport, LeakageMakesThrottledEnergyWorse) {
  // The §II-B argument: with a hot idle floor, slowing down raises energy.
  Node node(MachineConfig::romley());
  apps::ComputeBoundWorkload work(2000000);
  const RunReport fast = node.run(work);
  node.set_pstate(15);
  const RunReport slow = node.run(work);
  EXPECT_GT(slow.energy_j, fast.energy_j);
}

TEST(SyntheticWorkloads, PhaseMarksMonotone) {
  Node node(MachineConfig::romley());
  apps::PhasedParams params;
  params.phases = 6;
  apps::PhasedWorkload work(params);
  node.run(work);
  ASSERT_EQ(work.phase_marks().size(), 6u);
  for (std::size_t i = 1; i < work.phase_marks().size(); ++i) {
    EXPECT_GT(work.phase_marks()[i], work.phase_marks()[i - 1]);
  }
}

TEST(SyntheticWorkloads, MemoryBoundMissesMoreThanComputeBound) {
  Node node(MachineConfig::romley());
  apps::MemoryBoundWorkload mem(32ull << 20, 100000);
  apps::ComputeBoundWorkload cpu(400000);
  const RunReport mem_run = node.run(mem);
  const RunReport cpu_run = node.run(cpu);
  EXPECT_GT(mem_run.counter(Event::kL3Tcm), 50000u);
  EXPECT_EQ(cpu_run.counter(Event::kL1Dca), 0u);
}

TEST(SyntheticWorkloads, MemoryBoundStrideControlsMissRate) {
  Node node(MachineConfig::romley());
  apps::MemoryBoundWorkload line_stride(32ull << 20, 100000, 64);
  apps::MemoryBoundWorkload dense(32ull << 20, 100000, 8);
  const RunReport sparse_run = node.run(line_stride);
  const RunReport dense_run = node.run(dense);
  // At 8 B stride only every 8th touch misses a line.
  EXPECT_GT(sparse_run.counter(Event::kL1Dcm),
            dense_run.counter(Event::kL1Dcm) * 4);
}

TEST(NodePowerTransitions, IdleThenLoadedThenIdle) {
  Node node(MachineConfig::romley());
  node.start_metering();
  node.idle_for(util::milliseconds(1.0));
  const double idle1 = node.meter().average_watts();

  apps::ComputeBoundWorkload work(1000000);
  const RunReport loaded = node.run(work);

  node.start_metering();
  node.idle_for(util::milliseconds(1.0));
  const double idle2 = node.meter().average_watts();

  EXPECT_GT(loaded.avg_power_w, idle1 + 30.0);
  EXPECT_NEAR(idle2, idle1, 3.0);  // back to idle (modulo warmer silicon)
}

TEST(ExecutionContextMore, DistinctCodeRegionsDoNotAlias) {
  Node node(MachineConfig::romley());
  node.set_os_noise(false);
  // Run region A, then region B; if regions did not alias, B's fetches are
  // compulsory misses again (different addresses).
  ExecutionContext ctx(node);
  ctx.set_code_footprint(1, 4);
  ctx.compute(8192);
  const auto icm_after_a = node.counters().get(Event::kL1Icm);
  ctx.set_code_footprint(2, 4);
  ctx.compute(8192);
  const auto icm_after_b = node.counters().get(Event::kL1Icm);
  EXPECT_GE(icm_after_b, icm_after_a + 100);
}

/// One core's hierarchy over its own L3 and DRAM (no node).
struct BareHierarchy {
  explicit BareHierarchy(const HierarchyConfig& config)
      : l3(config.l3), dram(config.dram), h(config, bank, l3, dram) {}
  cache::Cache l3;
  mem::Dram dram;
  pmu::CounterBank bank;
  MemoryHierarchy h;
};

TEST(Prefetch, OffByDefault) {
  const MachineConfig m = MachineConfig::romley();
  EXPECT_FALSE(m.hierarchy.prefetch_enabled);
  BareHierarchy bare(m.hierarchy);
  MemoryHierarchy& h = bare.h;
  pmu::CounterBank& bank = bare.bank;
  for (Address a = 0; a < 1 << 20; a += 64) h.access(a, AccessType::kLoad);
  EXPECT_EQ(bank.get(Event::kL2Pf), 0u);
}

TEST(Prefetch, HidesSequentialStreamLatency) {
  MachineConfig m = MachineConfig::romley();
  m.hierarchy.prefetch_enabled = true;
  BareHierarchy bare(m.hierarchy);
  MemoryHierarchy& h = bare.h;
  pmu::CounterBank& bank = bare.bank;
  util::Picoseconds stalls = 0;
  for (Address a = 0; a < 4 << 20; a += 64) {
    stalls += h.access(a, AccessType::kLoad).fixed_ps;
  }
  EXPECT_GT(bank.get(Event::kL2Pf), 10000u);

  BareHierarchy bare_base(MachineConfig::romley().hierarchy);
  MemoryHierarchy& base = bare_base.h;
  util::Picoseconds base_stalls = 0;
  for (Address a = 0; a < 4 << 20; a += 64) {
    base_stalls += base.access(a, AccessType::kLoad).fixed_ps;
  }
  // Most demand misses become L2/L3 hits: far less demand DRAM stall time.
  EXPECT_LT(stalls * 2, base_stalls);
}

TEST(Prefetch, InclusionStillHoldsWithPrefetchedLines) {
  MachineConfig m = MachineConfig::romley();
  m.hierarchy.prefetch_enabled = true;
  BareHierarchy bare(m.hierarchy);
  MemoryHierarchy& h = bare.h;
  util::Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    h.access(rng.below(64ull << 20), AccessType::kLoad);
  }
  for (const Address line : h.l2().valid_line_addresses()) {
    ASSERT_TRUE(h.l3().contains(line)) << std::hex << line;
  }
}

TEST(MachineConfigTest, RomleyMatchesPaperPlatform) {
  const MachineConfig m = MachineConfig::romley();
  EXPECT_EQ(m.hierarchy.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(m.hierarchy.l1i.size_bytes, 32u * 1024);
  EXPECT_EQ(m.hierarchy.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(m.hierarchy.l3.size_bytes, 20u * 1024 * 1024);
  EXPECT_EQ(m.hierarchy.l1d.ways, 8u);
  EXPECT_EQ(m.hierarchy.l2.ways, 8u);
  EXPECT_EQ(m.hierarchy.l3.ways, 20u);
  EXPECT_EQ(m.hierarchy.l3.line_bytes, 64u);
  EXPECT_EQ(m.power.cores, 16);
  EXPECT_EQ(m.power.sockets, 2);
}

}  // namespace
}  // namespace pcap::sim
