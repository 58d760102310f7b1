// Tests for the SMP node: deterministic interleaving, shared-L3 contention,
// package-level actuation, BMC capping of a multi-core node, and report
// accounting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "sim/node.hpp"
#include "sim/smp_node.hpp"

namespace pcap::sim {
namespace {

using pmu::Event;

SmpConfig two_cores() {
  SmpConfig config;
  config.cores = 2;
  return config;
}

TEST(SmpNode, ValidatesConfiguration) {
  SmpConfig bad = two_cores();
  bad.cores = 0;
  EXPECT_THROW(SmpNode{bad}, std::invalid_argument);
  bad.cores = 17;  // more than the platform's 16
  EXPECT_THROW(SmpNode{bad}, std::invalid_argument);
}

TEST(SmpNode, ValidatesRunArguments) {
  SmpNode node(two_cores());
  apps::ComputeBoundWorkload w(1000);
  std::vector<Workload*> none;
  EXPECT_THROW(node.run(none), std::invalid_argument);
  std::vector<Workload*> too_many{&w, &w, &w};
  EXPECT_THROW(node.run(too_many), std::invalid_argument);
  std::vector<Workload*> with_null{&w, nullptr};
  EXPECT_THROW(node.run(with_null), std::invalid_argument);
}

TEST(SmpNode, SingleWorkloadMatchesCommittedWork) {
  SmpNode node(two_cores());
  apps::ComputeBoundWorkload w(300000);
  std::vector<Workload*> ws{&w};
  const SmpRunReport r = node.run(ws);
  ASSERT_EQ(r.cores.size(), 1u);
  EXPECT_EQ(r.counter(Event::kTotIns), 300000u);
  EXPECT_EQ(r.cores[0].counter(Event::kTotIns), 300000u);
  EXPECT_GT(r.elapsed, 0u);
  EXPECT_GT(r.avg_power_w, 100.0);
}

TEST(SmpNode, ParallelComputeDoublesThroughput) {
  // Two independent compute workloads should take roughly the time of one
  // (they do not contend), so SMP runs deliver ~2x throughput.
  apps::ComputeBoundWorkload a(400000), b(400000);

  SmpNode solo_node(two_cores(), 7);
  std::vector<Workload*> solo{&a};
  const SmpRunReport solo_run = solo_node.run(solo);

  SmpNode pair_node(two_cores(), 7);
  std::vector<Workload*> both{&a, &b};
  const SmpRunReport pair_run = pair_node.run(both);

  EXPECT_EQ(pair_run.counter(Event::kTotIns), 800000u);
  EXPECT_NEAR(static_cast<double>(pair_run.elapsed),
              static_cast<double>(solo_run.elapsed),
              static_cast<double>(solo_run.elapsed) * 0.05);
}

TEST(SmpNode, MoreActiveCoresDrawMorePower) {
  apps::ComputeBoundWorkload a(400000), b(400000);
  SmpNode node(two_cores(), 7);
  std::vector<Workload*> solo{&a};
  const SmpRunReport one = node.run(solo);
  std::vector<Workload*> both{&a, &b};
  const SmpRunReport two = node.run(both);
  EXPECT_GT(two.avg_power_w, one.avg_power_w + 12.0);
}

TEST(SmpNode, DeterministicForSeed) {
  auto run_once = [] {
    SmpNode node(two_cores(), 11);
    apps::PhasedWorkload a;
    apps::MemoryBoundWorkload b(8 << 20, 120000);
    std::vector<Workload*> ws{&a, &b};
    return node.run(ws);
  };
  const SmpRunReport x = run_once();
  const SmpRunReport y = run_once();
  EXPECT_EQ(x.elapsed, y.elapsed);
  EXPECT_EQ(x.counters, y.counters);
  ASSERT_EQ(x.cores.size(), y.cores.size());
  for (std::size_t i = 0; i < x.cores.size(); ++i) {
    EXPECT_EQ(x.cores[i].elapsed, y.cores[i].elapsed);
    EXPECT_EQ(x.cores[i].counters, y.cores[i].counters);
  }
}

TEST(SmpNode, SharedL3ContentionRaisesMisses) {
  // One workload streaming over 12 MB fits the 20 MB L3 alone; two of them
  // (24 MB combined) cannot both stay resident, so co-running them must
  // increase total L3 misses beyond 2x the solo count.
  const std::uint64_t kSet = 12ull << 20;
  const std::uint64_t kTouches = 600000;

  SmpNode solo_node(two_cores(), 5);
  apps::MemoryBoundWorkload solo_w(kSet, kTouches);
  std::vector<Workload*> solo{&solo_w};
  const SmpRunReport solo_run = solo_node.run(solo);

  SmpNode pair_node(two_cores(), 5);
  apps::MemoryBoundWorkload wa(kSet, kTouches), wb(kSet, kTouches);
  std::vector<Workload*> both{&wa, &wb};
  const SmpRunReport pair_run = pair_node.run(both);

  EXPECT_GT(pair_run.counter(Event::kL3Tcm),
            2 * solo_run.counter(Event::kL3Tcm) + 100000);
  // And the co-run is slower than the solo run (contention, not just
  // duplication).
  EXPECT_GT(pair_run.elapsed, solo_run.elapsed * 1.2);
}

/// Actuates a node that has run through PlatformControl and checks every
/// core lane took each actuation, so a fan-out that skips a lane fails even
/// though the package-wide getters read only the first lane.
void expect_actuation_reaches_every_lane(PackagePlatform& node) {
  for (int i = 0; i < node.core_count(); ++i) {
    ASSERT_GT(node.core_lane(i).hierarchy.l1d().valid_lines(), 0u)
        << "core " << i << " never ran";
  }
  PlatformControl& control = node;
  control.set_pstate(15);
  control.set_duty(0.5);
  control.set_l2_ways(2);
  control.set_itlb_entries(6);
  control.set_dtlb_entries(32);
  control.set_l3_ways(4);
  EXPECT_EQ(control.pstate(), 15u);
  EXPECT_EQ(control.frequency(), 1200 * util::kMegaHertz);
  EXPECT_DOUBLE_EQ(control.duty(), 0.5);
  EXPECT_EQ(control.l2_ways(), 2u);
  EXPECT_EQ(control.itlb_entries(), 6u);
  EXPECT_EQ(control.dtlb_entries(), 32u);
  EXPECT_EQ(control.l3_ways(), 4u);
  EXPECT_EQ(node.shared_l3().active_ways(), 4u);
  for (int i = 0; i < node.core_count(); ++i) {
    const CoreLane& lane = node.core_lane(i);
    EXPECT_EQ(lane.core.pstate(), 15u) << "core " << i;
    EXPECT_EQ(lane.core.frequency(), 1200 * util::kMegaHertz) << "core " << i;
    EXPECT_DOUBLE_EQ(lane.core.duty(), 0.5) << "core " << i;
    EXPECT_EQ(lane.hierarchy.l2_ways(), 2u) << "core " << i;
    EXPECT_EQ(lane.hierarchy.itlb_entries(), 6u) << "core " << i;
    EXPECT_EQ(lane.hierarchy.dtlb_entries(), 32u) << "core " << i;
    // The L3 shrink flushed this core's private levels.
    EXPECT_EQ(lane.hierarchy.l1d().valid_lines(), 0u) << "core " << i;
    EXPECT_EQ(lane.hierarchy.l2().valid_lines(), 0u) << "core " << i;
  }
}

TEST(SmpNode, PackageActuationAppliesToAllCores) {
  SmpNode node(two_cores());
  apps::MemoryBoundWorkload a(1ull << 20, 20000), b(1ull << 20, 20000);
  std::vector<Workload*> ws{&a, &b};
  node.run(ws);
  expect_actuation_reaches_every_lane(node);
}

TEST(SmpNode, PackageActuationAppliesToSingleCoreNode) {
  Node node(MachineConfig::romley());
  apps::MemoryBoundWorkload w(1ull << 20, 20000);
  node.run(w);
  ASSERT_EQ(node.core_count(), 1);
  expect_actuation_reaches_every_lane(node);
}

TEST(SmpNode, OsNoiseReachesEveryLiveCore) {
  // A noise tick flushes every core's translations, so each long-running
  // core re-walks its code pages, which it does only once without noise.
  auto run = [](bool noise) {
    SmpNode node(two_cores(), 7);
    node.set_os_noise(noise);
    apps::ComputeBoundWorkload a(4000000), b(4000000);
    std::vector<Workload*> ws{&a, &b};
    return node.run(ws);
  };
  const SmpRunReport quiet = run(false);
  const SmpRunReport noisy = run(true);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GT(noisy.cores[i].counter(Event::kTlbIm),
              quiet.cores[i].counter(Event::kTlbIm))
        << "core " << i;
  }
}

TEST(SmpNode, SlowerPStateSlowsBothCores) {
  apps::ComputeBoundWorkload a(300000), b(300000);
  SmpNode node(two_cores(), 3);
  std::vector<Workload*> ws{&a, &b};
  node.run(ws);  // warm the code footprints
  const SmpRunReport fast = node.run(ws);
  node.set_pstate(15);
  const SmpRunReport slow = node.run(ws);
  EXPECT_NEAR(static_cast<double>(slow.elapsed) /
                  static_cast<double>(fast.elapsed),
              2701.0 / 1200.0, 0.2);
}

TEST(SmpNode, BmcCapsTheWholePackage) {
  SmpConfig config;
  config.cores = 4;
  SmpNode node(config, 9);
  core::Bmc bmc(node);
  node.set_control_hook(
      [&bmc](PlatformControl&) { bmc.on_control_tick(); });

  apps::ComputeBoundWorkload w1(4000000), w2(4000000), w3(4000000),
      w4(4000000);
  std::vector<Workload*> ws{&w1, &w2, &w3, &w4};
  const SmpRunReport uncapped = node.run(ws);
  EXPECT_GT(uncapped.avg_power_w, 170.0);  // four hot cores

  bmc.set_cap(160.0);
  const SmpRunReport capped = node.run(ws);
  EXPECT_LE(capped.avg_power_w, 163.0);
  EXPECT_GT(capped.elapsed, uncapped.elapsed * 3 / 2);  // deep throttling
  bmc.set_cap(std::nullopt);
}

TEST(SmpNode, PerCoreReportsSeparateWorkloads) {
  SmpNode node(two_cores(), 13);
  apps::ComputeBoundWorkload cpu(500000);
  apps::MemoryBoundWorkload mem(16ull << 20, 150000);
  std::vector<Workload*> ws{&cpu, &mem};
  const SmpRunReport r = node.run(ws);
  ASSERT_EQ(r.cores.size(), 2u);
  EXPECT_EQ(r.cores[0].workload, "compute-bound");
  EXPECT_EQ(r.cores[1].workload, "memory-bound");
  EXPECT_EQ(r.cores[0].counter(Event::kL1Dca), 0u);
  EXPECT_GT(r.cores[1].counter(Event::kL1Dca), 100000u);
  // The aggregate equals the per-core sum.
  EXPECT_EQ(r.counter(Event::kTotIns), r.cores[0].counter(Event::kTotIns) +
                                           r.cores[1].counter(Event::kTotIns));
  // elapsed is the max of the two.
  EXPECT_EQ(r.elapsed, std::max(r.cores[0].elapsed, r.cores[1].elapsed));
}

// Property: the interleave quantum must not change what the cores compute,
// and the aggregate committed-instruction count is quantum-invariant; the
// timing may shift slightly (different interleavings over the shared L3)
// but stays within a tight band.
class SmpQuantum : public ::testing::TestWithParam<double> {};

TEST_P(SmpQuantum, CountsInvariantTimingStable) {
  SmpConfig config = two_cores();
  config.quantum = util::microseconds(GetParam());
  SmpNode node(config, 21);
  apps::MemoryBoundWorkload a(12ull << 20, 150000);
  apps::ComputeBoundWorkload b(500000);
  std::vector<Workload*> ws{&a, &b};
  const SmpRunReport r = node.run(ws);
  EXPECT_EQ(r.cores[1].counter(Event::kTotIns), 500000u);

  // Reference at the default 5 us quantum.
  SmpConfig ref_config = two_cores();
  SmpNode ref_node(ref_config, 21);
  const SmpRunReport ref = ref_node.run(ws);
  EXPECT_EQ(r.counter(Event::kTotIns), ref.counter(Event::kTotIns));
  EXPECT_NEAR(static_cast<double>(r.elapsed), static_cast<double>(ref.elapsed),
              static_cast<double>(ref.elapsed) * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Quanta, SmpQuantum,
                         ::testing::Values(1.0, 2.0, 10.0, 40.0));

TEST(SmpNode, FlushAllCachesColdStarts) {
  SmpNode node(two_cores(), 2);
  apps::MemoryBoundWorkload w(4ull << 20, 100000);
  std::vector<Workload*> ws{&w};
  const SmpRunReport cold = node.run(ws);
  const SmpRunReport warm = node.run(ws);
  node.flush_all_caches();
  const SmpRunReport recold = node.run(ws);
  EXPECT_LT(warm.counter(Event::kL3Tcm) * 2, cold.counter(Event::kL3Tcm));
  EXPECT_NEAR(static_cast<double>(recold.counter(Event::kL3Tcm)),
              static_cast<double>(cold.counter(Event::kL3Tcm)),
              static_cast<double>(cold.counter(Event::kL3Tcm)) * 0.05);
}

TEST(SmpNode, MeterSeesTheRun) {
  SmpNode node(two_cores());
  apps::ComputeBoundWorkload a(4000000), b(4000000);
  std::vector<Workload*> ws{&a, &b};
  const SmpRunReport r = node.run(ws);
  EXPECT_GT(node.meter().samples().size(), 3u);
  EXPECT_NEAR(node.meter().energy_joules(), r.energy_j, 1e-12);
  EXPECT_GE(r.peak_power_w, r.avg_power_w);
}

}  // namespace
}  // namespace pcap::sim
