// Cross-cutting property tests:
//  - the stride probe's hierarchy inference must recover whatever geometry
//    the machine is configured with (it is a measurement, not a lookup);
//  - the BMC must regulate to reachable caps on machine variants it was
//    never calibrated for (the controller is feedback, not a table).
#include <gtest/gtest.h>

#include <optional>
#include <ostream>

#include "apps/stride/stride.hpp"
#include "apps/synthetic.hpp"
#include "core/capped_runner.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"

namespace pcap {
namespace {

struct Geometry {
  std::uint64_t l1_bytes;
  std::uint64_t l2_bytes;
};

// Names the ctest entries (gtest would otherwise print the raw bytes).
void PrintTo(const Geometry& g, std::ostream* os) {
  *os << "L1_" << (g.l1_bytes >> 10) << "KiB_L2_" << (g.l2_bytes >> 10)
      << "KiB";
}

class StrideInferenceProperty : public ::testing::TestWithParam<Geometry> {};

TEST_P(StrideInferenceProperty, ProbeRecoversConfiguredGeometry) {
  const Geometry g = GetParam();
  sim::MachineConfig machine = sim::MachineConfig::romley();
  machine.hierarchy.l1d.size_bytes = g.l1_bytes;
  machine.hierarchy.l2.size_bytes = g.l2_bytes;

  apps::stride::StrideConfig config;
  config.min_array_bytes = 4 * 1024;
  config.max_array_bytes = 8ull * 1024 * 1024;  // enough to cross L2
  config.min_stride_bytes = 64;
  config.touches_per_cell = 1500;

  sim::Node node(machine);
  node.set_os_noise(false);
  apps::stride::StrideWorkload probe(config);
  node.run(probe);

  const auto inf = apps::stride::infer_hierarchy(probe.results());
  EXPECT_EQ(inf.l1_fits_bytes, g.l1_bytes) << "L1";
  EXPECT_EQ(inf.l2_fits_bytes, g.l2_bytes) << "L2";
  EXPECT_LT(inf.l1_ns, inf.l2_ns);
}

INSTANTIATE_TEST_SUITE_P(Geometries, StrideInferenceProperty,
                         ::testing::Values(Geometry{16 * 1024, 256 * 1024},
                                           Geometry{32 * 1024, 128 * 1024},
                                           Geometry{64 * 1024, 512 * 1024},
                                           Geometry{32 * 1024, 1024 * 1024}));

struct MachineVariant {
  std::uint64_t l3_bytes;
  int cores;          // power-model core count
  double cap_w;
};

// gtest_discover_tests names each ctest entry after the printed parameter
// (e.g. .../L3_20MiB_Cores16_Cap140W). Without this, gtest prints the
// struct's raw bytes, padding included, which change from build to build.
void PrintTo(const MachineVariant& v, std::ostream* os) {
  *os << "L3_" << (v.l3_bytes >> 20) << "MiB_Cores" << v.cores << "_Cap"
      << v.cap_w << "W";
}

class BmcVariantProperty : public ::testing::TestWithParam<MachineVariant> {};

TEST_P(BmcVariantProperty, RegulatesOnUncalibratedMachines) {
  const MachineVariant v = GetParam();
  sim::MachineConfig machine = sim::MachineConfig::romley();
  machine.hierarchy.l3.size_bytes = v.l3_bytes;
  machine.power.cores = v.cores;

  sim::Node node(machine);
  core::CappedRunner runner(node);
  apps::PhasedParams params;
  params.phases = 6;
  params.mean_phase_uops = 400000;
  apps::PhasedWorkload workload(params);

  const sim::RunReport base = runner.run(workload, std::nullopt);
  const sim::RunReport capped = runner.run(workload, v.cap_w);
  if (base.avg_power_w > v.cap_w + 2.0) {
    // Meaningful cap: regulated within tolerance and slower than baseline.
    EXPECT_LE(capped.avg_power_w, v.cap_w + 2.0);
    EXPECT_GE(capped.elapsed, base.elapsed);
  } else {
    // Cap above demand: must not over-throttle.
    EXPECT_NEAR(util::to_seconds(capped.elapsed), util::to_seconds(base.elapsed),
                util::to_seconds(base.elapsed) * 0.05);
  }
  // Actuators always within range afterwards.
  EXPECT_LE(node.pstate(), 15u);
  EXPECT_GE(node.l3_ways(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BmcVariantProperty,
    ::testing::Values(MachineVariant{20ull << 20, 16, 140.0},
                      MachineVariant{20ull << 20, 16, 165.0},
                      MachineVariant{4096ull * 20 * 64, 16, 135.0},
                      MachineVariant{40ull << 20, 16, 145.0},
                      MachineVariant{20ull << 20, 8, 130.0},
                      MachineVariant{20ull << 20, 4, 132.0}));

}  // namespace
}  // namespace pcap
