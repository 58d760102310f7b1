// sim::Package, the package accounting both nodes share, and the probe
// sample series of both nodes, pinned as digests.
//
// Package computes the package half of every telemetry sample, and each
// node feeds its probes at a fixed point of its own tick: Node after OS
// noise and the control hook, SmpNode before both. A sample taken on the
// other side of the control hook sees a different P-state, duty and
// counter state, so reordering either node's tick changes these series
// even when every end-of-run report stays bit-identical. The digests cover
// every field of every retained NodeSample of a BMC-capped run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "sim/node.hpp"
#include "sim/package.hpp"
#include "sim/smp_node.hpp"
#include "telemetry/probe.hpp"
#include "util/hash.hpp"

namespace pcap::sim {
namespace {

std::uint64_t series_digest(const telemetry::Sampler& sampler) {
  using util::fnv_mix;
  std::uint64_t h = util::kFnvOffset;
  h = fnv_mix(h, static_cast<std::uint64_t>(sampler.taken()));
  const auto& series = sampler.series();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const telemetry::NodeSample& s = series.at(i);
    h = fnv_mix(h, s.time);
    h = fnv_mix(h, s.watts);
    h = fnv_mix(h, s.frequency_mhz);
    h = fnv_mix(h, static_cast<std::uint64_t>(s.pstate));
    h = fnv_mix(h, s.duty);
    h = fnv_mix(h, s.cap_w);
    h = fnv_mix(h, s.ipc);
    h = fnv_mix(h, s.l1_miss_rate);
    h = fnv_mix(h, s.l2_miss_rate);
    h = fnv_mix(h, s.l3_miss_rate);
    h = fnv_mix(h, s.temperature_c);
    h = fnv_mix(h, static_cast<std::uint64_t>(s.throttle_level));
    h = fnv_mix(h, static_cast<std::uint64_t>(s.health));
    h = fnv_mix(h, s.fan_rpm);
    h = fnv_mix(h, s.cpu_temp_c);
    h = fnv_mix(h, s.uncore_temp_c);
    h = fnv_mix(h, s.dram_temp_c);
    h = fnv_mix(h, static_cast<std::uint64_t>(s.throttle_reason));
    h = fnv_mix(h, s.cpu_w);
    h = fnv_mix(h, s.uncore_w);
    h = fnv_mix(h, s.memory_w);
  }
  return h;
}

// --- the run flag and the active-core count are separate inputs -----------

OperatingPoint idle_point() {
  OperatingPoint op;
  op.frequency = 2701 * util::kMegaHertz;
  op.voltage = 1.10;
  op.l3_active_ways = 20;
  return op;
}

TEST(Package, StallFractionHeldUntilRunFlagClears) {
  Package package(MachineConfig::romley());
  OperatingPoint op = idle_point();
  package.power_on(op);
  package.begin_run(0);
  CounterTotals totals;
  totals.cyc = 1000;
  totals.stall = 500;
  op.active_cores = 1;
  ASSERT_TRUE(package.account(util::microseconds(1), totals, op, true));
  EXPECT_EQ(package.stall_fraction(), 0.5);
  // The closing step of an SMP run: no live core, no new cycles, but the
  // run flag is still set, so the last stall fraction stands.
  op.active_cores = 0;
  ASSERT_TRUE(package.account(util::microseconds(2), totals, op, true));
  EXPECT_EQ(package.stall_fraction(), 0.5);
  ASSERT_TRUE(package.account(util::microseconds(3), totals, op, false));
  EXPECT_EQ(package.stall_fraction(), 0.0);
  // No time passed: nothing is accounted.
  EXPECT_FALSE(package.account(util::microseconds(3), totals, op, true));
}

TEST(Package, RunFlagWithoutActiveCoresPricesIdle) {
  const auto watts_after = [](int active_cores, bool running) {
    Package package(MachineConfig::romley());
    OperatingPoint op = idle_point();
    package.power_on(op);
    package.begin_run(0);
    op.active_cores = active_cores;
    package.account(util::microseconds(1), CounterTotals{}, op, running);
    return package.watts();
  };
  const double idle = watts_after(0, false);
  EXPECT_EQ(watts_after(0, true), idle);
  EXPECT_EQ(watts_after(1, false), idle);
  EXPECT_GT(watts_after(1, true), idle + 5.0);
  EXPECT_GT(watts_after(4, true), watts_after(1, true) + 20.0);
}

// --- probe sample series ----------------------------------------------------

telemetry::TelemetryConfig probe_config() {
  telemetry::TelemetryConfig config;
  config.enabled = true;
  config.sample_period = util::microseconds(20);
  return config;
}

TEST(PackageProbeSeries, CappedNodeSeriesPinned) {
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();

  Node node(MachineConfig::romley(), 11);
  telemetry::NodeProbe probe(probe_config(), nullptr, nullptr, "node");
  node.set_telemetry(&probe);
  core::Bmc bmc(node);
  bmc.set_telemetry(nullptr, &probe, "node");
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(120.0);
  apps::MemoryBoundWorkload work(8ull << 20, 150000);
  node.run(work);

  EXPECT_GT(probe.sampler().taken(), 20u);
  EXPECT_EQ(series_digest(probe.sampler()), 0x41ee633729e33c88ull)
      << std::hex << "digest 0x" << series_digest(probe.sampler());
}

TEST(PackageProbeSeries, CappedSmpNodeSeriesPinned) {
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();

  SmpConfig config;
  config.cores = 2;
  SmpNode node(config, 13);
  telemetry::NodeProbe package(probe_config(), nullptr, nullptr, "package");
  telemetry::NodeProbe core0(probe_config(), nullptr, nullptr, "core0");
  telemetry::NodeProbe core1(probe_config(), nullptr, nullptr, "core1");
  node.set_telemetry(&package);
  std::vector<telemetry::NodeProbe*> cores{&core0, &core1};
  node.set_core_telemetry(cores);
  core::Bmc bmc(node);
  bmc.set_telemetry(nullptr, &package, "package");
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(150.0);
  apps::MemoryBoundWorkload memory(12ull << 20, 140000);
  apps::ComputeBoundWorkload compute(400000);
  std::vector<Workload*> ws{&memory, &compute};
  node.run(ws);

  EXPECT_GT(package.sampler().taken(), 20u);
  EXPECT_EQ(series_digest(package.sampler()), 0x559dacd28e5c45f8ull)
      << std::hex << "digest 0x" << series_digest(package.sampler());
  EXPECT_EQ(series_digest(core0.sampler()), 0xfd583e5c6fa82120ull)
      << std::hex << "digest 0x" << series_digest(core0.sampler());
  EXPECT_EQ(series_digest(core1.sampler()), 0xa591a407865981f9ull)
      << std::hex << "digest 0x" << series_digest(core1.sampler());
}

}  // namespace
}  // namespace pcap::sim
