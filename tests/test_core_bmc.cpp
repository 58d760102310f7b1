// Unit and property tests for the BMC power-capping firmware: ladder
// construction, controller convergence, escalation order, dithering,
// throttling floor, telemetry and the IPMI server endpoint.
#include <gtest/gtest.h>

#include <optional>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/bmc_ipmi_server.hpp"
#include "core/capped_runner.hpp"
#include "fleet/virtual_node.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace pcap::core {
namespace {

sim::MachineConfig machine() { return sim::MachineConfig::romley(); }

apps::PhasedParams steady_params() {
  apps::PhasedParams p;
  p.phases = 6;
  p.mean_phase_uops = 400000;
  return p;
}

TEST(BmcLadder, StartsWithAllPStates) {
  sim::Node node(machine());
  Bmc bmc(node);
  const auto& ladder = bmc.ladder();
  ASSERT_GE(ladder.size(), 16u);
  for (std::uint32_t p = 0; p < 16; ++p) {
    EXPECT_EQ(ladder[p].pstate, p);
    EXPECT_DOUBLE_EQ(ladder[p].duty, 1.0);
    EXPECT_EQ(ladder[p].l3_ways, 20u);
    EXPECT_FALSE(ladder[p].dram_gated);
  }
}

TEST(BmcLadder, EscalatesDvfsThenMemoryThenCachesThenDuty) {
  sim::Node node(machine());
  Bmc bmc(node);
  const auto& ladder = bmc.ladder();
  ASSERT_GT(ladder.size(), 21u);
  // Rung 16: DRAM gating before any cache gating.
  EXPECT_TRUE(ladder[16].dram_gated);
  EXPECT_EQ(ladder[16].l3_ways, 20u);
  // Then L3 shrinks monotonically, then duty drops, never re-grows.
  std::uint32_t last_l3 = 20;
  double last_duty = 1.0;
  for (std::size_t i = 16; i < ladder.size(); ++i) {
    EXPECT_LE(ladder[i].l3_ways, last_l3);
    EXPECT_LE(ladder[i].duty, last_duty + 1e-12);
    last_l3 = ladder[i].l3_ways;
    last_duty = ladder[i].duty;
  }
  // Deepest rung: minimum duty.
  EXPECT_NEAR(ladder.back().duty, node.min_duty(), 1e-9);
}

TEST(BmcLadder, DvfsOnlyConfigTruncates) {
  sim::Node node(machine());
  BmcConfig config;
  config.dvfs_only = true;
  Bmc bmc(node, config);
  EXPECT_EQ(bmc.ladder().size(), 16u);
}

TEST(Bmc, UncappedAppliesTopLevel) {
  sim::Node node(machine());
  Bmc bmc(node);
  EXPECT_FALSE(bmc.cap().has_value());
  EXPECT_EQ(node.pstate(), 0u);
  EXPECT_DOUBLE_EQ(node.duty(), 1.0);
}

TEST(Bmc, ReachableCapIsEnforced) {
  sim::Node node(machine());
  CappedRunner runner(node);
  apps::PhasedWorkload workload(steady_params());
  const sim::RunReport r = runner.run(workload, 140.0);
  EXPECT_LE(r.avg_power_w, 141.5);
  EXPECT_GT(r.avg_power_w, 130.0);  // not over-throttled
}

TEST(Bmc, UnreachableCapHitsFloorAndSaturates) {
  sim::Node node(machine());
  Bmc bmc(node);
  node.set_control_hook([&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(110.0);  // below the throttling floor
  apps::PhasedWorkload workload(steady_params());
  const sim::RunReport r = node.run(workload);
  EXPECT_GT(r.avg_power_w, 115.0);  // cap missed
  // Saturated at the deepest rung.
  EXPECT_EQ(bmc.max_level_reached(),
            static_cast<std::uint32_t>(bmc.ladder().size() - 1));
  EXPECT_EQ(node.pstate(), 15u);
  EXPECT_NEAR(node.duty(), node.min_duty(), 1e-9);
}

TEST(Bmc, CapAboveDemandLeavesPlatformAlone) {
  sim::Node node(machine());
  CappedRunner runner(node);
  apps::PhasedWorkload workload(steady_params());
  const sim::RunReport base = runner.run(workload, std::nullopt);
  const sim::RunReport capped = runner.run(workload, 170.0);
  EXPECT_NEAR(util::to_seconds(capped.elapsed), util::to_seconds(base.elapsed),
              util::to_seconds(base.elapsed) * 0.02);
}

TEST(Bmc, ReleasingCapRestoresOperatingPoint) {
  sim::Node node(machine());
  Bmc bmc(node);
  node.set_control_hook([&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(120.0);
  apps::PhasedWorkload workload(steady_params());
  node.run(workload);
  EXPECT_GT(node.pstate(), 0u);
  bmc.set_cap(std::nullopt);
  EXPECT_EQ(node.pstate(), 0u);
  EXPECT_DOUBLE_EQ(node.duty(), 1.0);
  EXPECT_EQ(node.l3_ways(), 20u);
  EXPECT_EQ(node.l2_ways(), 8u);
  EXPECT_FALSE(node.dram_gated());
}

TEST(Bmc, DitheringYieldsBetweenPStateFrequencies) {
  sim::Node node(machine());
  CappedRunner runner(node);
  apps::PhasedWorkload workload(steady_params());
  const sim::RunReport r = runner.run(workload, 142.0);
  const auto mhz = r.avg_frequency / util::kMegaHertz;
  EXPECT_LT(mhz, 2701u);
  EXPECT_GT(mhz, 1200u);
}

TEST(Bmc, PowerReadingTracksMinMaxAvg) {
  sim::Node node(machine());
  Bmc bmc(node);
  node.set_control_hook([&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(145.0);
  apps::PhasedWorkload workload(steady_params());
  node.run(workload);
  const ipmi::PowerReading reading = bmc.power_reading();
  EXPECT_GT(reading.maximum_w, reading.minimum_w);
  EXPECT_GE(reading.maximum_w, reading.average_w);
  EXPECT_LE(reading.minimum_w, reading.average_w);
  EXPECT_GT(bmc.control_ticks(), 10u);
}

TEST(Bmc, ThrottleStatusReflectsPlatform) {
  sim::Node node(machine());
  Bmc bmc(node);
  node.set_pstate(15);
  node.set_duty(0.25);
  node.set_l3_ways(8);
  node.set_dram_gated(true);
  const ipmi::ThrottleStatus s = bmc.throttle_status();
  EXPECT_EQ(s.pstate, 15);
  EXPECT_EQ(s.duty_eighths, 2);
  EXPECT_EQ(s.l3_ways, 8);
  EXPECT_TRUE(s.dram_gated);
  EXPECT_FALSE(s.capping_active);
}

// Property: for every reachable cap on the grid, the controller regulates
// within tolerance; for caps below the floor it saturates rather than
// oscillating.
class BmcCapGrid : public ::testing::TestWithParam<double> {};

TEST_P(BmcCapGrid, RegulatesOrSaturates) {
  const double cap = GetParam();
  sim::Node node(machine());
  CappedRunner runner(node);
  apps::PhasedWorkload workload(steady_params());
  const sim::RunReport r = runner.run(workload, cap);
  const double floor = sim::CalibrationTargets{}.floor_below_w;
  if (cap >= floor) {
    EXPECT_LE(r.avg_power_w, cap + 2.0) << "cap " << cap;
  } else {
    EXPECT_LE(r.avg_power_w, floor) << "floor exceeded at cap " << cap;
  }
  // The controller must never leave the actuators out of range.
  EXPECT_LE(node.pstate(), 15u);
  EXPECT_GE(node.duty(), node.min_duty() - 1e-9);
  EXPECT_GE(node.l3_ways(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Grid, BmcCapGrid,
                         ::testing::Values(160.0, 150.0, 145.0, 140.0, 135.0,
                                           130.0, 125.0, 120.0, 115.0));

// --- IPMI server endpoint ---

class BmcServerTest : public ::testing::Test {
 protected:
  BmcServerTest() : node_(machine()), bmc_(node_), server_(bmc_) {}
  sim::Node node_;
  Bmc bmc_;
  BmcIpmiServer server_;
};

TEST_F(BmcServerTest, DeviceIdProbe) {
  const auto response = server_.handle(ipmi::make_get_device_id());
  EXPECT_TRUE(ipmi::decode_device_id(response).has_value());
}

TEST_F(BmcServerTest, SetAndGetPowerLimit) {
  EXPECT_TRUE(server_.handle(ipmi::make_set_power_limit({true, 130.0})).ok());
  ASSERT_TRUE(bmc_.cap().has_value());
  EXPECT_DOUBLE_EQ(*bmc_.cap(), 130.0);
  const auto limit =
      ipmi::decode_power_limit(server_.handle(ipmi::make_get_power_limit()));
  ASSERT_TRUE(limit.has_value());
  EXPECT_TRUE(limit->enabled);
  EXPECT_DOUBLE_EQ(limit->limit_w, 130.0);

  EXPECT_TRUE(server_.handle(ipmi::make_set_power_limit({false, 0.0})).ok());
  EXPECT_FALSE(bmc_.cap().has_value());
}

TEST_F(BmcServerTest, RejectsOutOfRangeCap) {
  const auto response = server_.handle(ipmi::make_set_power_limit({true, 50.0}));
  EXPECT_EQ(response.code, ipmi::CompletionCode::kOutOfRange);
  EXPECT_FALSE(bmc_.cap().has_value());
}

TEST_F(BmcServerTest, RejectsMalformedPayload) {
  ipmi::Request request = ipmi::make_set_power_limit({true, 130.0});
  request.payload.pop_back();
  EXPECT_EQ(server_.handle(request).code,
            ipmi::CompletionCode::kRequestDataInvalid);
}

TEST_F(BmcServerTest, RejectsUnknownCommand) {
  // 0xD2 is the retired GetRackTelemetry number, 0xD3/0xD4 the retired
  // SetSubsystemCaps/GetSubsystemPower ones: a stale client may send them.
  // A fleet leaf node's endpoint refuses them the same way.
  fleet::VirtualNode vnode(110.0, 400.0, 101.0);
  fleet::VirtualNodeIpmiServer vserver(vnode);
  for (const int command : {0x77, 0xD2, 0xD3, 0xD4}) {
    ipmi::Request request;
    request.command = static_cast<std::uint8_t>(command);
    EXPECT_EQ(server_.handle(request).code,
              ipmi::CompletionCode::kInvalidCommand)
        << command;
    EXPECT_EQ(vserver.handle(request).code,
              ipmi::CompletionCode::kInvalidCommand)
        << command;
  }
}

TEST_F(BmcServerTest, FrameLevelBadInputGetsErrorFrame) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  const auto reply = server_.handle_frame(garbage);
  ipmi::Response response;
  ASSERT_TRUE(ipmi::decode_response(reply, response));
  EXPECT_EQ(response.code, ipmi::CompletionCode::kRequestDataInvalid);
}

// Robustness: arbitrary byte garbage on the management network must never
// crash the endpoint; every frame gets either a decoded handling or a
// well-formed error response.
class BmcServerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BmcServerFuzz, RandomFramesAlwaysAnswered) {
  sim::Node node(machine());
  Bmc bmc(node);
  BmcIpmiServer server(bmc);
  util::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> frame(rng.below(24));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    const auto reply = server.handle_frame(frame);
    ipmi::Response response;
    ASSERT_TRUE(ipmi::decode_response(reply, response));
  }
  // The platform must still be in a sane state afterwards.
  EXPECT_LE(node.pstate(), 15u);
  EXPECT_GE(node.l3_ways(), 1u);
  if (bmc.cap()) {
    EXPECT_GE(*bmc.cap(), bmc.capabilities().min_cap_w);
    EXPECT_LE(*bmc.cap(), bmc.capabilities().max_cap_w);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmcServerFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST_F(BmcServerTest, PowerReadingAndCapabilitiesServed) {
  EXPECT_TRUE(ipmi::decode_power_reading(
                  server_.handle(ipmi::make_get_power_reading()))
                  .has_value());
  const auto caps = ipmi::decode_capabilities(
      server_.handle(ipmi::make_get_capabilities()));
  ASSERT_TRUE(caps.has_value());
  EXPECT_GT(caps->max_cap_w, caps->min_cap_w);
}

}  // namespace
}  // namespace pcap::core
