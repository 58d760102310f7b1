// Unit and property tests for the BMC power-capping firmware: ladder
// construction, controller convergence, escalation order, dithering,
// throttling floor, telemetry, and the node IPMI server: one contract table
// run against both of its faces (the BMC and the VirtualNode).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/capped_runner.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/virtual_node.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

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
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
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
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
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
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
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

/// One exchange with a server, frames encoded and decoded by hand.
ipmi::Response answer(ipmi::Transport& server, const ipmi::Request& request) {
  ipmi::Response response;
  EXPECT_TRUE(
      ipmi::decode_response(server.transact(ipmi::encode_request(request)),
                            response));
  return response;
}

/// One request and the completion code every node face answers it with.
struct ContractRow {
  const char* what;
  ipmi::Request request;
  ipmi::CompletionCode code;
};

/// Every node command, the SetPowerLimit edges, the budget-tree commands
/// (which belong to the rack endpoint) and an unknown command. Rows run in
/// order: the refused caps follow the cap at max, so "refused" is visible
/// as the cap staying at max.
std::vector<ContractRow> contract_rows() {
  using ipmi::CompletionCode;
  ipmi::Request malformed = ipmi::make_set_power_limit({true, 130.0});
  malformed.payload.pop_back();
  ipmi::Request unknown;
  unknown.command = 0x77;
  return {
      {"GetDeviceId", ipmi::make_get_device_id(), CompletionCode::kOk},
      {"GetCapabilities", ipmi::make_get_capabilities(), CompletionCode::kOk},
      {"GetPowerReading", ipmi::make_get_power_reading(), CompletionCode::kOk},
      {"GetThrottleStatus", ipmi::make_get_throttle_status(),
       CompletionCode::kOk},
      {"GetPowerLimit", ipmi::make_get_power_limit(), CompletionCode::kOk},
      {"SetPowerLimit at min", ipmi::make_set_power_limit({true, 110.0}),
       CompletionCode::kOk},
      {"SetPowerLimit at max", ipmi::make_set_power_limit({true, 400.0}),
       CompletionCode::kOk},
      {"SetPowerLimit min-0.1", ipmi::make_set_power_limit({true, 109.9}),
       CompletionCode::kOutOfRange},
      {"SetPowerLimit max+0.1", ipmi::make_set_power_limit({true, 400.1}),
       CompletionCode::kOutOfRange},
      {"SetPowerLimit disabled", ipmi::make_set_power_limit({false, 0.0}),
       CompletionCode::kOk},
      {"SetPowerLimit malformed", malformed,
       CompletionCode::kRequestDataInvalid},
      {"SetRackBudget", ipmi::make_set_rack_budget(1000.0),
       CompletionCode::kInvalidCommand},
      {"GetRackStatus", ipmi::make_get_rack_status(),
       CompletionCode::kInvalidCommand},
      {"unknown command", unknown, CompletionCode::kInvalidCommand},
  };
}

/// `watts` after the wire's 0.1 W fixed point.
double on_wire(double watts) {
  return ipmi::watts_from_wire(ipmi::watts_to_wire(watts));
}

/// Runs the contract table against `face` through a NodeIpmiServer and a
/// client session: completion codes, decoded payloads, and the face's cap
/// after every row.
template <typename Face>
void expect_node_contract(Face& face) {
  ASSERT_EQ(face.capabilities().min_cap_w, 110.0);
  ASSERT_EQ(face.capabilities().max_cap_w, 400.0);
  NodeIpmiServer<Face> server(face);
  ipmi::Session session(server);
  for (const ContractRow& row : contract_rows()) {
    SCOPED_TRACE(row.what);
    const std::optional<double> cap_before = face.cap();
    const ipmi::Response response = session.transact(row.request);
    ASSERT_EQ(session.last_error(), ipmi::Session::Error::kNone);
    EXPECT_EQ(response.code, row.code);
    if (!response.ok()) {
      EXPECT_TRUE(response.payload.empty());
      EXPECT_EQ(face.cap(), cap_before);  // a refusal changes nothing
      continue;
    }
    switch (static_cast<ipmi::Command>(row.request.command)) {
      case ipmi::Command::kGetDeviceId: {
        const auto id = ipmi::decode_device_id(response);
        ASSERT_TRUE(id.has_value());
        EXPECT_EQ(id->device_id, ipmi::DeviceId{}.device_id);
        EXPECT_EQ(id->firmware_major, ipmi::DeviceId{}.firmware_major);
        EXPECT_EQ(id->firmware_minor, ipmi::DeviceId{}.firmware_minor);
        break;
      }
      case ipmi::Command::kGetCapabilities: {
        const auto caps = ipmi::decode_capabilities(response);
        ASSERT_TRUE(caps.has_value());
        EXPECT_EQ(caps->min_cap_w, 110.0);
        EXPECT_EQ(caps->max_cap_w, 400.0);
        break;
      }
      case ipmi::Command::kGetPowerReading: {
        const auto reading = ipmi::decode_power_reading(response);
        ASSERT_TRUE(reading.has_value());
        const ipmi::PowerReading want = face.power_reading();
        EXPECT_GT(reading->current_w, 0.0);
        EXPECT_EQ(reading->current_w, on_wire(want.current_w));
        EXPECT_EQ(reading->average_w, on_wire(want.average_w));
        EXPECT_EQ(reading->minimum_w, on_wire(want.minimum_w));
        EXPECT_EQ(reading->maximum_w, on_wire(want.maximum_w));
        break;
      }
      case ipmi::Command::kGetThrottleStatus: {
        const auto status = ipmi::decode_throttle_status(response);
        ASSERT_TRUE(status.has_value());
        const ipmi::ThrottleStatus want = face.throttle_status();
        EXPECT_EQ(status->pstate, want.pstate);
        EXPECT_EQ(status->duty_eighths, want.duty_eighths);
        EXPECT_EQ(status->l3_ways, want.l3_ways);
        EXPECT_EQ(status->l2_ways, want.l2_ways);
        EXPECT_EQ(status->itlb_entries, want.itlb_entries);
        EXPECT_EQ(status->dtlb_entries, want.dtlb_entries);
        EXPECT_EQ(status->dram_gated, want.dram_gated);
        EXPECT_EQ(status->capping_active, want.capping_active);
        break;
      }
      case ipmi::Command::kGetPowerLimit: {
        const auto limit = ipmi::decode_power_limit(response);
        ASSERT_TRUE(limit.has_value());
        EXPECT_EQ(limit->enabled, face.cap().has_value());
        EXPECT_EQ(limit->limit_w, on_wire(face.cap().value_or(0.0)));
        break;
      }
      case ipmi::Command::kSetPowerLimit: {
        EXPECT_TRUE(response.payload.empty());
        const auto asked = ipmi::decode_set_power_limit(row.request);
        ASSERT_TRUE(asked.has_value());
        const std::optional<double> want =
            asked->enabled ? std::optional<double>(asked->limit_w)
                           : std::nullopt;
        EXPECT_EQ(face.cap(), want);
        // ... and the client reads the same cap back.
        const auto readback = ipmi::decode_power_limit(
            session.transact(ipmi::make_get_power_limit()));
        ASSERT_TRUE(readback.has_value());
        EXPECT_EQ(readback->enabled, asked->enabled);
        EXPECT_EQ(readback->limit_w, asked->enabled ? asked->limit_w : 0.0);
        break;
      }
      default:
        ADD_FAILURE() << "unexpected kOk";
    }
  }
}

TEST(NodeIpmiServerContract, BmcFace) {
  sim::Node node(machine());
  Bmc bmc(node);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  node.idle_for(util::microseconds(100));  // a reading to serve
  expect_node_contract(bmc);
}

TEST(NodeIpmiServerContract, VirtualNodeFace) {
  VirtualNode vnode(110.0, 400.0, 101.0);
  vnode.set_draw_w(123.45);
  expect_node_contract(vnode);
}

class BmcServerTest : public ::testing::Test {
 protected:
  BmcServerTest() : node_(machine()), bmc_(node_), server_(bmc_) {}
  sim::Node node_;
  Bmc bmc_;
  NodeIpmiServer<Bmc> server_;
};

TEST_F(BmcServerTest, DeviceIdProbe) {
  const auto response = answer(server_, ipmi::make_get_device_id());
  EXPECT_TRUE(ipmi::decode_device_id(response).has_value());
}

TEST_F(BmcServerTest, SetAndGetPowerLimit) {
  EXPECT_TRUE(
      answer(server_, ipmi::make_set_power_limit({true, 130.0})).ok());
  ASSERT_TRUE(bmc_.cap().has_value());
  EXPECT_DOUBLE_EQ(*bmc_.cap(), 130.0);
  const auto limit =
      ipmi::decode_power_limit(answer(server_, ipmi::make_get_power_limit()));
  ASSERT_TRUE(limit.has_value());
  EXPECT_TRUE(limit->enabled);
  EXPECT_DOUBLE_EQ(limit->limit_w, 130.0);

  EXPECT_TRUE(answer(server_, ipmi::make_set_power_limit({false, 0.0})).ok());
  EXPECT_FALSE(bmc_.cap().has_value());
}

TEST_F(BmcServerTest, RejectsOutOfRangeCap) {
  const auto response =
      answer(server_, ipmi::make_set_power_limit({true, 50.0}));
  EXPECT_EQ(response.code, ipmi::CompletionCode::kOutOfRange);
  EXPECT_FALSE(bmc_.cap().has_value());
}

TEST_F(BmcServerTest, RejectsMalformedPayload) {
  ipmi::Request request = ipmi::make_set_power_limit({true, 130.0});
  request.payload.pop_back();
  EXPECT_EQ(answer(server_, request).code,
            ipmi::CompletionCode::kRequestDataInvalid);
}

TEST_F(BmcServerTest, PowerReadingAndCapabilitiesServed) {
  EXPECT_TRUE(ipmi::decode_power_reading(
                  answer(server_, ipmi::make_get_power_reading()))
                  .has_value());
  const auto caps = ipmi::decode_capabilities(
      answer(server_, ipmi::make_get_capabilities()));
  ASSERT_TRUE(caps.has_value());
  EXPECT_GT(caps->max_cap_w, caps->min_cap_w);
}

TEST_F(BmcServerTest, RejectsUnknownCommand) {
  // 0xD2 is the retired GetRackTelemetry number, 0xD3/0xD4 the retired
  // SetSubsystemCaps/GetSubsystemPower ones: a stale client may send them.
  // A fleet leaf node's endpoint refuses them the same way.
  VirtualNode vnode(110.0, 400.0, 101.0);
  NodeIpmiServer<VirtualNode> vserver(vnode);
  for (const int command : {0x77, 0xD2, 0xD3, 0xD4}) {
    ipmi::Request request;
    request.command = static_cast<std::uint8_t>(command);
    EXPECT_EQ(answer(server_, request).code,
              ipmi::CompletionCode::kInvalidCommand)
        << command;
    EXPECT_EQ(answer(vserver, request).code,
              ipmi::CompletionCode::kInvalidCommand)
        << command;
  }
}

TEST_F(BmcServerTest, FrameLevelBadInputGetsErrorFrame) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  const auto reply = server_.transact(garbage);
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
  NodeIpmiServer<Bmc> server(bmc);
  util::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> frame(rng.below(24));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    const auto reply = server.transact(frame);
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

}  // namespace
}  // namespace pcap::core
