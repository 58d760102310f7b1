// Tests for the thermal subsystem (DESIGN.md §15): the RC-network model's
// bit-exact degenerate path (pinned to the removed lumped model's outputs),
// tau calibration, fan curve monotonicity, the thermal governor's
// escalation ladder and its documented conflict with DCM cap raises,
// per-subsystem caps (invariant under lossy transports), and governor-off
// bit-identity of the full power-cap study.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "thermal/fan.hpp"
#include "thermal/governor.hpp"
#include "thermal/rc_network.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcap {
namespace {

// --- RC network: degenerate single-RC path -------------------------------

TEST(RcNetwork, DegenerateMatchesLegacyThermalModelBitExact) {
  // The removed lumped `power::ThermalModel` produced the temperature
  // sequence pinned below for this irregular power/dt schedule (FNV-1a
  // over all 500 intermediate temperatures, plus the last one in readable
  // form). The degenerate path replays its FP sequence verbatim, which is
  // what keeps the golden studies green, so it must still match bit for bit.
  const auto config = thermal::RcNetworkConfig::single_rc();
  thermal::RcNetwork net(config);
  ASSERT_TRUE(net.is_single_rc());
  EXPECT_EQ(net.temperature_c(), config.ambient_c);

  util::Rng rng(0xC0FFEE);
  std::uint64_t digest = util::kFnvOffset;
  for (int i = 0; i < 500; ++i) {
    const double watts = 40.0 + 0.001 * static_cast<double>(rng.below(130000));
    const util::Picoseconds dt =
        util::microseconds(1.0) + rng.below(1000) * 1000000ull;
    net.update_lumped(watts, dt);
    digest = util::fnv_mix(digest, net.temperature_c());
  }
  EXPECT_EQ(digest, 0x6026fa02df4c7480ull)
      << std::hex << "digest 0x" << digest;
  EXPECT_EQ(net.temperature_c(), 73.633073113713195);
  net.reset();
  EXPECT_EQ(net.temperature_c(), config.ambient_c);
}

TEST(RcNetwork, RomleyNetworkWarmsTowardSteadyState) {
  const auto config = thermal::RcNetworkConfig::romley_network();
  thermal::RcNetwork net(config);
  EXPECT_FALSE(net.is_single_rc());
  const double t0 = net.temperature_c();
  for (int i = 0; i < 20000; ++i) {
    net.update({70.0, 20.0, 15.0}, util::microseconds(5.0));
  }
  // CPU die settles hottest, heatsink between die and ambient.
  EXPECT_GT(net.temperature_c(), t0 + 5.0);
  EXPECT_GT(net.source_temperature_c(power::Subsystem::kCpu),
            net.node_temperature_c(config.exhaust_node));
  EXPECT_GT(net.node_temperature_c(config.exhaust_node), config.ambient_c);
}

TEST(RcNetwork, HotterAmbientShiftsEverythingUp) {
  auto config = thermal::RcNetworkConfig::romley_network();
  thermal::RcNetwork cool(config);
  config.ambient_c = 45.0;
  thermal::RcNetwork hot(config);
  for (int i = 0; i < 20000; ++i) {
    cool.update({70.0, 20.0, 15.0}, util::microseconds(5.0));
    hot.update({70.0, 20.0, 15.0}, util::microseconds(5.0));
  }
  EXPECT_GT(hot.temperature_c(), cool.temperature_c() + 5.0);
}

TEST(RcNetwork, RejectsEmptyConfig) {
  EXPECT_THROW(thermal::RcNetwork(thermal::RcNetworkConfig{}),
               std::invalid_argument);
}

// --- tau calibration ------------------------------------------------------

TEST(ThermalTau, RomleyTauIsCalibratedToMeterPeriod) {
  const sim::MachineConfig m = sim::MachineConfig::romley();
  // The 2 ms default is 10 meter periods of 200 us simulated time.
  EXPECT_NEAR(m.thermal_tau_meter_periods(), 10.0, 1e-9);
  EXPECT_TRUE(m.thermal_tau_calibrated());
  EXPECT_TRUE(sim::MachineConfig::romley_thermal().thermal_tau_calibrated());
}

TEST(ThermalTau, DriftedTauFailsCalibration) {
  sim::MachineConfig m = sim::MachineConfig::romley();
  m.thermal.legacy_tau = util::microseconds(50.0);  // 0.25 periods: decoupled
  EXPECT_FALSE(m.thermal_tau_calibrated());
  m.thermal.legacy_tau = util::milliseconds(100.0);  // 500 periods: glacial
  EXPECT_FALSE(m.thermal_tau_calibrated());
}

TEST(ThermalTau, NetworkTauIsTheSlowestNodes) {
  // The fitted network never integrates a lumped tau: its check reads the
  // slowest node, the heatsink (C 0.052 J/C over 1/0.27 + 1/0.08 + 1/0.12
  // W/C, ~2.12 ms = ~10.6 meter periods).
  sim::MachineConfig m = sim::MachineConfig::romley_thermal();
  EXPECT_NEAR(m.thermal_tau_meter_periods(), 10.597, 1e-3);
  EXPECT_TRUE(m.thermal_tau_calibrated());
  m.thermal.nodes[3].heat_capacity_j_per_c *= 100.0;  // ~1060 periods
  EXPECT_FALSE(m.thermal_tau_calibrated());
}

// --- fan ------------------------------------------------------------------

TEST(Fan, ResistanceFallsAndPowerRisesWithRpm) {
  thermal::FanConfig config;
  config.max_rpm = 9000.0;
  thermal::Fan fan(config);
  ASSERT_TRUE(fan.fitted());
  double last_r = fan.resistance_c_per_w();
  double last_p = fan.power_w();
  for (int level = 1; level <= config.levels; ++level) {
    fan.set_rpm(fan.rpm_for_level(level));
    EXPECT_LT(fan.resistance_c_per_w(), last_r) << "level " << level;
    EXPECT_GE(fan.power_w(), last_p) << "level " << level;
    last_r = fan.resistance_c_per_w();
    last_p = fan.power_w();
  }
  EXPECT_NEAR(last_r, config.r_max_flow_c_per_w, 1e-9);
  EXPECT_NEAR(last_p, config.max_power_w, 1e-9);
}

TEST(Fan, UnfittedFanIsInert) {
  thermal::Fan fan(thermal::FanConfig{});  // max_rpm = 0: not fitted
  EXPECT_FALSE(fan.fitted());
  EXPECT_DOUBLE_EQ(fan.power_w(), 0.0);
}

// --- governor policies ----------------------------------------------------

TEST(GovernorPolicy, NamesMapToProfiles) {
  EXPECT_FALSE(thermal::governor_for_policy("off").enabled);
  const auto quiet = thermal::governor_for_policy("quiet");
  const auto balanced = thermal::governor_for_policy("balanced");
  const auto aggressive = thermal::governor_for_policy("aggressive");
  EXPECT_TRUE(quiet.enabled);
  EXPECT_TRUE(balanced.enabled);
  EXPECT_TRUE(aggressive.enabled);
  // Quiet ramps the fan late and clamps early; aggressive the reverse.
  EXPECT_GT(quiet.fan.target_c, aggressive.fan.target_c);
  EXPECT_LT(quiet.pclamp_trip_c, aggressive.pclamp_trip_c);
}

// --- the DCM-vs-thermal conflict -----------------------------------------

apps::PhasedParams hot_params() {
  apps::PhasedParams p;
  p.phases = 6;
  p.mean_phase_uops = 400000;
  return p;
}

TEST(ThermalConflict, GovernorOverridesCapRaise) {
  // A hot chassis (48 C inlet) with deliberately low trip points: the BMC
  // first enforces a deep cap, then the DCM "raises" it — and the governor
  // must keep the node clamped for thermal reasons, visibly.
  sim::MachineConfig machine = sim::MachineConfig::romley_thermal();
  machine.thermal.ambient_c = 48.0;
  sim::Node node(machine, 7);

  core::Bmc bmc(node);
  thermal::ThermalGovernorConfig gov_config;
  gov_config.fan.target_c = 45.0;
  gov_config.pclamp_trip_c = 52.0;
  gov_config.duty_trip_c = 62.0;
  thermal::ThermalGovernor governor(node, gov_config);
  node.set_control_hook([&](sim::PlatformControl&) {
    bmc.on_control_tick();
    governor.on_control_tick();
  });

  apps::PhasedWorkload workload(hot_params());
  bmc.set_cap(130.0);
  node.run(workload);
  EXPECT_GT(bmc.current_level(), 0u);  // the cap bites

  // The DCM raises the cap to something generous. The BMC de-escalates —
  // but the die is hot, so the governor re-clamps within the same control
  // periods and wins.
  bmc.set_cap(250.0);
  node.run(workload);

  EXPECT_GT(governor.overrides(), 0u);
  EXPECT_GT(governor.pstate_clamp(), 0u);
  EXPECT_GE(node.pstate(), governor.pstate_clamp());
  const thermal::ThrottleReason reason = governor.active_reason();
  EXPECT_TRUE(reason == thermal::ThrottleReason::kThermalPstate ||
              reason == thermal::ThrottleReason::kThermalDuty)
      << "reason " << static_cast<int>(reason);
  EXPECT_GT(governor.peak_temperature_c(), gov_config.pclamp_trip_c);
  // The fan was driven, and its draw shows up in node power.
  EXPECT_GT(node.fan_rpm(), 0.0);
}

TEST(ThermalConflict, GovernorIsInertWhenDisabled) {
  sim::MachineConfig machine = sim::MachineConfig::romley_thermal();
  machine.thermal.ambient_c = 48.0;
  sim::Node node(machine, 7);
  core::Bmc bmc(node);
  thermal::ThermalGovernorConfig gov_config = thermal::governor_for_policy("off");
  gov_config.pclamp_trip_c = 40.0;  // would trip constantly if enabled
  thermal::ThermalGovernor governor(node, gov_config);
  node.set_control_hook([&](sim::PlatformControl&) {
    bmc.on_control_tick();
    governor.on_control_tick();
  });
  apps::PhasedWorkload workload(hot_params());
  node.run(workload);
  EXPECT_EQ(governor.overrides(), 0u);
  EXPECT_EQ(governor.pstate_clamp(), 0u);
  EXPECT_EQ(governor.active_reason(), thermal::ThrottleReason::kNone);
  // The fitted fan idles at its minimum — the governor never ramped it.
  EXPECT_DOUBLE_EQ(node.fan_rpm(), machine.fan.min_rpm);
}

// --- governor-off study bit-identity --------------------------------------

harness::WorkloadFactory phased_factory() {
  return [] {
    apps::PhasedParams p;
    p.phases = 4;
    p.mean_phase_uops = 200000;
    return std::make_unique<apps::PhasedWorkload>(p);
  };
}

TEST(ThermalStudy, GovernorOffIsBitIdentical) {
  harness::StudyConfig plain;
  plain.caps_w = {150.0, 130.0};
  plain.repetitions = 2;

  harness::StudyConfig with_field = plain;
  // A fully-populated but DISABLED governor config must change nothing.
  with_field.thermal_governor = thermal::governor_for_policy("aggressive");
  with_field.thermal_governor.enabled = false;

  const harness::StudyResult a =
      harness::run_power_cap_study("phased", phased_factory(), plain);
  const harness::StudyResult b =
      harness::run_power_cap_study("phased", phased_factory(), with_field);
  EXPECT_EQ(a.baseline.time_s, b.baseline.time_s);
  EXPECT_EQ(a.baseline.energy_j, b.baseline.energy_j);
  ASSERT_EQ(a.capped.size(), b.capped.size());
  for (std::size_t i = 0; i < a.capped.size(); ++i) {
    EXPECT_EQ(a.capped[i].time_s, b.capped[i].time_s);
    EXPECT_EQ(a.capped[i].energy_j, b.capped[i].energy_j);
    EXPECT_EQ(a.capped[i].avg_power_w, b.capped[i].avg_power_w);
    EXPECT_EQ(a.capped[i].avg_frequency, b.capped[i].avg_frequency);
  }
}

TEST(ThermalStudy, EnabledGovernorInHotChassisCostsTime) {
  harness::StudyConfig hot;
  hot.caps_w = {150.0};
  hot.repetitions = 1;
  hot.machine = sim::MachineConfig::romley_thermal();
  hot.machine.thermal.ambient_c = 48.0;

  harness::StudyConfig governed = hot;
  governed.thermal_governor = thermal::governor_for_policy("balanced");
  governed.thermal_governor.pclamp_trip_c = 52.0;
  governed.thermal_governor.duty_trip_c = 62.0;

  const harness::StudyResult a =
      harness::run_power_cap_study("phased", phased_factory(), hot);
  const harness::StudyResult b =
      harness::run_power_cap_study("phased", phased_factory(), governed);
  // The clamp costs baseline performance — that is its purpose.
  EXPECT_GT(b.baseline.time_s, a.baseline.time_s);
}

// --- CLI thermal flags ------------------------------------------------------

harness::StudyConfig config_from_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  harness::StudyConfig config;
  harness::apply_cli_thermal(
      config,
      harness::parse_cli(static_cast<int>(argv.size()), argv.data()));
  return config;
}

/// The package sensor of a node built from the config, before any tick.
double first_temperature_c(const harness::StudyConfig& config) {
  return sim::Node(config.machine).temperature_c();
}

TEST(CliThermal, AmbientAloneHeatsTheDefaultMachine) {
  const harness::StudyConfig config = config_from_cli({"--ambient=45"});
  EXPECT_FALSE(config.thermal_governor.enabled);
  EXPECT_EQ(config.machine.fan.max_rpm, 0.0);
  EXPECT_EQ(first_temperature_c(config), 45.0);
}

TEST(CliThermal, FanPolicyAloneUpgradesToTheNetworkAtDefaultAmbient) {
  const harness::StudyConfig config = config_from_cli({"--fan-policy=quiet"});
  EXPECT_TRUE(config.thermal_governor.enabled);
  EXPECT_EQ(config.machine.thermal.nodes.size(), 4u);
  EXPECT_GT(config.machine.fan.max_rpm, 0.0);
  EXPECT_EQ(first_temperature_c(config), 35.0);
}

TEST(CliThermal, AmbientAndFanPolicyGiveAHotNetwork) {
  const harness::StudyConfig config =
      config_from_cli({"--fan-policy=quiet", "--ambient=45"});
  EXPECT_TRUE(config.thermal_governor.enabled);
  EXPECT_EQ(config.machine.thermal.nodes.size(), 4u);
  EXPECT_EQ(first_temperature_c(config), 45.0);
}

// --- per-subsystem caps ---------------------------------------------------

TEST(SubsystemCaps, BreakdownMetersSumToPackagePower) {
  sim::Node node(sim::MachineConfig::romley(), 3);
  apps::PhasedWorkload workload(hot_params());
  node.run(workload);
  const double cpu = node.subsystem_power_w(power::Subsystem::kCpu);
  const double uncore = node.subsystem_power_w(power::Subsystem::kUncore);
  const double mem = node.subsystem_power_w(power::Subsystem::kMemory);
  EXPECT_GT(cpu, 0.0);
  EXPECT_GT(uncore, 0.0);
  EXPECT_GT(mem, 0.0);
  // The three meters plus the constant platform floor account for the
  // whole package (fan not fitted on plain romley).
  const double platform_base = node.instantaneous_power_w() -
                               (cpu + uncore + mem);
  EXPECT_GT(platform_base, 0.0);
}

TEST(SubsystemCaps, CpuCapThrottlesWithoutPackageCap) {
  sim::Node node(sim::MachineConfig::romley(), 3);
  core::Bmc bmc(node);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  core::SubsystemCaps caps;
  caps.enabled = true;
  caps.cpu_w = 45.0;  // far below the ~70 W the workload wants
  bmc.set_subsystem_caps(caps);
  apps::PhasedWorkload workload(hot_params());
  node.run(workload);
  EXPECT_GT(bmc.max_level_reached(), 0u);
  EXPECT_TRUE(bmc.throttle_status().capping_active);
  EXPECT_GT(node.subsystem_power_w(power::Subsystem::kCpu), 0.0);
  ASSERT_TRUE(bmc.subsystem_caps().has_value());
  EXPECT_TRUE(bmc.subsystem_caps()->enabled);
}

TEST(SubsystemCaps, SumClampsToPackageCap) {
  sim::Node node(sim::MachineConfig::romley(), 3);
  core::Bmc bmc(node);
  bmc.set_cap(130.0);
  core::SubsystemCaps caps;
  caps.enabled = true;
  caps.cpu_w = 100.0;
  caps.uncore_w = 40.0;
  caps.memory_w = 40.0;  // sum 180 > 130
  const core::SubsystemCaps applied = bmc.set_subsystem_caps(caps);
  EXPECT_LE(applied.sum_w(), 130.0 + 1e-9);
  EXPECT_GT(bmc.subsystem_cap_clamps(), 0u);
  // Lowering the package cap re-clamps; raising it restores the request.
  bmc.set_cap(120.0);
  EXPECT_LE(bmc.subsystem_caps()->sum_w(), 120.0 + 1e-9);
  bmc.set_cap(200.0);
  EXPECT_NEAR(bmc.subsystem_caps()->sum_w(), 180.0, 1e-9);
}

TEST(SubsystemCaps, InvariantHoldsUnderRandomInterleaving) {
  // Random interleavings of package-cap and subsystem-cap changes: after
  // every call, the enabled subsystem-cap sum must not exceed the package
  // cap.
  sim::Node node(sim::MachineConfig::romley(), 3);
  core::Bmc bmc(node);
  util::Rng rng(0xBEEF);
  for (int i = 0; i < 300; ++i) {
    if (rng.below(2) == 0) {
      bmc.set_cap(115.0 + static_cast<double>(rng.below(180)));
    } else {
      core::SubsystemCaps caps;
      caps.enabled = true;
      caps.cpu_w = 20.0 + static_cast<double>(rng.below(150));
      caps.uncore_w = static_cast<double>(rng.below(60));
      caps.memory_w = static_cast<double>(rng.below(60));
      bmc.set_subsystem_caps(caps);
    }
    if (bmc.cap() && bmc.subsystem_caps() && bmc.subsystem_caps()->enabled) {
      ASSERT_LE(bmc.subsystem_caps()->sum_w(), *bmc.cap() + 1e-9)
          << "call " << i;
    }
  }
  EXPECT_GT(bmc.subsystem_cap_clamps(), 0u);
}

}  // namespace
}  // namespace pcap
