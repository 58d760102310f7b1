// Thermal extension sweep: ambient x package-cap x fan-policy grid on the
// RC-network thermal machine (DESIGN.md §15). For each cell one node runs
// the phased workload under its BMC cap with the thermal governor ticking
// after the BMC, and the sweep records time, power, peak die temperature,
// fan speed and governor overrides.
//
// Besides the CSV artifact the binary enforces the subsystem's mechanical
// properties and exits nonzero when one fails, so CI catches a thermal
// model regression the unit suite is too narrow to see:
//   1. Peak temperature is monotone in ambient (same cap, same policy).
//   2. In the hot chassis, when the die exceeds a policy's clamp trip the
//      governor must have engaged (overrides > 0).
//   3. The aggressive policy (early full fan) never runs the die hotter
//      than quiet (late fan) in the same cell.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "harness/cli.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "thermal/governor.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

struct CellResult {
  double ambient_c = 0.0;
  double cap_w = 0.0;  // 0 = uncapped
  std::string policy;
  double time_s = 0.0;
  double avg_power_w = 0.0;
  double peak_temp_c = 0.0;
  double fan_rpm = 0.0;
  std::uint64_t overrides = 0;
  std::uint32_t pstate_clamp = 0;
  int reason = 0;
};

pcap::apps::PhasedParams workload_params(bool full) {
  pcap::apps::PhasedParams p;
  p.phases = full ? 8 : 5;
  p.mean_phase_uops = full ? 600000 : 350000;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pcap;
  const harness::CliOptions cli = harness::parse_cli(argc, argv);

  const std::vector<double> ambients = {25.0, 45.0};
  const std::vector<double> caps = {0.0, 150.0, 135.0};
  const std::vector<std::string> policies = {"off", "quiet", "aggressive"};

  std::vector<CellResult> results;
  for (const double ambient : ambients) {
    for (const double cap : caps) {
      for (const std::string& policy : policies) {
        sim::MachineConfig machine = sim::MachineConfig::romley_thermal();
        machine.thermal.ambient_c = ambient;

        sim::Node node(machine, cli.seed);
        core::Bmc bmc(node);
        thermal::ThermalGovernor governor(
            node, thermal::governor_for_policy(policy));
        node.set_control_hook([&](sim::PlatformControl&) {
          bmc.on_control_tick();
          governor.on_control_tick();
        });
        if (cap > 0.0) bmc.set_cap(cap);

        apps::PhasedWorkload workload(workload_params(cli.full));
        const sim::RunReport report = node.run(workload);

        CellResult cell;
        cell.ambient_c = ambient;
        cell.cap_w = cap;
        cell.policy = policy;
        cell.time_s = util::to_seconds(report.elapsed);
        cell.avg_power_w = report.avg_power_w;
        cell.peak_temp_c = governor.config().enabled
                               ? governor.peak_temperature_c()
                               : node.sensor_temperature_c();
        cell.fan_rpm = node.fan_rpm();
        cell.overrides = governor.overrides();
        cell.pstate_clamp = governor.pstate_clamp();
        cell.reason = static_cast<int>(governor.active_reason());
        results.push_back(cell);
      }
    }
  }

  // Governor-off cells report the *final* sensor reading, not a peak; for
  // the monotonicity check compare like against like via this lookup.
  const auto find = [&](double ambient, double cap,
                        const std::string& policy) -> const CellResult& {
    for (const CellResult& c : results) {
      if (c.ambient_c == ambient && c.cap_w == cap && c.policy == policy) {
        return c;
      }
    }
    std::fprintf(stderr, "missing cell\n");
    std::exit(2);
  };

  util::TextTable table({"Ambient (C)", "Cap (W)", "Policy", "Time (s)",
                         "Power (W)", "Peak T (C)", "Fan (RPM)", "Overrides",
                         "Reason"});
  util::CsvWriter csv(cli.csv_dir + "/ext_thermal.csv");
  csv.row({"ambient_c", "cap_w", "policy", "time_s", "avg_power_w",
           "peak_temp_c", "fan_rpm", "overrides", "pstate_clamp", "reason"});
  for (const CellResult& c : results) {
    table.add_row(
        {util::TextTable::num(c.ambient_c, 0),
         c.cap_w > 0.0 ? util::TextTable::num(c.cap_w, 0) : "none", c.policy,
         util::TextTable::num(c.time_s, 4),
         util::TextTable::num(c.avg_power_w, 1),
         util::TextTable::num(c.peak_temp_c, 1),
         util::TextTable::num(c.fan_rpm, 0),
         util::TextTable::num(static_cast<std::uint64_t>(c.overrides)),
         thermal::throttle_reason_name(
             static_cast<thermal::ThrottleReason>(c.reason))});
    csv.field(c.ambient_c)
        .field(c.cap_w)
        .field(c.policy)
        .field(c.time_s)
        .field(c.avg_power_w)
        .field(c.peak_temp_c)
        .field(c.fan_rpm)
        .field(static_cast<std::uint64_t>(c.overrides))
        .field(static_cast<std::uint64_t>(c.pstate_clamp))
        .field(c.reason);
    csv.end_row();
  }
  csv.flush();
  std::printf("Thermal sweep: ambient x cap x fan policy\n%s",
              table.str().c_str());

  int violations = 0;
  const auto fail = [&violations](const char* what) {
    std::fprintf(stderr, "MECHANICAL CHECK FAILED: %s\n", what);
    ++violations;
  };

  // 1. Monotone in ambient.
  for (const double cap : caps) {
    for (const std::string& policy : policies) {
      const CellResult& cool = find(25.0, cap, policy);
      const CellResult& hot = find(45.0, cap, policy);
      if (hot.peak_temp_c <= cool.peak_temp_c) {
        fail("peak temperature not monotone in ambient");
      }
    }
  }
  // 2. Hot chassis: a die past the clamp trip means the governor engaged.
  for (const double cap : caps) {
    for (const std::string& policy : policies) {
      if (policy == "off") continue;
      const CellResult& hot = find(45.0, cap, policy);
      const auto config = thermal::governor_for_policy(policy);
      if (hot.peak_temp_c > config.pclamp_trip_c && hot.overrides == 0) {
        fail("die exceeded clamp trip but governor never engaged");
      }
    }
  }
  // 3. Aggressive (early fan) never hotter than quiet (late fan).
  for (const double ambient : ambients) {
    for (const double cap : caps) {
      const CellResult& quiet = find(ambient, cap, "quiet");
      const CellResult& aggressive = find(ambient, cap, "aggressive");
      if (aggressive.peak_temp_c > quiet.peak_temp_c + 0.5) {
        fail("aggressive fan policy ran hotter than quiet");
      }
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "%d mechanical check(s) failed\n", violations);
    return 1;
  }
  std::printf(
      "All mechanical checks passed: temperature monotone in ambient,\n"
      "governor engages past its trip, early fan runs cooler.\n");
  return 0;
}
