// Thermal rack scenario (DESIGN.md §15): eight nodes with the RC-network
// thermal model, fans and per-node thermal governors, under a DCM group
// budget. The episode has three phases:
//
//   epochs 1-3   normal: full group budget, 25 C chassis inlet
//   epochs 4-6   demand-response dip: the group budget drops, BMCs deepen
//   epochs 7-12  budget restored AND an ambient excursion to 45 C hits the
//                row — the DCM raises every node's cap, the BMCs try to
//                de-escalate, and the thermal governors override the raise
//                (the DCM-vs-thermal conflict, visible per node)
//
// ASCII timelines show worst-node temperature, fan speed and applied cap
// over the episode; a CSV lands per node. Exits nonzero when the expected
// physics does not materialize: the governors must override during the
// excursion, and the rack draw must respect the dip budget once settled.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/dcm.hpp"
#include "harness/cli.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "thermal/governor.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace pcap;
  const harness::CliOptions cli = harness::parse_cli(argc, argv);

  constexpr int kNodes = 8;
  constexpr int kEpochs = 12;
  constexpr double kNormalBudget = 8 * 150.0;
  constexpr double kDipBudget = 8 * 130.0;
  constexpr double kCoolAmbient = 25.0;
  constexpr double kHotAmbient = 45.0;

  struct Slot {
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<core::Bmc> bmc;
    std::unique_ptr<thermal::ThermalGovernor> governor;
    std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
  };
  std::vector<Slot> rack(kNodes);
  core::DataCenterManager dcm;

  // Governors tuned so the 45 C excursion trips them but 25 C never does.
  thermal::ThermalGovernorConfig gov_config =
      thermal::governor_for_policy("balanced");
  gov_config.fan.target_c = 48.0;
  gov_config.pclamp_trip_c = 51.0;
  gov_config.duty_trip_c = 62.0;

  for (int i = 0; i < kNodes; ++i) {
    Slot& s = rack[static_cast<std::size_t>(i)];
    s.node = std::make_unique<sim::Node>(sim::MachineConfig::romley_thermal(),
                                         static_cast<std::uint64_t>(70 + i));
    s.node->thermal_network().set_ambient_c(kCoolAmbient);
    s.bmc = std::make_unique<core::Bmc>(*s.node);
    s.governor = std::make_unique<thermal::ThermalGovernor>(*s.node, gov_config);
    s.node->set_control_hook([b = s.bmc.get(), g = s.governor.get()](
                                 sim::PlatformControl&) {
      b->on_control_tick();
      g->on_control_tick();
    });
    s.server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*s.bmc);
    dcm.add_node("node-" + std::to_string(i), *s.server);
  }
  dcm.apply_group_cap(kNormalBudget);

  std::vector<double> t_epoch;
  std::vector<double> t_max_temp, t_max_fan, t_cap, t_overrides, t_draw;
  std::uint64_t overrides_before_excursion = 0;
  double dip_settled_draw = 0.0;

  std::printf(
      "epoch | phase      | draw (W) | cap/node | worst T (C) | fan (RPM) | "
      "overrides\n");
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    // Phase transitions.
    if (epoch == 4) dcm.apply_group_cap(kDipBudget);
    if (epoch == 7) {
      dcm.apply_group_cap(kNormalBudget);  // the DCM raises every cap...
      for (Slot& s : rack) {               // ...as the hot aisle arrives
        s.node->thermal_network().set_ambient_c(kHotAmbient);
      }
    }
    const char* phase = epoch < 4 ? "normal" : epoch < 7 ? "dr-dip" : "hot-raise";

    for (int i = 0; i < kNodes; ++i) {
      apps::PhasedParams p;
      p.phases = 6;
      p.mean_phase_uops = 500000;
      p.seed = static_cast<std::uint64_t>(epoch * 100 + i);
      apps::PhasedWorkload w(p);
      rack[static_cast<std::size_t>(i)].node->run(w);
    }
    dcm.poll();

    double max_temp = 0.0, max_fan = 0.0, overrides = 0.0;
    for (const Slot& s : rack) {
      max_temp = std::max(max_temp, s.node->sensor_temperature_c());
      max_fan = std::max(max_fan, s.node->fan_rpm());
      overrides += static_cast<double>(s.governor->overrides());
    }
    const double draw = dcm.total_observed_power_w();
    const auto limit = dcm.node("node-0")->power_limit();
    const double cap = limit && limit->enabled ? limit->limit_w : 0.0;

    t_epoch.push_back(static_cast<double>(epoch));
    t_max_temp.push_back(max_temp);
    t_max_fan.push_back(max_fan);
    t_cap.push_back(cap);
    t_overrides.push_back(overrides);
    t_draw.push_back(draw);
    if (epoch == 6) {
      overrides_before_excursion = static_cast<std::uint64_t>(overrides);
      dip_settled_draw = draw;
    }

    std::printf("%5d | %-10s | %8.0f | %8.0f | %11.1f | %9.0f | %9.0f\n",
                epoch, phase, draw, cap, max_temp, max_fan, overrides);
  }

  // Timelines.
  util::TimeSeriesChart temp_chart;
  temp_chart.set_title("worst-node die temperature (C) vs epoch");
  temp_chart.add_series({"worst T", t_epoch, t_max_temp});
  std::printf("\n%s", temp_chart.render().c_str());

  util::TimeSeriesChart fan_chart;
  fan_chart.set_title("fastest fan (RPM) vs epoch");
  fan_chart.add_series({"max fan", t_epoch, t_max_fan});
  std::printf("\n%s", fan_chart.render().c_str());

  util::TimeSeriesChart cap_chart;
  cap_chart.set_title("per-node cap and rack draw (W) vs epoch");
  cap_chart.add_series({"cap/node", t_epoch, t_cap});
  std::printf("\n%s", cap_chart.render().c_str());

  // Per-node CSV artifact.
  util::CsvWriter csv(cli.csv_dir + "/thermal_rack.csv");
  csv.row({"node", "temp_c", "fan_rpm", "overrides", "pstate_clamp",
           "reason"});
  for (int i = 0; i < kNodes; ++i) {
    const Slot& s = rack[static_cast<std::size_t>(i)];
    csv.field(std::int64_t{i})
        .field(s.node->sensor_temperature_c())
        .field(s.node->fan_rpm())
        .field(static_cast<std::uint64_t>(s.governor->overrides()))
        .field(static_cast<std::uint64_t>(s.governor->pstate_clamp()))
        .field(static_cast<int>(s.governor->active_reason()));
    csv.end_row();
  }
  csv.flush();

  // --- scenario assertions -------------------------------------------------
  int failures = 0;
  std::uint64_t final_overrides = 0;
  int clamped_nodes = 0;
  for (const Slot& s : rack) {
    final_overrides += s.governor->overrides();
    if (s.governor->pstate_clamp() > 0) ++clamped_nodes;
  }
  if (final_overrides <= overrides_before_excursion) {
    std::fprintf(stderr,
                 "FAIL: no governor overrides during the hot cap raise\n");
    ++failures;
  }
  if (clamped_nodes == 0) {
    std::fprintf(stderr, "FAIL: no node left thermally clamped\n");
    ++failures;
  }
  if (dip_settled_draw > kDipBudget * 1.02) {
    std::fprintf(stderr, "FAIL: settled dip draw %.0f exceeds budget %.0f\n",
                 dip_settled_draw, kDipBudget);
    ++failures;
  }
  if (failures > 0) return 1;
  std::printf(
      "\nconflict confirmed: the epoch-7 cap raise was overridden on %d/%d "
      "nodes\n(%llu thermal override periods, %llu before the excursion) — "
      "the thermal\ngovernor, not the DCM, owns the operating point in a hot "
      "aisle.\n",
      clamped_nodes, kNodes,
      static_cast<unsigned long long>(final_overrides),
      static_cast<unsigned long long>(overrides_before_excursion));
  return 0;
}
