// Demand-response scenario: the deployment pattern DCM was actually sold
// for (paper §I-A: "Return on Investment is cost avoidance ... resulting
// from power outages").
//
// A facility hosting four nodes receives a demand-response event: for a
// contracted window, the rack must shed load to a reduced budget, then
// restore. The operator programs the whole episode as a cap *schedule* on
// the DCM; the BMCs enforce it; monitoring history shows the rack draw
// tracking the contract, and the alert log stays clean because the shed
// budget stays above every node's throttling floor.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/dcm.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"

int main() {
  using namespace pcap;
  constexpr int kNodes = 4;
  constexpr double kNormalCap = 155.0;
  constexpr double kShedCap = 128.0;  // above the ~122 W floor

  struct Slot {
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<core::Bmc> bmc;
    std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
  };
  std::vector<Slot> rack(kNodes);
  core::DataCenterManager dcm;
  for (int i = 0; i < kNodes; ++i) {
    Slot& s = rack[static_cast<std::size_t>(i)];
    s.node = std::make_unique<sim::Node>(sim::MachineConfig::romley(),
                                         static_cast<std::uint64_t>(40 + i));
    s.bmc = std::make_unique<core::Bmc>(*s.node);
    s.server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*s.bmc);
    s.node->set_control_hook(
        [b = s.bmc.get()](sim::PlatformControl&) { b->on_control_tick(); });
    dcm.add_node("node-" + std::to_string(i), *s.server);
  }

  // The episode, in DCM polling epochs: normal -> shed at epoch 3 ->
  // restore at epoch 7 -> uncap at epoch 10.
  using Sched = core::DataCenterManager::ScheduledCap;
  for (int i = 0; i < kNodes; ++i) {
    dcm.set_cap_schedule("node-" + std::to_string(i),
                         {Sched{1, kNormalCap}, Sched{3, kShedCap},
                          Sched{7, kNormalCap}, Sched{10, std::nullopt}});
  }

  std::printf("epoch | rack draw (W) | per-node caps\n");
  for (int epoch = 1; epoch <= 10; ++epoch) {
    // Each epoch the nodes process their batch of work...
    for (int i = 0; i < kNodes; ++i) {
      apps::PhasedParams p;
      p.phases = 2;
      p.mean_phase_uops = 250000;
      p.seed = static_cast<std::uint64_t>(epoch * 10 + i);
      apps::PhasedWorkload w(p);
      rack[static_cast<std::size_t>(i)].node->run(w);
    }
    // ...then the management server polls (applying due schedule entries).
    dcm.poll();
    double draw = dcm.total_observed_power_w();
    const auto limit = dcm.node("node-0")->power_limit();
    std::printf("%5d | %13.0f | %s\n", epoch, draw,
                limit && limit->enabled
                    ? (std::to_string(static_cast<int>(limit->limit_w)) + " W")
                          .c_str()
                    : "uncapped");
  }

  std::printf("\nalerts during the episode:\n");
  if (dcm.alerts().empty()) {
    std::printf("  (none — the shed budget stayed above every node's "
                "throttling floor)\n");
  }
  for (const auto& a : dcm.alerts()) {
    std::printf("  [poll %llu] %s: %s\n",
                static_cast<unsigned long long>(a.poll_seq), a.node.c_str(),
                a.message.c_str());
  }

  // Post-episode audit from history.
  const auto* history = dcm.history("node-1");
  if (history != nullptr && history->size() >= 2) {
    double shed_draw = 0.0, normal_draw = 0.0;
    int shed_n = 0, normal_n = 0;
    for (const auto& sample : *history) {
      if (sample.poll_seq >= 4 && sample.poll_seq < 7) {  // skip the engage epoch
        shed_draw += sample.current_w;
        ++shed_n;
      } else if (sample.poll_seq < 3) {
        normal_draw += sample.current_w;
        ++normal_n;
      }
    }
    if (shed_n && normal_n) {
      std::printf(
          "\nnode-1 audit: %.0f W avg normal vs %.0f W avg during shed "
          "(contracted %.0f W)\n",
          normal_draw / normal_n, shed_draw / shed_n, kShedCap);
    }
  }
  return 0;
}
