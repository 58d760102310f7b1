// Data-center scenario: Intel DCM's actual deployment model. A management
// server discovers eight nodes over IPMI, monitors their power, and enforces
// a group budget by splitting it across nodes in proportion to demand —
// exactly the "manage a large number of servers with varying workloads"
// role the paper describes for DCM (§I-A). One node's BMC hits its
// throttling floor, and the DCM's alerting catches the missed cap.
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
  constexpr int kNodes = 8;

  // Each rack slot: node + BMC + IPMI endpoint.
  struct Slot {
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<core::Bmc> bmc;
    std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
  };
  std::vector<Slot> rack(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    Slot& s = rack[static_cast<std::size_t>(i)];
    s.node = std::make_unique<sim::Node>(sim::MachineConfig::romley(),
                                         static_cast<std::uint64_t>(i + 1));
    s.bmc = std::make_unique<core::Bmc>(*s.node);
    s.server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*s.bmc);
    s.node->set_control_hook(
        [bmc = s.bmc.get()](sim::PlatformControl&) { bmc->on_control_tick(); });
  }

  // The management server discovers the rack.
  core::DataCenterManager dcm;
  for (int i = 0; i < kNodes; ++i) {
    dcm.add_node("node-" + std::to_string(i), *rack[static_cast<std::size_t>(i)].server);
  }
  std::printf("DCM manages %zu nodes\n", dcm.node_count());

  // Varying workloads: some nodes loaded, some idle.
  auto drive = [&](int i, int phases) {
    apps::PhasedParams p;
    p.phases = phases;
    p.seed = static_cast<std::uint64_t>(100 + i);
    apps::PhasedWorkload w(p);
    rack[static_cast<std::size_t>(i)].node->run(w);
  };
  // Warm the rack so the DCM sees realistic demand.
  for (int i = 0; i < kNodes; ++i) drive(i, i % 3 == 0 ? 6 : 2);
  dcm.poll();
  std::printf("rack draw before budgeting: %.0f W\n",
              dcm.total_observed_power_w());

  // Facility event: the rack must fit in 1040 W (130 W/node on average).
  constexpr double kBudgetW = 1040.0;
  const auto applied = dcm.apply_group_cap(kBudgetW);
  std::printf("group budget %.0f W -> per-node caps:\n", kBudgetW);
  for (const auto& [name, cap] : applied.caps) {
    std::printf("  %-8s %.1f W\n", name.c_str(), cap);
  }
  // Ground truth: the caps the BMCs decoded off the wire must fit too.
  double enforced_w = 0.0;
  for (const Slot& s : rack) enforced_w += s.bmc->cap().value_or(0.0);
  std::printf("enforced caps: %.1f W of %.0f W budget\n", enforced_w,
              kBudgetW);
  if (!applied.complete || enforced_w > kBudgetW + 1e-6) {
    std::printf("FAIL: group budget not enforced within %.0f W\n", kBudgetW);
    return 1;
  }

  // Run the workloads under the budget; the DCM keeps monitoring.
  for (int i = 0; i < kNodes; ++i) drive(i, i % 3 == 0 ? 6 : 2);
  for (int p = 0; p < 4; ++p) dcm.poll();
  std::printf("rack draw under budget: %.0f W\n",
              dcm.total_observed_power_w());

  // Force one node into its throttling floor: a cap below what the
  // platform can reach (the paper's 120 W case).
  dcm.apply_node_cap("node-0", 118.0);
  drive(0, 6);
  for (int p = 0; p < 4; ++p) dcm.poll();

  std::printf("alerts:\n");
  for (const auto& alert : dcm.alerts()) {
    std::printf("  [poll %llu] %s: %s\n",
                static_cast<unsigned long long>(alert.poll_seq),
                alert.node.c_str(), alert.message.c_str());
  }
  if (dcm.alerts().empty()) {
    std::printf("  (none)\n");
  }

  const auto status = dcm.node("node-0")->throttle_status();
  if (status && status->capping_active) {
    std::printf(
        "node-0 throttle state: P%u, duty %u/8, L3 %u ways, L2 %u ways, "
        "ITLB %u, DRAM gated=%d\n",
        status->pstate, status->duty_eighths, status->l3_ways,
        status->l2_ways, status->itlb_entries, status->dram_gated ? 1 : 0);
  }
  return 0;
}
