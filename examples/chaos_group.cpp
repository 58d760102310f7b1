// Fault-tolerant management scenario: the datacenter_group rack, but over a
// lossy management network, with one node dropping off entirely mid-run. An
// 8-node group runs under a 1040 W budget while every DCM <-> BMC link drops
// 10 % of frames (plus duplicates and corruption). The DCM's retry/backoff
// machinery keeps telemetry flowing; when node-3's link partitions, the
// health state machine walks it degraded -> lost, its budget share is
// conservatively redistributed to the survivors, and when the link heals
// the node is recovered and its share restored — all without ever
// over-committing the group budget.
#include <cstdio>
#include <memory>
#include <string>
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
  constexpr double kBudgetW = 1040.0;

  // Each rack slot: node + BMC + IPMI endpoint, wrapped in a lossy link.
  struct Slot {
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<core::Bmc> bmc;
    std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
    std::unique_ptr<ipmi::FaultyTransport> faulty;
  };
  ipmi::FaultSpec spec;
  spec.drop_rate = 0.10;
  spec.duplicate_rate = 0.05;
  spec.corrupt_rate = 0.05;
  std::vector<Slot> rack(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    Slot& s = rack[static_cast<std::size_t>(i)];
    s.node = std::make_unique<sim::Node>(sim::MachineConfig::romley(),
                                         static_cast<std::uint64_t>(i + 1));
    s.bmc = std::make_unique<core::Bmc>(*s.node);
    s.server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*s.bmc);
    s.node->set_control_hook(
        [bmc = s.bmc.get()](sim::PlatformControl&) { bmc->on_control_tick(); });
    s.faulty = std::make_unique<ipmi::FaultyTransport>(
        *s.server, spec, static_cast<std::uint64_t>(i) * 31 + 5);
  }

  // Discovery over the lossy link: add_node itself may need a retry or two
  // (each attempt is already retried internally with backoff).
  core::DataCenterManager dcm;
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = "node-" + std::to_string(i);
    bool added = false;
    for (int tries = 0; tries < 10 && !added; ++tries) {
      added = dcm.add_node(name, *rack[static_cast<std::size_t>(i)].faulty);
    }
    if (!added) {
      std::printf("failed to discover %s\n", name.c_str());
      return 1;
    }
  }
  std::printf("DCM manages %zu nodes over a 10 %%-loss network\n",
              dcm.node_count());

  auto drive = [&](int i, int phases) {
    apps::PhasedParams p;
    p.phases = phases;
    p.seed = static_cast<std::uint64_t>(100 + i);
    apps::PhasedWorkload w(p);
    rack[static_cast<std::size_t>(i)].node->run(w);
  };
  auto drive_all = [&](int phases) {
    for (int i = 0; i < kNodes; ++i) drive(i, phases);
  };
  auto print_health = [&](const char* when) {
    std::printf("health (%s):", when);
    for (const auto& name : dcm.node_names()) {
      std::printf(" %s=%s", name.c_str(),
                  core::node_health_name(*dcm.node_health(name)).c_str());
    }
    std::printf("\n");
  };

  // Warm the rack, then impose the group budget.
  drive_all(2);
  dcm.poll();
  std::printf("rack draw before budgeting: %.0f W\n",
              dcm.total_observed_power_w());
  auto applied = dcm.apply_group_cap(kBudgetW);
  for (int tries = 0; tries < 5 && !applied.complete; ++tries) {
    applied = dcm.apply_group_cap(kBudgetW);  // lossy link: just re-issue
  }
  std::printf("group budget %.0f W -> per-node caps:\n", kBudgetW);
  for (const auto& [name, cap] : applied.caps) {
    std::printf("  %-8s %.1f W\n", name.c_str(), cap);
  }
  for (int p = 0; p < 5; ++p) {
    drive_all(1);
    dcm.poll();
  }
  print_health("steady state");
  std::printf("committed caps: %.1f W of %.0f W budget\n\n",
              dcm.committed_w(), kBudgetW);

  // Node-3's management link partitions outright. Its BMC keeps enforcing
  // the last cap autonomously; the DCM walks it degraded -> lost and
  // conservatively hands its share to the survivors.
  std::printf("--- node-3 management link partitions ---\n");
  rack[3].faulty->partition_for(1'000'000'000);
  for (int p = 0; p < 6; ++p) {
    drive_all(1);
    dcm.poll();
  }
  print_health("partitioned");
  std::printf("node-3 reserved cap: %.1f W (BMC still enforces %.1f W)\n",
              dcm.node_applied_cap("node-3").value_or(0.0),
              rack[3].bmc->cap().value_or(0.0));
  std::printf("committed caps + reservation: %.1f W (<= budget)\n\n",
              dcm.committed_w());

  // The link heals: first successful poll marks the node recovered, and the
  // group budget is re-planned to give it a share again.
  std::printf("--- node-3 link heals ---\n");
  rack[3].faulty->heal();
  for (int p = 0; p < 3; ++p) {
    drive_all(1);
    dcm.poll();
  }
  print_health("healed");
  std::printf("node-3 cap restored: %.1f W; committed %.1f W of %.0f W\n\n",
              dcm.node_applied_cap("node-3").value_or(0.0),
              dcm.committed_w(), kBudgetW);

  std::printf("health alerts:\n");
  for (const auto& alert : dcm.alerts()) {
    if (alert.message.rfind("degraded", 0) == 0 ||
        alert.message.rfind("lost", 0) == 0 ||
        alert.message.rfind("recovered", 0) == 0 ||
        alert.message.rfind("budget", 0) == 0) {
      std::printf("  [poll %llu] %s: %s\n",
                  static_cast<unsigned long long>(alert.poll_seq),
                  alert.node.c_str(), alert.message.c_str());
    }
  }

  // What fault tolerance cost: per-node communication accounting.
  std::printf("\ncommunication accounting:\n");
  std::printf("  %-8s %8s %8s %6s %6s %12s\n", "node", "errors", "retries",
              "stale", "fails", "backoff (ms)");
  for (const auto& name : dcm.node_names()) {
    const core::ManagedNode* n = dcm.node(name);
    std::printf("  %-8s %8llu %8llu %6llu %6llu %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(n->transport_errors()),
                static_cast<unsigned long long>(n->retries()),
                static_cast<unsigned long long>(n->stale_rejections()),
                static_cast<unsigned long long>(n->failed_exchanges()),
                n->backoff_ms_total());
  }
  return 0;
}
