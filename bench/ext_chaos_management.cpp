// Chaos experiment: the management plane under an unreliable wire. An
// 8-node group runs under a group power budget while every DCM <-> BMC link
// drops, duplicates and corrupts frames at a swept rate; we measure whether
// the group cap still converges, how long it takes, and what the retry
// machinery spends to get there. A scripted partition episode then knocks
// one node out entirely and verifies the lost -> redistribute -> recover ->
// restore cycle and its budget invariant.
//
// Mechanical checks (validate_shapes-style) gate the headline claims: at
// <= 20 % frame loss the group cap converges with no sustained over-budget,
// and the partition episode never over-commits the budget. Exit code 1 on
// any failure, so chaos regressions can gate CI.
#include <algorithm>
#include <cmath>
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
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace pcap;

constexpr int kNodes = 8;

struct Slot {
  std::unique_ptr<sim::Node> node;
  std::unique_ptr<core::Bmc> bmc;
  std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
  std::unique_ptr<ipmi::FaultyTransport> faulty;

  Slot(std::uint64_t seed, const ipmi::FaultSpec& spec) {
    node = std::make_unique<sim::Node>(sim::MachineConfig::romley(), seed);
    bmc = std::make_unique<core::Bmc>(*node);
    server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*bmc);
    node->set_control_hook(
        [b = bmc.get()](sim::PlatformControl&) { b->on_control_tick(); });
    faulty = std::make_unique<ipmi::FaultyTransport>(*server, spec, seed);
  }

  void drive(int phases, std::uint64_t workload_seed) {
    apps::PhasedParams p;
    p.phases = phases;
    p.seed = workload_seed;
    apps::PhasedWorkload w(p);
    node->run(w);
  }

  double true_draw_w() const { return bmc->power_reading().current_w; }
};

struct Rack {
  std::vector<std::unique_ptr<Slot>> slots;
  core::DataCenterManager dcm;

  Rack(double loss_rate, std::uint64_t seed, const core::DcmConfig& config)
      : dcm(config) {
    ipmi::FaultSpec spec;
    spec.drop_rate = loss_rate;
    spec.duplicate_rate = loss_rate / 2.0;
    spec.corrupt_rate = loss_rate / 2.0;
    for (int i = 0; i < kNodes; ++i) {
      slots.push_back(std::make_unique<Slot>(
          seed + static_cast<std::uint64_t>(i) * 1000 + 1, spec));
    }
  }

  /// Discovery over the lossy link: each node gets a bounded retry budget.
  bool discover() {
    for (int i = 0; i < kNodes; ++i) {
      const std::string name = "node-" + std::to_string(i);
      bool added = false;
      for (int tries = 0; tries < 25 && !added; ++tries) {
        added = dcm.add_node(name, *slots[static_cast<std::size_t>(i)].get()
                                        ->faulty);
      }
      if (!added) return false;
    }
    return true;
  }

  void drive_all(int phases) {
    for (int i = 0; i < kNodes; ++i) {
      slots[static_cast<std::size_t>(i)]->drive(
          phases, static_cast<std::uint64_t>(100 + i));
    }
  }

  double true_draw_w() const {
    double total = 0.0;
    for (const auto& s : slots) total += s->true_draw_w();
    return total;
  }

  std::uint64_t total(std::uint64_t (core::ManagedNode::*counter)() const) {
    std::uint64_t sum = 0;
    for (const auto& name : dcm.node_names()) sum += (dcm.node(name)->*counter)();
    return sum;
  }
};

struct Checker {
  util::TextTable table{{"check", "detail", "status"}};
  int failures = 0;
  int passes = 0;

  void check(const std::string& name, bool ok, const std::string& detail) {
    table.add_row({name, detail, ok ? "PASS" : "FAIL"});
    (ok ? passes : failures) += 1;
  }
};

struct CellResult {
  double loss_rate = 0.0;
  double budget_w = 0.0;
  int polls = 0;
  int converged_poll = -1;  // -1: never converged
  int violations_after_convergence = 0;
  double final_draw_w = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t stale_rejections = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed_exchanges = 0;
};

CellResult run_cell(double loss_rate, double budget_w, int polls,
                    std::uint64_t seed) {
  core::DcmConfig config;
  config.comms.backoff.max_attempts = 5;
  config.comms.seed = seed;
  Rack rack(loss_rate, seed, config);
  CellResult r;
  r.loss_rate = loss_rate;
  r.budget_w = budget_w;
  r.polls = polls;
  if (!rack.discover()) return r;  // leaves converged_poll == -1

  // Warm the rack so the DCM plans from realistic demand.
  rack.drive_all(2);
  rack.dcm.poll();

  const double tolerance_w = 0.02 * budget_w;
  bool applied = rack.dcm.apply_group_cap(budget_w).complete;
  std::vector<bool> under(static_cast<std::size_t>(polls), false);
  for (int p = 0; p < polls; ++p) {
    // A transiently-failed group apply is simply re-issued next poll.
    if (!applied) applied = rack.dcm.apply_group_cap(budget_w).complete;
    rack.drive_all(1);
    rack.dcm.poll();
    const double draw = rack.true_draw_w();
    under[static_cast<std::size_t>(p)] = draw <= budget_w + tolerance_w;
    r.final_draw_w = draw;
  }
  // Convergence: the first poll from which the ground-truth draw stays at
  // or under budget for the remainder of the run.
  for (int p = polls - 1; p >= 0 && under[static_cast<std::size_t>(p)]; --p) {
    r.converged_poll = p;
  }
  if (r.converged_poll >= 0) {
    for (int p = r.converged_poll; p < polls; ++p) {
      if (!under[static_cast<std::size_t>(p)]) ++r.violations_after_convergence;
    }
  }
  r.retries = rack.total(&core::ManagedNode::retries);
  r.stale_rejections = rack.total(&core::ManagedNode::stale_rejections);
  r.timeouts = rack.total(&core::ManagedNode::timeouts);
  r.failed_exchanges = rack.total(&core::ManagedNode::failed_exchanges);
  return r;
}

/// Scripted partition episode: converge, lose a node, verify conservative
/// redistribution, heal, verify restoration. Returns alert excerpts too.
struct EpisodeResult {
  bool converged = false;
  bool went_lost = false;
  bool invariant_held = true;  // committed caps <= budget throughout
  bool recovered = false;
  bool restored = false;
  double budget_w = 0.0;
};

EpisodeResult run_partition_episode(double loss_rate, double budget_w,
                                    std::uint64_t seed) {
  core::DcmConfig config;
  config.comms.backoff.max_attempts = 5;
  config.comms.seed = seed;
  Rack rack(loss_rate, seed, config);
  EpisodeResult r;
  r.budget_w = budget_w;
  if (!rack.discover()) return r;

  rack.drive_all(2);
  rack.dcm.poll();
  bool applied = rack.dcm.apply_group_cap(budget_w).complete;
  for (int p = 0; p < 6 && !applied; ++p) {
    applied = rack.dcm.apply_group_cap(budget_w).complete;
  }
  if (!applied) return r;
  for (int p = 0; p < 6; ++p) {
    rack.drive_all(1);
    rack.dcm.poll();
  }
  r.converged = rack.true_draw_w() <= budget_w + 0.02 * budget_w;

  // Blackhole node-0's management link (its BMC keeps enforcing the cap).
  rack.slots[0]->faulty->partition_for(1'000'000'000);
  for (int p = 0; p < 6; ++p) {
    rack.drive_all(1);
    rack.dcm.poll();
    if (rack.dcm.committed_w() > budget_w + 1e-6) r.invariant_held = false;
  }
  r.went_lost =
      rack.dcm.node_health("node-0") == core::NodeHealth::kLost;

  rack.slots[0]->faulty->heal();
  for (int p = 0; p < 3; ++p) {
    rack.drive_all(1);
    rack.dcm.poll();
    if (rack.dcm.committed_w() > budget_w + 1e-6) r.invariant_held = false;
  }
  r.recovered =
      rack.dcm.node_health("node-0") == core::NodeHealth::kHealthy ||
      rack.dcm.node_health("node-0") == core::NodeHealth::kRecovered;
  // Restoration: the healed node holds a cap again and the BMC agrees
  // (to within the 0.1 W fixed-point wire quantisation).
  const auto cap = rack.dcm.node_applied_cap("node-0");
  const auto bmc_cap = rack.slots[0]->bmc->cap();
  r.restored = cap.has_value() && bmc_cap.has_value() &&
               std::abs(*bmc_cap - *cap) < 0.06;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::CliOptions cli = harness::parse_cli(argc, argv);
  const int polls = cli.full ? 32 : 16;
  const std::vector<double> loss_rates = {0.0, 0.05, 0.10, 0.20, 0.30};
  std::vector<double> budgets = {1040.0};
  if (cli.full) budgets.push_back(1200.0);

  util::TextTable t({"loss", "budget (W)", "converged@poll", "viol. after",
                     "final draw (W)", "retries", "stale", "failed"});
  util::CsvWriter csv(cli.csv_dir + "/ext_chaos_management.csv");
  csv.row({"loss_rate", "budget_w", "polls", "converged_poll",
           "violations_after_convergence", "final_draw_w", "retries",
           "stale_rejections", "timeouts", "failed_exchanges"});

  std::vector<CellResult> cells;
  for (const double budget : budgets) {
    for (const double loss : loss_rates) {
      const CellResult r = run_cell(loss, budget, polls, cli.seed);
      cells.push_back(r);
      t.add_row({util::TextTable::num(loss * 100.0, 0) + " %",
                 util::TextTable::num(budget, 0),
                 r.converged_poll < 0 ? "never"
                                      : std::to_string(r.converged_poll),
                 std::to_string(r.violations_after_convergence),
                 util::TextTable::num(r.final_draw_w, 1),
                 std::to_string(r.retries), std::to_string(r.stale_rejections),
                 std::to_string(r.failed_exchanges)});
      csv.field(loss)
          .field(budget)
          .field(static_cast<std::int64_t>(r.polls))
          .field(static_cast<std::int64_t>(r.converged_poll))
          .field(static_cast<std::int64_t>(r.violations_after_convergence))
          .field(r.final_draw_w)
          .field(r.retries)
          .field(r.stale_rejections)
          .field(r.timeouts)
          .field(r.failed_exchanges);
      csv.end_row();
    }
  }
  csv.flush();

  std::printf(
      "Chaos experiment: 8-node group budget over a lossy IPMI network\n"
      "(frame loss as shown; duplicates and corruption each at half the "
      "loss rate)\n%s\n",
      t.str().c_str());

  const EpisodeResult ep = run_partition_episode(0.10, 1040.0, cli.seed);
  std::printf(
      "Partition episode (10 %% loss, 1040 W budget): converge=%s, "
      "lost=%s, invariant=%s, recovered=%s, restored=%s\n\n",
      ep.converged ? "yes" : "no", ep.went_lost ? "yes" : "no",
      ep.invariant_held ? "held" : "VIOLATED", ep.recovered ? "yes" : "no",
      ep.restored ? "yes" : "no");

  // --- mechanical checks ---
  Checker checker;
  std::uint64_t retries_at_zero = 0, retries_at_twenty = 0;
  for (const CellResult& r : cells) {
    char buf[128];
    if (r.loss_rate == 0.0) retries_at_zero += r.retries;
    if (r.loss_rate == 0.20) retries_at_twenty += r.retries;
    if (r.loss_rate > 0.20) continue;  // no promise beyond 20 % loss
    const std::string label = "loss " +
                              util::TextTable::num(r.loss_rate * 100.0, 0) +
                              " % @ " + util::TextTable::num(r.budget_w, 0) +
                              " W";
    std::snprintf(buf, sizeof buf, "converged at poll %d of %d",
                  r.converged_poll, r.polls);
    checker.check(label + ": cap converges",
                  r.converged_poll >= 0 && r.converged_poll <= r.polls / 2,
                  buf);
    std::snprintf(buf, sizeof buf, "%d violating polls after convergence",
                  r.violations_after_convergence);
    checker.check(label + ": no sustained over-budget",
                  r.violations_after_convergence == 0, buf);
  }
  checker.check("retries grow with loss", retries_at_twenty > retries_at_zero,
                std::to_string(retries_at_zero) + " -> " +
                    std::to_string(retries_at_twenty));
  checker.check("partition: node goes lost", ep.went_lost, "");
  checker.check("partition: budget never over-committed", ep.invariant_held,
                "");
  checker.check("partition: node recovers and share is restored",
                ep.recovered && ep.restored, "");

  std::printf("Mechanical checks of the chaos headline shapes:\n%s",
              checker.table.str().c_str());
  std::printf("%d checks passed, %d failed\n", checker.passes,
              checker.failures);
  return checker.failures == 0 ? 0 : 1;
}
