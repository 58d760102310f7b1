// Hierarchical fleet power management: a small datacenter (default 4 racks
// x 8 nodes) runs three weighted tenants through a shrinking time-of-day
// budget with a demand-response dip, while one rack's management uplink
// drops out mid-run. Every budget hop is an IPMI exchange (rack links are
// lossy by default), yet the budget-tree invariant holds at every tick:
// the sum of child budgets plus reservations never exceeds the parent's
// enforced budget, even mid-partition. The run prints the per-tenant
// fairness table (weighted deficit round-robin admission shares) and the
// conservation counters, and writes the fleet tick / tenant / telemetry
// CSVs that CI uploads as the fleet sweep artifact.
//
//   ./build/examples/fleet_datacenter                        # defaults
//   ./build/examples/fleet_datacenter --racks=8 --rack-nodes=16 --jobs=4
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet/datacenter.hpp"
#include "harness/cli.hpp"
#include "telemetry/reducer.hpp"

int main(int argc, char** argv) {
  using namespace pcap;
  const harness::CliOptions cli = harness::parse_cli(argc, argv);

  const std::size_t racks = cli.racks > 0 ? cli.racks : 4;
  const std::size_t rack_nodes = cli.rack_nodes > 0 ? cli.rack_nodes : 8;
  const std::size_t tenants = cli.tenants > 0 ? cli.tenants : 3;
  const int jobs_per_tenant = cli.arrivals > 0 ? cli.arrivals : 10;

  fleet::FleetConfig config;
  config.rack_nodes.assign(racks, rack_nodes);
  config.seed = cli.seed;
  config.jobs = cli.jobs;
  config.memo_store = cli.memo_store;
  config.memo_capacity = cli.memo_capacity;
  config.cap_grid_w = 8.0;

  // Time-of-day budget: generous overnight, shrink through the "day",
  // restore; a demand-response event dips below the shrunk phase.
  const double node_count = static_cast<double>(racks * rack_nodes);
  config.schedule = fleet::BudgetSchedule(node_count * 160.0);
  config.schedule.add_phase(3e-3, node_count * 124.0);
  config.schedule.add_phase(6e-3, node_count * 160.0);
  config.schedule.add_event(4e-3, 5e-3, node_count * 118.0);

  // Lossy management plane at both tree levels, plus a partition episode
  // that blacks out the last rack's uplink during the DR dip.
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.01;
  faults.corrupt_rate = 0.01;
  config.rack_faults = faults;
  config.node_faults = faults;
  fleet::FleetConfig::PartitionEpisode episode;
  episode.rack = racks - 1;
  episode.start_s = 4.2e-3;
  episode.transactions = 150;
  config.partitions.push_back(episode);

  // Weighted tenants: the first carries weight 2, the rest weight 1 (and a
  // lighter half-weight straggler when three or more run).
  for (std::size_t t = 0; t < tenants; ++t) {
    fleet::TenantSpec tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.weight = t == 0 ? 2.0 : (t + 1 == tenants && tenants >= 3 ? 0.5 : 1.0);
    tenant.arrivals.job_count = jobs_per_tenant;
    tenant.arrivals.mean_interarrival_s = 150e-6;
    tenant.arrivals.min_chunks = 3;
    tenant.arrivals.max_chunks = 6;
    tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
    tenant.arrivals.seed = cli.seed * 100 + t;
    config.tenants.push_back(tenant);
  }

  std::printf(
      "fleet: %zu racks x %zu nodes, %zu tenants x %d jobs, --jobs=%zu\n"
      "budget: %.0f -> %.0f W at t=3ms, DR dip %.0f W on [4,5)ms, "
      "restore at 6ms; rack %zu partitioned at 4.2ms\n\n",
      racks, rack_nodes, tenants, jobs_per_tenant, cli.jobs,
      node_count * 160.0, node_count * 124.0, node_count * 118.0,
      episode.rack);

  fleet::DatacenterManager dc(config);
  const fleet::FleetResult result = dc.run();

  std::printf("run: %zu ticks (%.2f ms simulated), makespan %.2f ms, "
              "energy %.1f J (busy %.1f + idle %.1f)\n",
              result.ticks, result.ticks * fleet::kTickS * 1e3,
              result.makespan_s * 1e3, result.total_energy_j,
              result.busy_energy_j, result.idle_energy_j);
  std::printf("chunks: %llu (%llu co-run cells), memo %llu hits / %llu "
              "misses\n",
              static_cast<unsigned long long>(result.chunks),
              static_cast<unsigned long long>(result.corun_cells),
              static_cast<unsigned long long>(result.memo_hits),
              static_cast<unsigned long long>(result.memo_misses));
  std::printf("management plane: %llu cap pushes (%llu failed), %llu "
              "retries, %llu withheld-increase rounds\n\n",
              static_cast<unsigned long long>(result.cap_pushes),
              static_cast<unsigned long long>(result.push_failures),
              static_cast<unsigned long long>(result.mgmt_retries),
              static_cast<unsigned long long>(result.withheld_rounds));

  std::printf("budget-tree invariant (violation ticks, must all be 0):\n");
  std::printf("  dc committed > enforced:      %llu\n",
              static_cast<unsigned long long>(result.dc_over_enforced_ticks));
  std::printf("  rack committed > enforced:    %llu\n",
              static_cast<unsigned long long>(result.rack_over_enforced_ticks));
  std::printf("  node caps > rack enforced:    %llu\n",
              static_cast<unsigned long long>(
                  result.actual_over_enforced_ticks));
  std::printf("  (transient committed > target: %llu ticks while decreases "
              "converge / mid-partition)\n\n",
              static_cast<unsigned long long>(result.dc_over_target_ticks));

  std::printf("%-9s %7s %5s %9s %10s %8s %11s %10s\n", "tenant", "weight",
              "jobs", "completed", "wait_us", "turn_us", "share", "energy_j");
  for (const fleet::TenantStats& t : result.tenants) {
    std::printf("%-9s %7.1f %5d %9d %10.1f %8.1f %10.1f%% %10.2f\n",
                t.name.c_str(), t.weight, t.jobs, t.completed,
                t.mean_wait_s * 1e6, t.mean_turnaround_s * 1e6,
                100.0 * t.admitted_share, t.energy_j);
  }
  std::printf("(admission deferrals: %llu tick-jobs held back while the "
              "budget could not keep busy nodes above %.0f W)\n",
              static_cast<unsigned long long>(result.admission_deferrals),
              fleet::kAdmissionMinNodeW);

  const std::string ticks_csv = cli.csv_dir + "/fleet_ticks.csv";
  const std::string tenants_csv = cli.csv_dir + "/fleet_tenants.csv";
  const std::string series_csv = cli.csv_dir + "/fleet_power_series.csv";
  fleet::write_fleet_ticks_csv(result, ticks_csv);
  fleet::write_tenant_stats_csv(result, tenants_csv);
  telemetry::Reducer::write_csv_file(result.fleet_series, series_csv);
  std::printf("\nCSV artifacts: %s, %s, %s\n", ticks_csv.c_str(),
              tenants_csv.c_str(), series_csv.c_str());
  std::printf("schedule digest: %016llx (bit-identical for any --jobs)\n",
              static_cast<unsigned long long>(result.schedule_digest()));

  const bool conserved = result.dc_over_enforced_ticks == 0 &&
                         result.rack_over_enforced_ticks == 0 &&
                         result.actual_over_enforced_ticks == 0;
  const bool all_done = std::all_of(
      result.jobs.begin(), result.jobs.end(),
      [](const sched::JobRecord& r) { return r.done(); });
  if (!conserved || !all_done) {
    std::printf("FAIL: %s\n", conserved ? "jobs left unfinished"
                                        : "budget conservation violated");
    return 1;
  }
  std::printf("PASS: budget conserved at every level every tick; "
              "all %zu jobs completed\n", result.jobs.size());
  return 0;
}
