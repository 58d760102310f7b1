// Extended-tier fleet sweeps (ctest -L extended): a 10k-node smoke run of
// the budget tree and a fault-rate chaos sweep. Heavier than the tier-1
// suite by design — CI runs them in the dedicated extended step, not in
// the fast loop or the sanitizer matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "fleet/budget.hpp"
#include "fleet/datacenter.hpp"
#include "fleet/tenant.hpp"
#include "ipmi/transport.hpp"

namespace fleet = pcap::fleet;
namespace ipmi = pcap::ipmi;

namespace {

TEST(FleetExtended, TenThousandNodeSmoke) {
  // 100 racks x 100 nodes, budget control plane only (no tenants): a few
  // ticks must hold the conservation invariant and stay responsive.
  fleet::FleetConfig config;
  config.rack_nodes.assign(100, 100);
  config.seed = 11;
  config.cap_grid_w = 16.0;
  config.schedule = fleet::BudgetSchedule(10000 * 150.0);
  config.schedule.add_phase(3 * fleet::kTickS, 10000 * 120.0);

  fleet::DatacenterManager dc(config);
  ASSERT_EQ(dc.node_count(), 10000u);
  for (int tick = 0; tick < 8; ++tick) dc.step();
  const fleet::FleetResult result = dc.finish();
  EXPECT_EQ(result.dc_over_enforced_ticks, 0u);
  EXPECT_EQ(result.rack_over_enforced_ticks, 0u);
  EXPECT_EQ(result.actual_over_enforced_ticks, 0u);
  ASSERT_EQ(result.dc_ticks.size(), 8u);
  // The shrink landed: committed follows the schedule down.
  EXPECT_LE(result.dc_ticks.back().committed_w,
            result.dc_ticks.back().target_w + 1e-3);
}

TEST(FleetExtended, ChaosSweepHoldsInvariant) {
  // Sweep fault severity on both hops; the conservation counters must be
  // zero at every point, and every job must still finish.
  for (const double drop : {0.0, 0.05, 0.15}) {
    fleet::FleetConfig config;
    config.rack_nodes = {4, 3, 5};
    config.seed = 23 + static_cast<std::uint64_t>(drop * 100);
    config.schedule = fleet::BudgetSchedule(12 * 160.0);
    config.schedule.add_phase(2e-3, 12 * 124.0);
    config.schedule.add_phase(5e-3, 12 * 160.0);
    if (drop > 0.0) {
      ipmi::FaultSpec faults;
      faults.drop_rate = drop;
      faults.duplicate_rate = drop / 2;
      faults.corrupt_rate = drop / 2;
      config.node_faults = faults;
      config.rack_faults = faults;
    }
    fleet::TenantSpec tenant;
    tenant.name = "sweep";
    tenant.arrivals.job_count = 12;
    tenant.arrivals.min_chunks = 3;
    tenant.arrivals.max_chunks = 6;
    tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
    tenant.arrivals.seed = 5;
    config.tenants.push_back(tenant);

    fleet::DatacenterManager dc(config);
    const fleet::FleetResult result = dc.run();
    EXPECT_EQ(result.dc_over_enforced_ticks, 0u) << "drop " << drop;
    EXPECT_EQ(result.rack_over_enforced_ticks, 0u) << "drop " << drop;
    EXPECT_EQ(result.actual_over_enforced_ticks, 0u) << "drop " << drop;
    for (const auto& record : result.jobs) {
      EXPECT_TRUE(record.done()) << "drop " << drop;
    }
    if (drop > 0.0) {
      EXPECT_GT(result.mgmt_retries, 0u) << "drop " << drop;
    }
  }
}

}  // namespace
