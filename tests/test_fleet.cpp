// Budget-tree invariant layer for the fleet (DESIGN.md §14).
//
// The load-bearing property, asserted at every level at every tick, clean
// or faulted: the budget a parent has committed to its children (grants
// plus reservations for unreachable children) never exceeds the budget the
// parent itself enforces, and once a level converges its committed power
// is within its target. The headline test runs a seeded 3-level,
// 1000-node fleet under FaultyTransport loss plus a scripted partition
// episode and checks the conservation counters stayed at zero; the
// randomized-topology test re-checks the same discipline on arbitrary
// 2–4-level trees built from the same endpoint pieces. Bit-identity of
// whole fleet schedules across --jobs values and memo on/off rides on the
// schedule digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fleet/budget.hpp"
#include "fleet/coupler.hpp"
#include "fleet/datacenter.hpp"
#include "fleet/endpoint.hpp"
#include "fleet/rack.hpp"
#include "fleet/tenant.hpp"
#include "ipmi/transport.hpp"
#include "telemetry/reducer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace core = pcap::core;
namespace fleet = pcap::fleet;
namespace ipmi = pcap::ipmi;
namespace sched = pcap::sched;
using pcap::util::Rng;

namespace {

constexpr double kTol = 1e-3;

// ---------------------------------------------------------------------------
// Budget schedule (the division itself is tested in test_core_budget.cpp)
// ---------------------------------------------------------------------------

TEST(FleetBudget, ScheduleStepsPeriodAndEvents) {
  fleet::BudgetSchedule schedule(1000.0);
  schedule.add_phase(10.0, 800.0);
  schedule.add_phase(20.0, 1200.0);
  schedule.set_period(30.0);  // time-of-day wrap
  schedule.add_event(35.0, 40.0, 500.0);  // demand-response override

  EXPECT_DOUBLE_EQ(schedule.at(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(schedule.at(15.0), 800.0);
  EXPECT_DOUBLE_EQ(schedule.at(25.0), 1200.0);
  EXPECT_DOUBLE_EQ(schedule.at(31.0), 1000.0);   // wrapped
  EXPECT_DOUBLE_EQ(schedule.at(44.0), 800.0);    // wrapped phase 1
  EXPECT_DOUBLE_EQ(schedule.at(37.0), 500.0);    // DR event trumps schedule
  EXPECT_DOUBLE_EQ(schedule.at(40.0), 800.0);    // event end is exclusive
}

// ---------------------------------------------------------------------------
// BudgetCoupler discipline (scripted links)
// ---------------------------------------------------------------------------

class ScriptedLink : public fleet::ChildLink {
 public:
  ScriptedLink(int id, std::vector<std::pair<int, double>>* log)
      : id_(id), log_(log) {}

  std::optional<double> push_budget(double watts) override {
    if (fail_pushes) return std::nullopt;
    log_->emplace_back(id_, watts);
    // A child still converging grants max(target, its commitments).
    actual_w = std::max(watts, sticky_floor_w);
    return actual_w;
  }
  std::optional<double> poll_demand() override {
    if (fail_polls) return std::nullopt;
    return actual_w;
  }
  double floor_w() const override { return 100.0; }
  double ceiling_w() const override { return 400.0; }

  double actual_w = 0.0;
  double sticky_floor_w = 0.0;  // >0: decreases stall at this level
  bool fail_pushes = false;
  bool fail_polls = false;

 private:
  int id_;
  std::vector<std::pair<int, double>>* log_;
};

TEST(FleetCoupler, DecreasesFirstAndIncreasesWithheld) {
  std::vector<std::pair<int, double>> log;
  ScriptedLink a(0, &log), b(1, &log);
  a.actual_w = 200.0;
  b.actual_w = 200.0;
  fleet::BudgetCoupler coupler;
  coupler.add_child(&a, 200.0);
  coupler.add_child(&b, 200.0);

  // Weights {0,1}: A must decrease to its floor, B may rise to 300.
  const std::vector<double> weights{0.0, 1.0};

  // Round 1: A's link is down — the decrease fails, so B's increase must
  // be withheld and its grant unchanged.
  a.fail_pushes = true;
  fleet::CouplerRound round = coupler.run_round(400.0, &weights);
  EXPECT_TRUE(round.increases_withheld);
  EXPECT_DOUBLE_EQ(coupler.granted_w(1), 200.0);
  EXPECT_NEAR(round.committed_w, 400.0, kTol);
  EXPECT_LE(round.committed_w, round.enforced_w + kTol);
  EXPECT_TRUE(log.empty());  // nothing actually landed

  // Round 2: A answers but converges only to 150 — a partial decrease
  // still defers the increase.
  a.fail_pushes = false;
  a.sticky_floor_w = 150.0;
  round = coupler.run_round(400.0, &weights);
  EXPECT_TRUE(round.increases_withheld);
  EXPECT_NEAR(coupler.granted_w(0), 150.0, kTol);
  EXPECT_DOUBLE_EQ(coupler.granted_w(1), 200.0);
  EXPECT_LE(round.committed_w, round.enforced_w + kTol);

  // Round 3: A finishes converging; the decrease lands before the
  // increase, and the level converges at the target.
  a.sticky_floor_w = 0.0;
  log.clear();
  round = coupler.run_round(400.0, &weights);
  EXPECT_FALSE(round.increases_withheld);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 0);  // decrease pushed first
  EXPECT_EQ(log[1].first, 1);
  EXPECT_NEAR(coupler.granted_w(0), 100.0, kTol);
  EXPECT_NEAR(coupler.granted_w(1), 300.0, kTol);
  EXPECT_TRUE(round.converged);
  EXPECT_NEAR(round.committed_w, round.target_w, kTol);
}

TEST(FleetCoupler, LostChildHoldsReservation) {
  std::vector<std::pair<int, double>> log;
  ScriptedLink a(0, &log), c(1, &log);
  a.actual_w = 150.0;
  c.actual_w = 200.0;
  fleet::BudgetCoupler coupler;  // a child is lost after 4 failures
  coupler.add_child(&a, 150.0);
  coupler.add_child(&c, 200.0);

  c.fail_pushes = true;
  c.fail_polls = true;
  fleet::CouplerRound round;
  for (int i = 0; i < 5; ++i) round = coupler.run_round(400.0);
  EXPECT_EQ(coupler.health(1), core::NodeHealth::kLost);
  EXPECT_EQ(round.lost_children, 1u);
  // The lost child's last grant is reserved, and the reachable child's
  // share comes out of what is left.
  EXPECT_NEAR(round.reserved_w, 200.0, kTol);
  EXPECT_NEAR(coupler.granted_w(0), 200.0, kTol);  // 400 - 200 reserved
  EXPECT_NEAR(round.committed_w, 400.0, kTol);
  EXPECT_LE(round.committed_w, round.enforced_w + kTol);

  // Heal: the child recovers and the level reconverges with everyone.
  c.fail_pushes = false;
  c.fail_polls = false;
  for (int i = 0; i < 3; ++i) round = coupler.run_round(400.0);
  EXPECT_EQ(coupler.health(1), core::NodeHealth::kHealthy);
  EXPECT_EQ(round.lost_children, 0u);
  EXPECT_TRUE(round.converged);
}

// ---------------------------------------------------------------------------
// Randomized 2–4-level budget trees over real IPMI hops
// ---------------------------------------------------------------------------

// A leaf that adopts any in-range budget immediately (a node whose BMC
// acks synchronously); its enforced budget is the tree's ground truth.
class LeafHolder : public fleet::BudgetHolder {
 public:
  LeafHolder() : budget_w_(110.0) {}

  double set_budget_target(double watts) override {
    budget_w_ = watts;
    return budget_w_;
  }
  ipmi::RackStatus status() override {
    ipmi::RackStatus s;
    s.enforced_w = budget_w_;
    s.committed_w = budget_w_;
    s.demand_w = budget_w_;
    s.floor_w = 110.0;
    s.ceiling_w = 400.0;
    s.nodes = 1;
    return s;
  }
  double budget_w() const { return budget_w_; }

 private:
  double budget_w_;
};

TEST(FleetTree, EndpointRejectsRetiredRackTelemetryCommand) {
  // 0xD2 is the retired GetRackTelemetry number: a stale parent may send
  // it, and the endpoint refuses it, over the wire too, without acting.
  LeafHolder holder;
  fleet::BudgetEndpointServer server(holder);
  ipmi::Request request;
  request.command = 0xD2;
  ipmi::Response reply;
  ASSERT_TRUE(ipmi::decode_response(
      server.transact(ipmi::encode_request(request)), reply));
  EXPECT_EQ(reply.code, ipmi::CompletionCode::kInvalidCommand);
  EXPECT_EQ(holder.budget_w(), 110.0);
}

struct Tree {
  // groups[0] is the root; parents precede their subtrees (pre-order), so
  // iterating in order runs the control rounds top-down.
  std::vector<std::unique_ptr<fleet::BudgetGroup>> groups;
  std::vector<std::unique_ptr<LeafHolder>> leaves;
  std::vector<std::unique_ptr<fleet::BudgetEndpointServer>> servers;
  std::vector<std::unique_ptr<ipmi::FaultyTransport>> faulty;
  std::vector<std::unique_ptr<fleet::BudgetClient>> clients;

  double leaf_actual_sum() const {
    double sum = 0.0;
    for (const auto& leaf : leaves) sum += leaf->budget_w();
    return sum;
  }
};

fleet::BudgetHolder* build_tree(Tree& tree, Rng& rng, int levels) {
  if (levels == 0) {
    tree.leaves.push_back(std::make_unique<LeafHolder>());
    return tree.leaves.back().get();
  }
  tree.groups.push_back(std::make_unique<fleet::BudgetGroup>());
  fleet::BudgetGroup* group = tree.groups.back().get();
  const std::size_t fanout = 2 + rng.below(3);  // uneven 2..4
  for (std::size_t i = 0; i < fanout; ++i) {
    fleet::BudgetHolder* child = build_tree(tree, rng, levels - 1);
    tree.servers.push_back(std::make_unique<fleet::BudgetEndpointServer>(*child));
    ipmi::Transport* link = tree.servers.back().get();
    if (rng.uniform() < 0.5) {  // half the hops are lossy
      ipmi::FaultSpec spec;
      spec.drop_rate = 0.05;
      spec.duplicate_rate = 0.02;
      spec.corrupt_rate = 0.02;
      tree.faulty.push_back(std::make_unique<ipmi::FaultyTransport>(
          *tree.servers.back(), spec, rng()));
      link = tree.faulty.back().get();
    }
    tree.clients.push_back(std::make_unique<fleet::BudgetClient>(*link));
    while (!tree.clients.back()->attach()) {
    }
    group->add_child(tree.clients.back().get());
  }
  return group;
}

TEST(FleetTree, RandomizedTopologyBudgetConservation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x9E3779B9u + 7);
    const int levels = 2 + static_cast<int>(rng.below(3));  // 2..4
    Tree tree;
    build_tree(tree, rng, levels);
    fleet::BudgetGroup& root = *tree.groups[0];
    const std::size_t leaf_count = tree.leaves.size();
    const double floor_sum = 110.0 * static_cast<double>(leaf_count);
    const double high = floor_sum + 150.0 * static_cast<double>(leaf_count);
    const double low = floor_sum + 30.0 * static_cast<double>(leaf_count);

    // One scripted partition on a random faulty hop, opened inside the
    // flat low-budget window.
    ipmi::FaultyTransport* cut =
        tree.faulty.empty()
            ? nullptr
            : tree.faulty[rng.below(tree.faulty.size())].get();

    bool saw_lost = false;
    for (int tick = 0; tick < 300; ++tick) {
      const double target = (tick >= 100 && tick < 200) ? low : high;
      if (tick == 120 && cut != nullptr) cut->partition_for(400);
      root.set_target(target);
      for (auto& group : tree.groups) {
        const fleet::CouplerRound round = group->run_round();
        // Conservation at this level, this tick, regardless of faults.
        EXPECT_LE(round.committed_w, round.enforced_w + kTol)
            << "seed " << seed << " tick " << tick;
        saw_lost = saw_lost || round.lost_children > 0;
      }
      // Ground truth: what the leaves actually enforce never exceeds the
      // budget the root guarantees.
      EXPECT_LE(tree.leaf_actual_sum(), root.enforced_w() + kTol)
          << "seed " << seed << " tick " << tick;
      // The partition opened during a flat window: committed stays within
      // the (unchanged) target throughout the episode.
      if (tick >= 130 && tick < 195) {
        EXPECT_LE(root.coupler().committed_w(), target + kTol)
            << "seed " << seed << " tick " << tick;
      }
    }
    if (cut != nullptr) {
      EXPECT_TRUE(saw_lost) << "seed " << seed;
    }

    // Fully healed and re-raised: every level reconverges at its target.
    for (auto& group : tree.groups) {
      const fleet::CouplerRound round = group->run_round();
      EXPECT_TRUE(round.converged) << "seed " << seed;
      EXPECT_NEAR(round.enforced_w, round.target_w, kTol) << "seed " << seed;
    }
    EXPECT_LE(tree.leaf_actual_sum(), root.enforced_w() + kTol);
  }
}

// ---------------------------------------------------------------------------
// Whole-fleet runs
// ---------------------------------------------------------------------------

fleet::FleetConfig small_fleet_config() {
  fleet::FleetConfig config;
  config.rack_nodes = {3, 2};
  config.seed = 42;
  config.cap_grid_w = 8.0;
  config.schedule = fleet::BudgetSchedule(5 * 160.0);
  config.schedule.add_phase(3e-3, 5 * 124.0);   // shrink
  config.schedule.add_phase(6e-3, 5 * 160.0);   // restore
  config.schedule.add_event(4e-3, 5e-3, 5 * 120.0);  // DR dip
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.01;
  faults.corrupt_rate = 0.01;
  config.node_faults = faults;
  config.rack_faults = faults;
  fleet::FleetConfig::PartitionEpisode episode;
  episode.rack = 1;
  episode.start_s = 4.5e-3;
  episode.transactions = 120;
  config.partitions.push_back(episode);
  for (int t = 0; t < 2; ++t) {
    fleet::TenantSpec tenant;
    tenant.name = "t" + std::to_string(t);
    tenant.weight = t == 0 ? 2.0 : 1.0;
    tenant.arrivals.job_count = 8;
    tenant.arrivals.mean_interarrival_s = 200e-6;
    tenant.arrivals.min_chunks = 3;
    tenant.arrivals.max_chunks = 6;
    tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
    tenant.arrivals.seed = 100 + static_cast<std::uint64_t>(t);
    config.tenants.push_back(tenant);
  }
  return config;
}

// RackManager keeps its occupancy (busy nodes, free lanes, lanes in
// flight or awaiting a chunk, the division weights, the earliest chunk
// end) as counters updated on every lane change. Drive one rack through
// random enqueue/place/begin_chunk/begin_tick steps and compare every
// query, after every step, with a recount over the lanes.
TEST(FleetRack, OccupancyCountersMatchLaneRecount) {
  fleet::RackConfig config;
  config.node_count = 4;
  config.lanes_per_node = 2;
  fleet::RackManager rack(config);
  // Above the floor sum, so busy nodes (division weight 1) are granted
  // more than the floor and idle ones (weight 0) exactly the floor.
  rack.set_budget_target(rack.floor_w() + 160.0);

  struct Recount {
    std::size_t busy_nodes = 0;
    std::size_t free_lanes = 0;
    std::size_t pending = 0;
    bool in_flight = false;
    std::vector<bool> node_busy;
  };
  const auto recount = [&] {
    Recount r;
    for (std::size_t n = 0; n < rack.node_count(); ++n) {
      bool busy = false;
      for (std::size_t l = 0; l < rack.lanes_per_node(); ++l) {
        const fleet::RackManager::Lane& lane = rack.lane(n, l);
        busy = busy || lane.busy();
        if (!lane.busy()) ++r.free_lanes;
        if (lane.busy() && !lane.in_flight) ++r.pending;
        r.in_flight = r.in_flight || lane.in_flight;
      }
      r.node_busy.push_back(busy);
      if (busy) ++r.busy_nodes;
    }
    return r;
  };
  std::vector<fleet::RackManager::StartRef> refs;
  const auto check = [&](const char* step, int tick) {
    const Recount r = recount();
    EXPECT_EQ(rack.busy_nodes(), r.busy_nodes) << step << " @ " << tick;
    EXPECT_EQ(rack.free_lanes(), r.free_lanes) << step << " @ " << tick;
    EXPECT_EQ(rack.anything_in_flight(), r.in_flight) << step << " @ " << tick;
    refs.clear();
    rack.pending_starts(refs);
    EXPECT_EQ(refs.size(), r.pending) << step << " @ " << tick;
    const ipmi::RackStatus status = rack.status();
    EXPECT_EQ(status.busy_nodes, r.busy_nodes) << step << " @ " << tick;
    EXPECT_EQ(status.free_lanes, r.free_lanes) << step << " @ " << tick;
  };

  Rng rng(42);
  int next_job = 0;
  bool split_finish = false;  // one lane of a node done, the other running
  std::size_t completed = 0;
  std::vector<fleet::ChunkEvent> completions;
  for (int tick = 0; tick < 300; ++tick) {
    const double t = tick * 1e-3;
    std::vector<std::pair<std::size_t, std::size_t>> due;
    for (std::size_t n = 0; n < rack.node_count(); ++n) {
      for (std::size_t l = 0; l < rack.lanes_per_node(); ++l) {
        const fleet::RackManager::Lane& lane = rack.lane(n, l);
        if (lane.in_flight && lane.chunk_end_s <= t + 1e-12) {
          due.emplace_back(n, l);
        } else if (lane.in_flight) {
          const fleet::RackManager::Lane& other = rack.lane(n, 1 - l);
          split_finish = split_finish ||
                         (other.in_flight && other.chunk_end_s <= t + 1e-12);
        }
      }
    }
    completions.clear();
    rack.begin_tick(t, completions);
    ASSERT_EQ(completions.size(), due.size()) << "tick " << tick;
    for (std::size_t k = 0; k < due.size(); ++k) {
      EXPECT_EQ(completions[k].node, due[k].first) << "tick " << tick;
      EXPECT_EQ(completions[k].lane, due[k].second) << "tick " << tick;
    }
    completed += completions.size();
    check("begin_tick", tick);

    for (std::uint64_t a = rng.below(3); a > 0; --a) {
      fleet::LaneJob job;
      job.job_id = next_job++;
      job.seed = rng.below(1000);
      job.chunks = 1 + static_cast<int>(rng.below(3));
      rack.enqueue(job);
    }
    rack.place(t);
    check("place", tick);

    refs.clear();
    rack.pending_starts(refs);
    const std::vector<fleet::RackManager::StartRef> starts = refs;
    for (const fleet::RackManager::StartRef& ref : starts) {
      sched::ChunkResult result;
      result.elapsed =
          pcap::util::milliseconds(1.0 + static_cast<double>(rng.below(4)));
      result.avg_power_w = 150.0;
      rack.begin_chunk(ref.node, ref.lane, result, t);
      check("begin_chunk", tick);
    }

    // The division weights, seen through a clean-link rebalance.
    rack.rebalance();
    const Recount r = recount();
    for (std::size_t n = 0; n < rack.node_count(); ++n) {
      EXPECT_EQ(rack.node_granted_w(n) > config.bmc.min_cap_w, r.node_busy[n])
          << "node " << n << " @ " << tick;
    }
  }
  EXPECT_TRUE(split_finish);
  EXPECT_GT(completed, 100u);
}

TEST(Fleet, SmallRunCompletesAndConserves) {
  fleet::DatacenterManager dc(small_fleet_config());
  const fleet::FleetResult result = dc.run();

  EXPECT_EQ(result.dc_over_enforced_ticks, 0u);
  EXPECT_EQ(result.rack_over_enforced_ticks, 0u);
  EXPECT_EQ(result.actual_over_enforced_ticks, 0u);
  ASSERT_EQ(result.jobs.size(), 16u);
  for (const sched::JobRecord& record : result.jobs) {
    EXPECT_TRUE(record.done()) << "job " << record.spec.id;
    EXPECT_GE(record.finish_s, 0.0);
    EXPECT_GT(record.energy_j, 0.0);
  }
  EXPECT_EQ(result.admitted, 16u);
  EXPECT_GT(result.chunks, 0u);
  EXPECT_GT(result.ticks, 0u);
  // The shrink phase throttles admission for a while.
  EXPECT_GT(result.admission_deferrals, 0u);
  // Telemetry fan-in saw both racks.
  ASSERT_FALSE(result.fleet_series.bins.empty());
  std::size_t max_nodes = 0;
  for (const auto& bin : result.fleet_series.bins) {
    max_nodes = std::max(max_nodes, bin.nodes);
  }
  EXPECT_EQ(max_nodes, 5u);
  EXPECT_NE(result.schedule_digest(), 0u);
}

TEST(Fleet, FinishIsSingleShot) {
  // finish() moves the result out; a second call would count every job's
  // energy again, so it throws instead.
  fleet::DatacenterManager dc(small_fleet_config());
  const fleet::FleetResult result = dc.run();
  EXPECT_GT(result.busy_energy_j, 0.0);
  EXPECT_THROW(dc.finish(), std::logic_error);
  EXPECT_THROW(dc.run(), std::logic_error);
}

TEST(Fleet, ScheduleBitIdenticalAcrossJobsAndMemo) {
  // Two lanes per node exercise the co-run cells next to the solo path.
  for (const std::size_t lanes : {1u, 2u}) {
    std::optional<std::uint64_t> want;
    for (const std::size_t jobs : {1u, 3u, 7u}) {
      for (const bool memo : {true, false}) {
        if (!memo && jobs == 3) continue;  // redundant cell
        fleet::FleetConfig config = small_fleet_config();
        config.lanes_per_node = lanes;
        config.jobs = jobs;
        config.memo = memo;
        fleet::DatacenterManager dc(config);
        const fleet::FleetResult result = dc.run();
        if (lanes > 1) {
          EXPECT_GT(result.corun_cells, 0u) << "jobs=" << jobs;
        }
        const std::uint64_t digest = result.schedule_digest();
        if (!want.has_value()) {
          want = digest;
        } else {
          EXPECT_EQ(digest, *want)
              << "lanes=" << lanes << " jobs=" << jobs << " memo=" << memo;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet telemetry output
// ---------------------------------------------------------------------------

/// Order-sensitive FNV-1a digest over every bin of every rack series and
/// of the fleet series: equal digests mean bit-identical telemetry.
/// schedule_digest() does not cover these.
std::uint64_t telemetry_digest(const fleet::FleetResult& result) {
  using pcap::util::fnv_mix;
  std::uint64_t h = pcap::util::kFnvOffset;
  const auto mix = [&h](const pcap::telemetry::GroupSeries& series) {
    h = fnv_mix(h, static_cast<std::uint64_t>(series.bins.size()));
    for (const pcap::telemetry::GroupSample& bin : series.bins) {
      h = fnv_mix(h, bin.time);
      h = fnv_mix(h, static_cast<std::uint64_t>(bin.nodes));
      h = fnv_mix(h, bin.min_w);
      h = fnv_mix(h, bin.mean_w);
      h = fnv_mix(h, bin.max_w);
      h = fnv_mix(h, bin.sum_w);
    }
  };
  for (const auto& series : result.rack_series) mix(series);
  mix(result.fleet_series);
  return h;
}

/// A seeded faulty fleet whose telemetry also exercises held bins (a
/// sampling period that is not a multiple of the tick, so some samples
/// fall between grid edges).
fleet::FleetConfig faulty_telemetry_fleet_config() {
  fleet::FleetConfig config;
  config.rack_nodes = {4, 5, 3};
  config.lanes_per_node = 2;
  config.seed = 9;
  config.schedule = fleet::BudgetSchedule(12 * 150.0);
  config.schedule.add_phase(2e-3, 12 * 122.0);
  config.schedule.add_phase(4e-3, 12 * 150.0);
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.05;
  faults.duplicate_rate = 0.02;
  faults.corrupt_rate = 0.02;
  config.node_faults = faults;
  config.rack_faults = faults;
  config.sampler.period = pcap::util::microseconds(250);
  fleet::TenantSpec tenant;
  tenant.name = "t";
  tenant.arrivals.job_count = 10;
  tenant.arrivals.mean_interarrival_s = 150e-6;
  tenant.arrivals.min_chunks = 2;
  tenant.arrivals.max_chunks = 5;
  tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
  tenant.arrivals.seed = 77;
  config.tenants.push_back(tenant);
  return config;
}

TEST(Fleet, TelemetrySeriesPinned) {
  // Recorded when every node kept its own sample ring and finish()
  // reduced the rings: the streamed fan-in reproduces them bit for bit.
  // (The retention window's wrap rule is pinned by
  // GroupSeriesBuilder.MatchesReduceBitForBit at a capacity of 5.)
  const fleet::FleetResult small =
      fleet::DatacenterManager(small_fleet_config()).run();
  EXPECT_EQ(small.rack_series.size(), 2u);
  EXPECT_EQ(telemetry_digest(small), 0xe38f96f85e3eb410ull)
      << std::hex << "digest 0x" << telemetry_digest(small);

  const fleet::FleetResult faulty =
      fleet::DatacenterManager(faulty_telemetry_fleet_config()).run();
  ASSERT_EQ(faulty.rack_series.size(), 3u);
  // The first grid edge a sample reaches is 500 us.
  EXPECT_EQ(faulty.rack_series[0].bins.front().time,
            pcap::util::microseconds(500));
  EXPECT_EQ(telemetry_digest(faulty), 0x1df29fc7a06c49eaull)
      << std::hex << "digest 0x" << telemetry_digest(faulty);
}

TEST(Fleet, TelemetrySeriesBitIdenticalAcrossJobsAndMemoStore) {
  const std::string store = ::testing::TempDir() + "/fleet_telemetry.pcms";
  std::remove(store.c_str());
  std::optional<std::uint64_t> want;
  for (const std::size_t jobs : {1u, 2u}) {
    fleet::FleetConfig config = small_fleet_config();
    config.jobs = jobs;
    const std::uint64_t digest =
        telemetry_digest(fleet::DatacenterManager(config).run());
    if (want.has_value()) {
      EXPECT_EQ(digest, *want) << "jobs=" << jobs;
    } else {
      want = digest;
    }
  }
  // A cold run records the store; the warm run replays it.
  fleet::FleetConfig config = small_fleet_config();
  config.memo_store = store;
  const fleet::FleetResult cold = fleet::DatacenterManager(config).run();
  const fleet::FleetResult warm = fleet::DatacenterManager(config).run();
  EXPECT_EQ(cold.store_entries_loaded, 0u);
  EXPECT_GT(warm.store_entries_loaded, 0u);
  EXPECT_EQ(warm.memo_misses, 0u);
  EXPECT_EQ(telemetry_digest(cold), *want);
  EXPECT_EQ(telemetry_digest(warm), *want);
  EXPECT_EQ(warm.schedule_digest(), cold.schedule_digest());
  std::remove(store.c_str());
}

TEST(Fleet, Headline1000NodeInvariantUnderFaultsAndPartition) {
  fleet::FleetConfig config;
  // 3-level tree (datacenter -> rack -> node), uneven fan-out, 1000 nodes.
  config.rack_nodes.clear();
  for (int i = 0; i < 24; ++i) config.rack_nodes.push_back(31);
  for (int i = 0; i < 8; ++i) config.rack_nodes.push_back(32);
  config.seed = 7;
  config.jobs = 4;
  config.cap_grid_w = 16.0;
  config.schedule = fleet::BudgetSchedule(1000 * 150.0);
  config.schedule.add_phase(2e-3, 1000 * 118.0);  // shrink: admission bites
  config.schedule.add_phase(5e-3, 1000 * 150.0);  // restore
  ipmi::FaultSpec node_faults;
  node_faults.drop_rate = 0.01;
  config.node_faults = node_faults;
  ipmi::FaultSpec rack_faults;
  rack_faults.drop_rate = 0.02;
  rack_faults.duplicate_rate = 0.01;
  rack_faults.corrupt_rate = 0.01;
  config.rack_faults = rack_faults;
  fleet::FleetConfig::PartitionEpisode episode;
  episode.rack = 2;
  episode.start_s = 2.5e-3;  // inside the flat shrink window
  episode.transactions = 400;
  config.partitions.push_back(episode);
  const double weights[3] = {2.0, 1.0, 1.0};
  for (int t = 0; t < 3; ++t) {
    fleet::TenantSpec tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.weight = weights[t];
    tenant.arrivals.job_count = 24;
    tenant.arrivals.mean_interarrival_s = 100e-6;
    tenant.arrivals.min_chunks = 4;
    tenant.arrivals.max_chunks = 8;
    tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
    tenant.arrivals.seed = 1000 + static_cast<std::uint64_t>(t);
    config.tenants.push_back(tenant);
  }

  fleet::DatacenterManager dc(config);
  ASSERT_EQ(dc.node_count(), 1000u);
  const fleet::FleetResult result = dc.run();

  // The invariant: at every tree level, at every tick, committed budget
  // (child grants + reservations) never exceeded the enforced budget —
  // and the ground-truth node caps never exceeded the rack budgets.
  EXPECT_EQ(result.dc_over_enforced_ticks, 0u);
  EXPECT_EQ(result.rack_over_enforced_ticks, 0u);
  EXPECT_EQ(result.actual_over_enforced_ticks, 0u);
  // Transient committed > target (decrease converging / mid-partition) is
  // allowed but bounded: the tree must not be stuck above target.
  EXPECT_LT(result.dc_over_target_ticks, result.ticks / 2);

  // The partition episode was observed at the datacenter level and the
  // lost rack's budget was reserved, not reclaimed.
  bool saw_lost = false;
  for (const fleet::LevelTick& tick : result.dc_ticks) {
    if (tick.lost_children > 0) {
      saw_lost = true;
      EXPECT_GT(tick.reserved_w, 0.0);
    }
  }
  EXPECT_TRUE(saw_lost);

  // All 72 jobs from 3 tenants completed despite the chaos.
  ASSERT_EQ(result.jobs.size(), 72u);
  for (const sched::JobRecord& record : result.jobs) {
    EXPECT_TRUE(record.done()) << "job " << record.spec.id;
  }
  for (const fleet::TenantStats& tenant : result.tenants) {
    EXPECT_EQ(tenant.completed, tenant.jobs) << tenant.name;
    EXPECT_GT(tenant.chunks, 0u) << tenant.name;
  }

  // The coarse cap grid keeps the memo key set tiny at fleet scale.
  EXPECT_GT(result.memo_hits, result.memo_misses);

  // Telemetry fan-in covered the whole fleet.
  ASSERT_FALSE(result.fleet_series.bins.empty());
  std::size_t max_nodes = 0;
  for (const auto& bin : result.fleet_series.bins) {
    max_nodes = std::max(max_nodes, bin.nodes);
  }
  EXPECT_EQ(max_nodes, 1000u);
  ASSERT_EQ(result.rack_series.size(), 32u);
}

}  // namespace
