// Cluster power scheduler (src/sched/): the invariants DESIGN.md §11 pins.
//  * amenability tables round-trip through JSON bit-faithfully;
//  * every policy's plan respects [min_cap, max_cap] and the group budget;
//  * a run is bit-identical for a given seed regardless of the `jobs`
//    parallelism knob;
//  * at/above the rack's uncapped draw every policy produces the identical
//    baseline schedule;
//  * the summed enforced/reserved caps never exceed the budget at any tick,
//    including under lossy links and a scripted partition;
//  * deadline accounting counts exactly the jobs that miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sched/amenability_table.hpp"
#include "sched/arrivals.hpp"
#include "sched/chunk_batch.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"
#include "sched/power_model.hpp"
#include "sched/scheduler.hpp"
#include "util/json.hpp"

namespace pcap::sched {
namespace {

// Small synthetic table: per-class knee curves, steep below 135 W. Tests
// that exercise real runs characterise nothing — the scheduler must work
// from any complete table.
AmenabilityTable synthetic_table() {
  AmenabilityTable table;
  const double steep[] = {10.5, 11.4, 3.0, 16.7};
  for (int c = 0; c < kJobClassCount; ++c) {
    ClassCurve curve;
    curve.cls = static_cast<JobClass>(c);
    curve.baseline_power_w = 155.0;
    curve.baseline_time_s = 450e-6;
    curve.usable_floor_w = 135.0;
    for (const double cap : {115.0, 125.0, 135.0, 150.0}) {
      core::AmenabilityPoint p;
      p.cap_w = cap;
      p.measured_power_w = std::min(cap, 155.0);
      const double depth = std::max(0.0, 135.0 - cap) / 15.0;
      p.slowdown = 1.0 + (steep[c] - 1.0) * depth;
      p.energy_ratio = p.slowdown * p.measured_power_w / 155.0;
      curve.points.push_back(p);
    }
    table.set_curve(curve);
  }
  return table;
}

void expect_tables_equal(const AmenabilityTable& a, const AmenabilityTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int c = 0; c < kJobClassCount; ++c) {
    const ClassCurve* ca = a.curve(static_cast<JobClass>(c));
    const ClassCurve* cb = b.curve(static_cast<JobClass>(c));
    ASSERT_EQ(ca != nullptr, cb != nullptr);
    if (ca == nullptr) continue;
    EXPECT_DOUBLE_EQ(ca->baseline_power_w, cb->baseline_power_w);
    EXPECT_DOUBLE_EQ(ca->baseline_time_s, cb->baseline_time_s);
    EXPECT_DOUBLE_EQ(ca->usable_floor_w, cb->usable_floor_w);
    ASSERT_EQ(ca->points.size(), cb->points.size());
    for (std::size_t i = 0; i < ca->points.size(); ++i) {
      EXPECT_DOUBLE_EQ(ca->points[i].cap_w, cb->points[i].cap_w);
      EXPECT_DOUBLE_EQ(ca->points[i].slowdown, cb->points[i].slowdown);
      EXPECT_DOUBLE_EQ(ca->points[i].measured_power_w,
                       cb->points[i].measured_power_w);
      EXPECT_DOUBLE_EQ(ca->points[i].energy_ratio, cb->points[i].energy_ratio);
    }
  }
}

TEST(AmenabilityTableTest, JsonRoundTripPreservesEveryCurve) {
  const AmenabilityTable table = synthetic_table();
  ASSERT_TRUE(table.complete());

  // Through the in-memory JSON value and the printed text form.
  const std::string text = util::json_to_string(table.to_json(), 2);
  const auto parsed = util::parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  const auto back = AmenabilityTable::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  expect_tables_equal(table, *back);

  // Through a file, as the example/bench save-and-load path does.
  const std::string path = ::testing::TempDir() + "/pcap_amenability.json";
  table.save(path);
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto loaded = AmenabilityTable::load(path);
  ASSERT_TRUE(loaded.has_value());
  expect_tables_equal(table, *loaded);
  std::filesystem::remove(path);
}

TEST(AmenabilityTableTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(AmenabilityTable::from_json(*util::parse_json("42")));
  EXPECT_FALSE(
      AmenabilityTable::from_json(*util::parse_json("{\"schema\":\"nope\"}")));
  EXPECT_FALSE(AmenabilityTable::load("/nonexistent/amenability.json"));
}

TEST(AmenabilityTableTest, SlowdownInterpolatesAndExtrapolates) {
  const AmenabilityTable table = synthetic_table();
  const ClassCurve* curve = table.curve(JobClass::kStereoLike);
  ASSERT_NE(curve, nullptr);
  // Above the top measured cap the workload is effectively uncapped.
  EXPECT_DOUBLE_EQ(curve->slowdown_at(400.0), 1.0);
  // On a measured point.
  EXPECT_NEAR(curve->slowdown_at(135.0), 1.0, 1e-12);
  // Between points: piecewise linear.
  const double at120 = curve->slowdown_at(120.0);
  EXPECT_GT(at120, curve->slowdown_at(125.0));
  EXPECT_LT(at120, curve->slowdown_at(115.0));
  // Below the grid the lowest segment's slope extends the curve, so the
  // 110 W enforceable floor still shows marginal value to watt-filling.
  EXPECT_GT(curve->slowdown_at(110.0), curve->slowdown_at(115.0));
}

TEST(ArrivalsTest, StreamIsSeededSortedAndRespectsWeights) {
  ArrivalConfig config;
  config.job_count = 32;
  config.class_weights = {1.0, 1.0, 0.0, 0.5};  // stride-like removed
  config.deadline_fraction = 0.5;
  config.seed = 9;

  const auto a = generate_stream(config);
  const auto b = generate_stream(config);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  int with_deadline = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].chunks, b[i].chunks);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].deadline_s.has_value(), b[i].deadline_s.has_value());
    EXPECT_NE(a[i].cls, JobClass::kStrideLike);
    EXPECT_GE(a[i].chunks, config.min_chunks);
    EXPECT_LE(a[i].chunks, config.max_chunks);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    if (a[i].deadline_s) {
      ++with_deadline;
      EXPECT_GT(*a[i].deadline_s, a[i].arrival_s);
    }
  }
  EXPECT_GT(with_deadline, 0);
  EXPECT_LT(with_deadline, 32);

  // A different seed reshuffles the stream.
  config.seed = 10;
  const auto c = generate_stream(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_diff = any_diff || c[i].cls != a[i].cls ||
               c[i].arrival_s != a[i].arrival_s || c[i].chunks != a[i].chunks;
  }
  EXPECT_TRUE(any_diff);
}

// --- policy contract on a synthetic rack ----------------------------------

PlanInput synthetic_input(const AmenabilityTable* table,
                          const OnlinePowerModel* model, double budget_w) {
  PlanInput input;
  input.budget_w = budget_w;
  input.now_s = 1e-3;
  input.table = table;
  input.model = model;
  for (std::size_t i = 0; i < 6; ++i) {
    NodeView view;
    view.index = i;
    view.busy = i < 4;  // four busy, two idle
    view.cls = static_cast<JobClass>(i % kJobClassCount);
    view.remaining_chunks = static_cast<int>(1 + i);
    view.applied_cap_w = 130.0;
    view.lanes.push_back(
        {0, view.busy, view.cls, view.remaining_chunks, std::nullopt});
    input.nodes.push_back(view);
  }
  input.queued.push_back({JobClass::kPhased, 5, std::nullopt});
  return input;
}

TEST(PolicyTest, PlansStayWithinCapBoundsAndBudget) {
  const AmenabilityTable table = synthetic_table();
  OnlinePowerModel model;
  model.set_table(&table);
  for (const std::string& name : policy_names()) {
    auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
    for (const double budget : {670.0, 800.0, 1300.0}) {
      const PlanInput input = synthetic_input(&table, &model, budget);
      const Plan plan = policy->plan(input);
      ASSERT_EQ(plan.cap_w.size(), input.nodes.size()) << name;
      ASSERT_EQ(plan.admit.size(), input.nodes.size()) << name;
      double sum = 0.0;
      for (const double cap : plan.cap_w) {
        EXPECT_GE(cap, input.min_cap_w - 1e-9) << name;
        EXPECT_LE(cap, input.max_cap_w + 1e-9) << name;
        sum += cap;
      }
      EXPECT_LE(sum, budget + 1e-6) << name << " @ " << budget;
    }
  }
  EXPECT_EQ(make_policy("no-such-policy"), nullptr);
}

TEST(PolicyTest, UnreachableNodeReservationShrinksTheSpendableBudget) {
  const AmenabilityTable table = synthetic_table();
  OnlinePowerModel model;
  model.set_table(&table);
  PlanInput input = synthetic_input(&table, &model, 800.0);
  input.nodes[2].available = false;  // holds its applied cap as reservation
  auto policy = make_policy("amenability");
  const Plan plan = policy->plan(input);
  double reachable_sum = 0.0;
  for (std::size_t i = 0; i < plan.cap_w.size(); ++i) {
    if (i != 2) reachable_sum += plan.cap_w[i];
  }
  EXPECT_LE(reachable_sum + *input.nodes[2].applied_cap_w, 800.0 + 1e-6);
  EXPECT_FALSE(plan.admit[2]);
}

// --- whole-scheduler runs -------------------------------------------------

std::vector<JobSpec> small_stream(int jobs, double deadline_fraction = 0.0,
                                  double deadline_factor = 2.0) {
  ArrivalConfig config;
  config.job_count = jobs;
  config.min_chunks = 2;
  config.max_chunks = 4;
  config.deadline_fraction = deadline_fraction;
  config.deadline_factor = deadline_factor;
  config.seed = 5;
  return generate_stream(config);
}

SchedulerConfig small_config(const AmenabilityTable* table, double budget_w,
                             const std::string& policy) {
  SchedulerConfig config;
  config.node_count = 4;
  config.budget_w = budget_w;
  config.policy_name = policy;
  config.seed = 5;
  config.table = table;
  return config;
}

void expect_results_identical(const ScheduleResult& a,
                              const ScheduleResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].node, b.jobs[i].node) << "job " << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].start_s, b.jobs[i].start_s) << "job " << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_s, b.jobs[i].finish_s) << "job " << i;
    EXPECT_DOUBLE_EQ(a.jobs[i].energy_j, b.jobs[i].energy_j) << "job " << i;
    EXPECT_EQ(a.jobs[i].chunks_done, b.jobs[i].chunks_done) << "job " << i;
    EXPECT_EQ(a.jobs[i].missed_deadline, b.jobs[i].missed_deadline);
  }
  ASSERT_EQ(a.ticks.size(), b.ticks.size());
  for (std::size_t i = 0; i < a.ticks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ticks[i].t_s, b.ticks[i].t_s) << "tick " << i;
    EXPECT_DOUBLE_EQ(a.ticks[i].cap_sum_w, b.ticks[i].cap_sum_w);
  }
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.chunks, b.chunks);
}

void expect_all_done(const ScheduleResult& result, std::size_t jobs) {
  ASSERT_EQ(result.jobs.size(), jobs);
  for (const JobRecord& job : result.jobs) {
    EXPECT_TRUE(job.done()) << "job " << job.spec.id;
    EXPECT_GE(job.node, 0);
    EXPECT_GE(job.start_s, job.spec.arrival_s);
    EXPECT_GT(job.finish_s, job.start_s);
  }
}

void expect_budget_invariant(const ScheduleResult& result) {
  EXPECT_EQ(result.budget_violations, 0u);
  ASSERT_FALSE(result.ticks.empty());
  for (const TickRecord& tick : result.ticks) {
    EXPECT_LE(tick.cap_sum_w, result.budget_w + 1e-3)
        << "tick at t=" << tick.t_s;
  }
  EXPECT_LE(result.max_cap_sum_w, result.budget_w + 1e-3);
}

TEST(ClusterSchedulerTest, RunIsBitIdenticalAcrossJobsParallelism) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);

  SchedulerConfig serial = small_config(&table, 500.0, "amenability");
  serial.jobs = 1;
  SchedulerConfig threaded = serial;
  threaded.jobs = 4;

  const ScheduleResult a = ClusterScheduler(serial).run(stream);
  const ScheduleResult b = ClusterScheduler(threaded).run(stream);
  expect_all_done(a, stream.size());
  expect_budget_invariant(a);
  expect_results_identical(a, b);
}

TEST(ChunkCacheTest, SimulateChunkIsAPureFunctionOfTheKey) {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const core::BmcConfig bmc;

  ChunkKey key;
  key.cls = JobClass::kStereoLike;
  key.identity = chunk_identity(JobClass::kStereoLike, 7, 0);
  key.cap_bits = ChunkKey::encode_cap(125.0);

  // Same key, any (seed, chunk_index) that maps to it: identical result —
  // this is what makes a memo hit a bit-exact replay.
  const ChunkResult a = simulate_chunk(machine, bmc, key, 7, 0, 5);
  const ChunkResult b = simulate_chunk(machine, bmc, key, 7, 0, 5);
  const ChunkResult c = simulate_chunk(machine, bmc, key, 99, 3, 5);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.elapsed, c.elapsed);
  EXPECT_EQ(a.energy_j, c.energy_j);

  // Non-phased classes collapse every (seed, chunk_index) onto one key;
  // phased chunks keep their per-chunk identity.
  EXPECT_EQ(chunk_identity(JobClass::kSireLike, 1, 0),
            chunk_identity(JobClass::kSireLike, 42, 9));
  EXPECT_NE(chunk_identity(JobClass::kPhased, 1, 0),
            chunk_identity(JobClass::kPhased, 1, 1));

  // The cap is part of the key, and a deep cap really changes the result.
  ChunkKey deep = key;
  deep.cap_bits = ChunkKey::encode_cap(115.0);
  const ChunkResult d = simulate_chunk(machine, bmc, deep, 7, 0, 5);
  EXPECT_FALSE(key == deep);
  EXPECT_GT(d.elapsed, a.elapsed);
}

TEST(ChunkBatchTest, SharedCellSimulatesOnceAndCountsAreJobsInvariant) {
  const CoRunMember sire = CoRunMember::of(JobClass::kSireLike, 3, 0);
  const CoRunMember stereo = CoRunMember::of(JobClass::kStereoLike, 5, 0);
  const CoRunMember solo = CoRunMember::of(JobClass::kStereoLike, 9, 1);
  std::vector<ChunkBatch::Stats> stats;
  std::vector<std::vector<ChunkBatch::Outcome>> rounds;
  for (const std::size_t jobs : {1u, 3u}) {
    ChunkBatch::Config config;
    config.jobs = jobs;
    ChunkBatch batch(config);
    // Two rounds of the same starts: nodes 0 and 1 both co-run the same
    // (sire, stereo) pair at the same cap, so three starts share one cell;
    // a fourth start runs solo.
    for (int round = 0; round < 2; ++round) {
      batch.add_start(sire, std::span(&stereo, 1), 135.0);
      batch.add_start(stereo, std::span(&sire, 1), 135.0);
      batch.add_start(sire, std::span(&stereo, 1), 135.0);
      batch.add_start(solo, {}, 135.0);
      const auto outcomes = batch.run_round();
      rounds.emplace_back(outcomes.begin(), outcomes.end());
    }
    stats.push_back(batch.stats());
  }

  const std::vector<ChunkBatch::Outcome>& first = rounds[0];
  ASSERT_EQ(first.size(), 4u);
  EXPECT_TRUE(first[0].corun);
  EXPECT_TRUE(first[1].corun);
  EXPECT_FALSE(first[3].corun);
  // The two sire starts read the same member of the one cell simulation.
  EXPECT_EQ(first[0].result.elapsed, first[2].result.elapsed);
  EXPECT_EQ(first[0].result.energy_j, first[2].result.energy_j);
  EXPECT_EQ(first[0].result.avg_power_w, first[2].result.avg_power_w);
  // Every later round, at either `jobs`, replays the first bit for bit.
  for (const std::vector<ChunkBatch::Outcome>& round : rounds) {
    ASSERT_EQ(round.size(), first.size());
    for (std::size_t k = 0; k < round.size(); ++k) {
      EXPECT_EQ(round[k].result.elapsed, first[k].result.elapsed);
      EXPECT_EQ(round[k].result.energy_j, first[k].result.energy_j);
      EXPECT_EQ(round[k].corun, first[k].corun);
    }
  }

  // One cell simulated, its three starts plus the solo start missed in
  // round one and hit in round two, the same at jobs 1 and 3.
  for (const ChunkBatch::Stats& s : stats) {
    EXPECT_EQ(s.corun_cells, 1u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.hits, 4u);
  }
  EXPECT_EQ(stats[0].hits, stats[1].hits);
  EXPECT_EQ(stats[0].misses, stats[1].misses);
}

TEST(ChunkBatchTest, SoloAndCoRunStartsMatchDirectSimulation) {
  // Every start is a cell: a solo start is the one-member cell and runs on
  // a Node through simulate_chunk, a co-run start on an SmpNode through
  // simulate_corun_cell. With the memo on or off, a round returns exactly
  // what the direct calls return.
  ChunkBatch::Config config;
  const std::uint64_t thermal = thermal_identity_bits(config.machine);
  const CoRunMember phased = CoRunMember::of(JobClass::kPhased, 4, 2);
  const CoRunMember sire = CoRunMember::of(JobClass::kSireLike, 3, 0);
  const CoRunMember stereo = CoRunMember::of(JobClass::kStereoLike, 5, 0);

  const ChunkKey solo_key{phased.cls, phased.identity,
                          ChunkKey::encode_cap(125.0), thermal};
  const ChunkResult solo = simulate_chunk(config.machine, config.bmc,
                                          solo_key, phased.seed,
                                          phased.chunk_index, config.seed);
  CoRunKey pair;
  pair.cap_bits = ChunkKey::encode_cap(135.0);
  pair.thermal_bits = thermal;
  pair.members = {sire, stereo};
  std::sort(pair.members.begin(), pair.members.end(),
            [](const CoRunMember& a, const CoRunMember& b) {
              return key_less(a, b);
            });
  const std::vector<ChunkResult> cell =
      simulate_corun_cell(config.machine, config.bmc, pair, config.seed,
                          config.corun_quantum);
  const std::size_t sire_at = pair.members[0].cls == sire.cls ? 0 : 1;

  for (const bool memo : {true, false}) {
    ChunkBatch::Config with = config;
    with.memo = memo;
    ChunkBatch batch(with);
    batch.add_start(phased, {}, 125.0);
    batch.add_start(phased, {}, 125.0);
    batch.add_start(sire, std::span(&stereo, 1), 135.0);
    const auto outcomes = batch.run_round();
    ASSERT_EQ(outcomes.size(), 3u);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_FALSE(outcomes[k].corun);
      EXPECT_EQ(outcomes[k].result.elapsed, solo.elapsed) << "memo " << memo;
      EXPECT_EQ(outcomes[k].result.energy_j, solo.energy_j);
      EXPECT_EQ(outcomes[k].result.avg_power_w, solo.avg_power_w);
    }
    EXPECT_TRUE(outcomes[2].corun);
    EXPECT_EQ(outcomes[2].result.elapsed, cell[sire_at].elapsed);
    EXPECT_EQ(outcomes[2].result.energy_j, cell[sire_at].energy_j);
    EXPECT_EQ(outcomes[2].result.avg_power_w, cell[sire_at].avg_power_w);

    // Both duplicate solo starts missed (their cell was new this round);
    // only the two-member cell counts as a co-run cell.
    const ChunkBatch::Stats stats = batch.stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.corun_cells, 1u);
  }
}

TEST(ClusterSchedulerTest, MemoCacheIsBitNeutralAndActuallyHits) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(8);

  SchedulerConfig with_memo = small_config(&table, 500.0, "amenability");
  with_memo.jobs = 2;
  SchedulerConfig without = with_memo;
  without.memo = false;

  const ScheduleResult memo = ClusterScheduler(with_memo).run(stream);
  const ScheduleResult plain = ClusterScheduler(without).run(stream);
  expect_all_done(memo, stream.size());
  expect_budget_invariant(memo);
  // Cache-off equivalence: the memo is a pure performance knob.
  expect_results_identical(memo, plain);

  // The stream repeats (class, cap) cells, so the cache genuinely replayed
  // chunks — and every chunk was classified exactly once.
  EXPECT_GT(memo.memo_hits, 0u);
  EXPECT_EQ(memo.memo_hits + memo.memo_misses, memo.chunks);
  EXPECT_EQ(plain.memo_hits, 0u);
  EXPECT_EQ(plain.memo_misses, plain.chunks);
}

TEST(ClusterSchedulerTest, PoliciesDegenerateToBaselineAtGenerousBudget) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);
  // 175 W per node clears every class's uncapped draw (~152-156 W) plus
  // headroom: no policy has a reason to throttle anyone.
  const double generous_w = 4 * 175.0;

  std::optional<ScheduleResult> baseline;
  for (const std::string& name : policy_names()) {
    const ScheduleResult result =
        ClusterScheduler(small_config(&table, generous_w, name)).run(stream);
    expect_all_done(result, stream.size());
    expect_budget_invariant(result);
    EXPECT_EQ(result.deadline_misses, 0) << name;
    if (!baseline) {
      baseline = result;
      continue;
    }
    // Identical placement and timing — not merely similar.
    ASSERT_EQ(result.jobs.size(), baseline->jobs.size()) << name;
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
      EXPECT_EQ(result.jobs[i].node, baseline->jobs[i].node)
          << name << " job " << i;
      EXPECT_DOUBLE_EQ(result.jobs[i].start_s, baseline->jobs[i].start_s)
          << name << " job " << i;
      EXPECT_DOUBLE_EQ(result.jobs[i].finish_s, baseline->jobs[i].finish_s)
          << name << " job " << i;
    }
    EXPECT_DOUBLE_EQ(result.makespan_s, baseline->makespan_s) << name;
  }
}

TEST(ClusterSchedulerTest, BudgetInvariantHoldsUnderFaultsAndPartition) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);

  SchedulerConfig config = small_config(&table, 500.0, "amenability");
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.10;
  faults.duplicate_rate = 0.05;
  faults.corrupt_rate = 0.05;
  config.faults = faults;

  ClusterScheduler scheduler(config);
  ASSERT_NE(scheduler.fault_link(1), nullptr);
  // Black-hole one node's link for a stretch of exchanges: the scheduler
  // must treat its last applied cap as reserved and keep the rack under
  // budget around it.
  scheduler.fault_link(1)->partition_for(60);

  const ScheduleResult result = scheduler.run(stream);
  expect_all_done(result, stream.size());
  expect_budget_invariant(result);
  // The lossy links must actually have cost something, or the test proves
  // nothing about fault handling.
  EXPECT_GT(result.mgmt_retries + result.mgmt_failed_exchanges, 0u);
}

// Idle-energy accounting rests on each slot's calibrated idle draw (a
// fresh node, seed `seed + i + 1`, idling 600 us under an uncapped BMC).
// The schedule digest does not cover it, so its exact bits are pinned here.
TEST(ClusterSchedulerTest, IdleCalibrationAndIdleEnergyArePinned) {
  const AmenabilityTable table = synthetic_table();
  SchedulerConfig config = small_config(&table, 500.0, "amenability");
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.10;
  faults.duplicate_rate = 0.05;
  faults.corrupt_rate = 0.05;
  config.faults = faults;

  ClusterScheduler scheduler(config);
  const ScheduleResult result = scheduler.run(small_stream(6));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // Every node idles at the same draw: the seed moves no idle-path draw.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bits(scheduler.idle_power_w(i)), 0x405930a3d70a3d65u)
        << "node " << i << ": " << std::hexfloat << scheduler.idle_power_w(i);
  }
  EXPECT_EQ(bits(result.idle_energy_j), 0x3fe86ca559762aeeu)
      << std::hexfloat << result.idle_energy_j;
  EXPECT_EQ(bits(result.total_energy_j), 0x3ff9273ee96e1a1au)
      << std::hexfloat << result.total_energy_j;
  EXPECT_EQ(result.schedule_digest(), 0x602f85edc09a4cccu);
}

TEST(ClusterSchedulerTest, DeadlineAccountingCountsExactlyTheMisses) {
  const AmenabilityTable table = synthetic_table();

  // Impossible deadlines: a fraction of an uncapped chunk-time per chunk.
  const auto doomed = small_stream(4, 1.0, 0.05);
  const ScheduleResult missed =
      ClusterScheduler(small_config(&table, 700.0, "uniform")).run(doomed);
  expect_all_done(missed, doomed.size());
  EXPECT_EQ(missed.deadline_misses, 4);
  for (const JobRecord& job : missed.jobs) {
    EXPECT_TRUE(job.missed_deadline);
  }

  // Generous deadlines: none miss even at a tighter budget.
  const auto relaxed = small_stream(4, 1.0, 200.0);
  const ScheduleResult met =
      ClusterScheduler(small_config(&table, 500.0, "uniform")).run(relaxed);
  expect_all_done(met, relaxed.size());
  EXPECT_EQ(met.deadline_misses, 0);
  for (const JobRecord& job : met.jobs) {
    EXPECT_FALSE(job.missed_deadline);
  }
}

TEST(ClusterSchedulerTest, RefusesBudgetBelowTheEnforceableFloor) {
  const AmenabilityTable table = synthetic_table();
  SchedulerConfig config = small_config(&table, 0.0, "uniform");
  config.budget_w = config.bmc.min_cap_w * 4 - 1.0;
  const ScheduleResult result =
      ClusterScheduler(config).run(small_stream(2));
  EXPECT_EQ(result.infeasible_plans, 1u);
  EXPECT_EQ(result.chunks, 0u);
  for (const JobRecord& job : result.jobs) {
    EXPECT_FALSE(job.done());
  }
}

TEST(OnlinePowerModelTest, LearnsUncappedDrawAndIgnoresCappedSamples) {
  OnlinePowerModel model;
  const double prior = model.predict_uncapped_w(JobClass::kSireLike);
  EXPECT_GT(prior, 0.0);

  // Uncapped observations pull the estimate toward the measurement.
  for (int i = 0; i < 20; ++i) {
    model.observe(JobClass::kSireLike, std::nullopt, 150.0);
  }
  EXPECT_NEAR(model.predict_uncapped_w(JobClass::kSireLike), 150.0, 2.0);
  EXPECT_EQ(model.uncapped_samples(JobClass::kSireLike), 20u);

  // Deeply capped observations measure the cap, not the demand: they must
  // not drag the uncapped estimate down.
  for (int i = 0; i < 20; ++i) {
    model.observe(JobClass::kSireLike, 120.0, 119.0);
  }
  EXPECT_NEAR(model.predict_uncapped_w(JobClass::kSireLike), 150.0, 2.0);
  EXPECT_EQ(model.samples(JobClass::kSireLike), 40u);

  // With a table attached, an unobserved class predicts its measured
  // baseline rather than the default.
  const AmenabilityTable table = synthetic_table();
  model.set_table(&table);
  EXPECT_DOUBLE_EQ(model.predict_uncapped_w(JobClass::kPhased), 155.0);
}

}  // namespace
}  // namespace pcap::sched
