// The predict subsystem (src/predict/, DESIGN.md §16): phase detection
// over seeded series, online amenability learning with monotone
// projection, the conserving proactive planner, and the hook contract —
// an attached-but-disabled predictor is bit-identical to no predictor,
// and an enabled one keeps the run bit-identical across `--jobs` and
// inside the budget invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "predict/learner.hpp"
#include "predict/phase.hpp"
#include "predict/planner.hpp"
#include "predict/predictor.hpp"
#include "sched/amenability_table.hpp"
#include "sched/arrivals.hpp"
#include "sched/scheduler.hpp"
#include "util/json.hpp"

namespace pcap::predict {
namespace {

using sched::AmenabilityTable;
using sched::ClassCurve;
using sched::ClusterScheduler;
using sched::CoRunObservation;
using sched::JobClass;
using sched::JobSpec;
using sched::kJobClassCount;
using sched::ScheduleResult;
using sched::SchedulerConfig;

// Same synthetic knee table the scheduler tests use: steep below 135 W.
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

std::vector<JobSpec> small_stream(int jobs, double deadline_fraction = 0.0) {
  sched::ArrivalConfig config;
  config.job_count = jobs;
  config.min_chunks = 2;
  config.max_chunks = 4;
  config.deadline_fraction = deadline_fraction;
  config.seed = 5;
  return sched::generate_stream(config);
}

SchedulerConfig small_config(const AmenabilityTable* table, double budget_w) {
  SchedulerConfig config;
  config.node_count = 4;
  config.budget_w = budget_w;
  config.policy_name = "amenability";
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

// --- phase detection -------------------------------------------------------

TEST(PhaseTest, DetectsSquareWaveAndForecastsBoundary) {
  // Period-4 square wave: three light steps, one heavy.
  std::vector<double> series;
  for (int i = 0; i < 16; ++i) {
    series.insert(series.end(), {100.0, 100.0, 100.0, 300.0});
  }
  PhaseConfig config;
  config.window = 64;
  const PhaseForecast f = analyze_series(series, config);
  EXPECT_TRUE(f.periodic);
  EXPECT_EQ(f.period, 4u);
  EXPECT_GT(f.confidence, 0.9);
  // Last sample was the heavy 300; the next one is light again...
  EXPECT_DOUBLE_EQ(f.current_value, 300.0);
  EXPECT_DOUBLE_EQ(f.next_value, 100.0);
  // ...which is itself a level change: boundary at the very next step.
  EXPECT_EQ(f.boundary_in, 1u);
  EXPECT_DOUBLE_EQ(f.boundary_level, 100.0);

  // One sample into the light phase the boundary sits at the cycle's end.
  series.push_back(100.0);
  const PhaseForecast g = analyze_series(series, config);
  ASSERT_TRUE(g.periodic);
  EXPECT_EQ(g.period, 4u);
  EXPECT_DOUBLE_EQ(g.next_value, 100.0);
  EXPECT_EQ(g.boundary_in, 3u);
  EXPECT_DOUBLE_EQ(g.boundary_level, 300.0);
}

TEST(PhaseTest, RejectsFlatShortAndAperiodicSeries) {
  PhaseConfig config;
  // Flat: nothing to plan for.
  EXPECT_FALSE(analyze_series(std::vector<double>(40, 130.0), config).periodic);
  // Too short for any period to repeat.
  EXPECT_FALSE(analyze_series({1.0, 2.0, 3.0}, config).periodic);
  EXPECT_FALSE(analyze_series({}, config).periodic);
  // Deterministic hash noise: no dominant period above the floor.
  std::vector<double> noise;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    noise.push_back(static_cast<double>(x % 1000));
  }
  const PhaseForecast f = analyze_series(noise, config);
  EXPECT_FALSE(f.periodic) << "confidence " << f.confidence;
}

TEST(PhaseTest, PredictorRingRetainsWindowAndTracksForecast) {
  PhaseConfig config;
  config.window = 16;
  PhasePredictor predictor(config);
  // Push far more than the window: the ring wraps, the forecast follows
  // the retained tail (period-2 alternation).
  for (int i = 0; i < 100; ++i) {
    predictor.observe(i % 2 == 0 ? 120.0 : 220.0);
  }
  EXPECT_EQ(predictor.observations(), 100u);
  const PhaseForecast& f = predictor.forecast();
  ASSERT_TRUE(f.periodic);
  EXPECT_EQ(f.period, 2u);
  EXPECT_DOUBLE_EQ(f.current_value, 220.0);  // i=99 pushed 220
  EXPECT_DOUBLE_EQ(f.next_value, 120.0);
}

// --- online learner --------------------------------------------------------

CoRunObservation solo_obs(JobClass cls, std::optional<double> cap_w,
                          double elapsed_s) {
  CoRunObservation obs;
  obs.cls = cls;
  obs.cap_w = cap_w;
  obs.elapsed_s = elapsed_s;
  return obs;
}

TEST(LearnerTest, BootstrapReproducesOfflineCurves) {
  const AmenabilityTable table = synthetic_table();
  OnlineAmenabilityLearner learner;
  learner.bootstrap(table);
  for (int c = 0; c < kJobClassCount; ++c) {
    const auto cls = static_cast<JobClass>(c);
    EXPECT_EQ(learner.provenance(cls), Provenance::kOffline);
    EXPECT_EQ(learner.samples(cls), 0u);
    EXPECT_DOUBLE_EQ(learner.confidence(cls), 0.0);
    const ClassCurve* offline = table.curve(cls);
    for (const double cap : {115.0, 125.0, 135.0, 150.0}) {
      EXPECT_NEAR(learner.slowdown_at(cls, cap), offline->slowdown_at(cap),
                  1e-9)
          << "class " << c << " cap " << cap;
    }
  }
  EXPECT_TRUE(learner.table().complete());
}

TEST(LearnerTest, ConvergesToGroundTruthFromScratch) {
  // Ground truth: knee at 135 W, slope 0.4/W below it, power == cap when
  // the cap binds. The learner sees only (cap, elapsed, watts) outcomes.
  const double baseline_s = 450e-6;
  const double baseline_w = 155.0;
  const auto truth = [](double cap) {
    return 1.0 + 0.4 * std::max(0.0, 135.0 - cap);
  };
  OnlineAmenabilityLearner learner;
  const JobClass cls = JobClass::kSireLike;
  // Uncapped chunks first: they pin the baseline.
  for (int i = 0; i < 8; ++i) {
    learner.observe(solo_obs(cls, std::nullopt, baseline_s), baseline_w);
  }
  EXPECT_EQ(learner.uncapped_samples(cls), 8u);
  // Then repeated capped chunks across the grid.
  for (int rep = 0; rep < 6; ++rep) {
    for (const double cap : {115.0, 125.0, 130.0, 140.0, 150.0}) {
      learner.observe(solo_obs(cls, cap, truth(cap) * baseline_s),
                      std::min(cap, baseline_w));
    }
  }
  EXPECT_EQ(learner.provenance(cls), Provenance::kOnlineLearned);
  EXPECT_GT(learner.confidence(cls), 0.5);
  for (const double cap : {115.0, 125.0, 130.0}) {
    EXPECT_NEAR(learner.slowdown_at(cls, cap), truth(cap), 1e-6)
        << "cap " << cap;
    EXPECT_NEAR(learner.power_at(cls, cap), cap, 1e-6) << "cap " << cap;
  }
  // Learned monotonicity: deeper caps hurt at least as much.
  EXPECT_GE(learner.slowdown_at(cls, 115.0), learner.slowdown_at(cls, 125.0));
  EXPECT_GE(learner.slowdown_at(cls, 125.0), learner.slowdown_at(cls, 135.0));
}

TEST(LearnerTest, ProjectionRestoresMonotonicityFromNoisySamples) {
  OnlineAmenabilityLearner learner;
  const JobClass cls = JobClass::kStereoLike;
  for (int i = 0; i < 4; ++i) {
    learner.observe(solo_obs(cls, std::nullopt, 450e-6), 155.0);
  }
  // Contradictory samples: *higher* slowdown at the *looser* cap. The PAVA
  // projection must hand back a non-increasing curve anyway.
  learner.observe(solo_obs(cls, 150.0, 3.0 * 450e-6), 150.0);
  learner.observe(solo_obs(cls, 115.0, 1.0 * 450e-6), 115.0);
  double prev = 1e9;
  for (const double cap : {115.0, 125.0, 135.0, 150.0}) {
    const double s = learner.slowdown_at(cls, cap);
    EXPECT_LE(s, prev + 1e-9) << "cap " << cap;
    prev = s;
  }
}

TEST(LearnerTest, PairCurvesNeverContaminateSoloCurves) {
  OnlineAmenabilityLearner learner;
  const JobClass cls = JobClass::kSireLike;
  const JobClass other = JobClass::kStrideLike;
  for (int i = 0; i < 4; ++i) {
    learner.observe(solo_obs(cls, std::nullopt, 450e-6), 155.0);
  }
  learner.observe(solo_obs(cls, 125.0, 2.0 * 450e-6), 125.0);
  const double solo_before = learner.slowdown_at(cls, 125.0);

  CoRunObservation corun = solo_obs(cls, 125.0, 6.0 * 450e-6);
  corun.co_resident = {other};
  learner.observe(corun, 125.0);

  EXPECT_DOUBLE_EQ(learner.slowdown_at(cls, 125.0), solo_before);
  EXPECT_EQ(learner.pair_samples(cls, other), 1u);
  EXPECT_NEAR(learner.pair_slowdown_at(cls, other, 125.0), 6.0, 1e-9);
  // Unsampled pair falls back to the solo curve.
  EXPECT_DOUBLE_EQ(learner.pair_slowdown_at(cls, JobClass::kPhased, 125.0),
                   solo_before);
}

TEST(LearnerTest, MixedProvenanceAndV1DocumentBootstrap) {
  const AmenabilityTable table = synthetic_table();
  OnlineAmenabilityLearner learner;
  learner.bootstrap(table);
  for (int i = 0; i < 3; ++i) {
    learner.observe(solo_obs(JobClass::kSireLike, std::nullopt, 450e-6),
                    155.0);
  }
  learner.observe(solo_obs(JobClass::kSireLike, 125.0, 2.2 * 450e-6), 125.0);
  CoRunObservation corun = solo_obs(JobClass::kSireLike, 125.0, 4.0 * 450e-6);
  corun.co_resident = {JobClass::kStereoLike};
  learner.observe(corun, 125.0);
  EXPECT_EQ(learner.provenance(JobClass::kSireLike), Provenance::kMixed);
  EXPECT_EQ(learner.samples(JobClass::kSireLike), 4u);
  EXPECT_EQ(learner.pair_samples(JobClass::kSireLike, JobClass::kStereoLike),
            1u);

  // A pcap-amenability-v1 document, read back, is a pure bootstrap.
  const auto v1 = AmenabilityTable::from_json(
      *util::parse_json(util::json_to_string(table.to_json(), 2)));
  ASSERT_TRUE(v1.has_value());
  OnlineAmenabilityLearner from_v1;
  from_v1.bootstrap(*v1);
  for (int c = 0; c < kJobClassCount; ++c) {
    const auto cls = static_cast<JobClass>(c);
    EXPECT_EQ(from_v1.provenance(cls), Provenance::kOffline);
    EXPECT_EQ(from_v1.samples(cls), 0u);
    EXPECT_NEAR(from_v1.slowdown_at(cls, 125.0),
                table.curve(cls)->slowdown_at(125.0), 1e-9);
  }
}

// --- proactive planner -----------------------------------------------------

TEST(PlannerTest, ConservesCapSumAndRespectsBounds) {
  sched::PlanInput input;
  input.budget_w = 390.0;
  input.min_cap_w = 110.0;
  input.max_cap_w = 400.0;
  for (std::size_t i = 0; i < 3; ++i) {
    sched::NodeView node;
    node.index = i;
    node.busy = true;  // drained idle nodes are untouchable (see below)
    node.lanes.push_back({0, true, node.cls, 0, std::nullopt});
    input.nodes.push_back(node);
  }
  std::vector<sched::NodeForecast> forecasts(3);
  forecasts[0].valid = true;  // heavy next chunk: receiver
  forecasts[0].confidence = 0.9;
  forecasts[0].typical_elapsed_s = 1.0;
  forecasts[0].next_elapsed_s = 2.0;
  forecasts[1].valid = true;  // light next chunk: donor
  forecasts[1].confidence = 0.9;
  forecasts[1].typical_elapsed_s = 1.0;
  forecasts[1].next_elapsed_s = 0.5;
  // forecasts[2] invalid: untouchable either way.

  sched::Plan plan;
  plan.cap_w = {130.0, 130.0, 130.0};
  plan.admit = {true, true, true};
  ProactiveCapPlanner planner;
  ASSERT_TRUE(planner.adjust(input, forecasts, &plan));
  EXPECT_DOUBLE_EQ(plan.cap_w[0], 140.0);  // +transfer_step
  EXPECT_DOUBLE_EQ(plan.cap_w[1], 120.0);  // -transfer_step
  EXPECT_DOUBLE_EQ(plan.cap_w[2], 130.0);
  EXPECT_DOUBLE_EQ(plan.cap_w[0] + plan.cap_w[1] + plan.cap_w[2], 390.0);

  // Donor already at the floor: nothing can move, reactive fallback.
  plan.cap_w = {130.0, 110.0, 130.0};
  EXPECT_FALSE(planner.adjust(input, forecasts, &plan));
  EXPECT_DOUBLE_EQ(plan.cap_w[1], 110.0);

  // Below the confidence floor: untouched.
  forecasts[0].confidence = forecasts[1].confidence = 0.2;
  plan.cap_w = {130.0, 130.0, 130.0};
  EXPECT_FALSE(planner.adjust(input, forecasts, &plan));
  EXPECT_DOUBLE_EQ(plan.cap_w[0], 130.0);
  EXPECT_DOUBLE_EQ(plan.cap_w[1], 130.0);

  // Size mismatch (no forecasts this round): reactive fallback.
  EXPECT_FALSE(planner.adjust(input, {}, &plan));

  // Drained tail: a node that idles with nothing queued still carries a
  // confident-looking forecast from its last chunks, but there is no next
  // chunk to plan for — it must be untouchable on both sides.
  forecasts[0].confidence = forecasts[1].confidence = 0.9;
  input.nodes[1].busy = false;  // the would-be donor has drained
  plan.cap_w = {130.0, 130.0, 130.0};
  EXPECT_FALSE(planner.adjust(input, forecasts, &plan));
  EXPECT_DOUBLE_EQ(plan.cap_w[0], 130.0);
  EXPECT_DOUBLE_EQ(plan.cap_w[1], 130.0);
}

// --- hook contract on whole-scheduler runs ---------------------------------

TEST(PredictorTest, AttachedButDisabledIsBitIdentical) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);

  const ScheduleResult detached =
      ClusterScheduler(small_config(&table, 500.0)).run(stream);

  PredictorConfig pc;  // enabled defaults to false
  pc.learn_online = true;
  pc.proactive = true;
  Predictor predictor(pc);
  predictor.bootstrap(table);
  SchedulerConfig sc = small_config(&table, 500.0);
  sc.predictor = &predictor;
  const ScheduleResult attached = ClusterScheduler(sc).run(stream);

  expect_results_identical(detached, attached);
  EXPECT_EQ(predictor.stats().chunks_observed, 0u);
  EXPECT_EQ(predictor.stats().proactive_adjustments, 0u);
  EXPECT_EQ(predictor.learned_table(), nullptr);
}

TEST(PredictorTest, EnabledRunIsBitIdenticalAcrossJobsParallelism) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(8, 0.5);

  auto run_with_jobs = [&](std::size_t jobs) {
    PredictorConfig pc;
    pc.enabled = true;
    pc.learn_online = true;
    pc.phase.window = 16;
    Predictor predictor(pc);
    predictor.bootstrap(table);
    SchedulerConfig sc = small_config(&table, 500.0);
    sc.jobs = jobs;
    sc.predictor = &predictor;
    ScheduleResult result = ClusterScheduler(sc).run(stream);
    EXPECT_GT(predictor.stats().chunks_observed, 0u);
    EXPECT_GT(predictor.stats().forecast_rounds, 0u);
    return result;
  };

  const ScheduleResult serial = run_with_jobs(1);
  const ScheduleResult parallel = run_with_jobs(4);
  expect_results_identical(serial, parallel);

  // The budget invariant survives the proactive adjustments: the planner
  // only redistributes, and the scheduler re-clamps behind it.
  EXPECT_EQ(serial.budget_violations, 0u);
  for (const sched::TickRecord& tick : serial.ticks) {
    EXPECT_LE(tick.cap_sum_w, serial.budget_w + 1e-3);
  }
  for (const sched::JobRecord& job : serial.jobs) {
    EXPECT_TRUE(job.done()) << "job " << job.spec.id;
  }
}

TEST(PredictorTest, LearnedTableSupersedesStaticOnlyWhenLearningOnline) {
  const AmenabilityTable table = synthetic_table();
  PredictorConfig pc;
  pc.enabled = true;
  pc.learn_online = false;
  Predictor no_learn(pc);
  no_learn.bootstrap(table);
  EXPECT_EQ(no_learn.learned_table(), nullptr);

  pc.learn_online = true;
  Predictor learn(pc);
  EXPECT_EQ(learn.learned_table(), nullptr);  // nothing materialised yet
  learn.bootstrap(table);
  ASSERT_NE(learn.learned_table(), nullptr);
  EXPECT_TRUE(learn.learned_table()->complete());
}

}  // namespace
}  // namespace pcap::predict
