// The predict subsystem's scheduler-facing facade (DESIGN.md §16).
//
// One Predictor object implements sched::PredictorHook and wires the three
// cooperating pieces together behind the scheduler's three call points:
//
//   on_chunk       -> per-node PhasePredictors over the chunk elapsed-time
//                     and average-draw series, plus (with --learn-online)
//                     the OnlineAmenabilityLearner;
//   forecasts      -> the cached per-node phase forecasts, translated into
//                     sched::NodeForecast for the replan input;
//   adjust_plan    -> the ProactiveCapPlanner's conserving redistribution,
//                     or the reactive fallback when confidence is low;
//   learned_table  -> the learner's materialised AmenabilityTable, which
//                     supersedes the static table in PlanInput once online
//                     learning is on.
//
// A Predictor that is attached but disabled (config.enabled == false) is a
// strict no-op at every call point: empty forecasts, untouched plans, null
// learned table — bit-identical to not attaching one at all (pinned by
// tests/test_predict.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "predict/learner.hpp"
#include "predict/phase.hpp"
#include "predict/planner.hpp"
#include "sched/predictor_hook.hpp"

namespace pcap::predict {

struct PredictorConfig {
  /// Master switch. Off => every hook is a no-op (bit-identical runs).
  bool enabled = false;
  /// Feed the amenability learner and supersede the static table with its
  /// materialised curves.
  bool learn_online = false;
  /// Let the planner shift watts on confident forecasts; off leaves plans
  /// untouched (forecast-only mode).
  bool proactive = true;
  PhaseConfig phase;
  PlannerConfig planner;
};

/// Per-run predictor statistics (the scheduler's ScheduleResult does not
/// know about prediction; callers read these off the hook afterwards).
struct PredictorStats {
  std::uint64_t chunks_observed = 0;
  std::uint64_t forecast_rounds = 0;
  /// Rounds where the planner moved watts vs fell back to reactive.
  std::uint64_t proactive_adjustments = 0;
  std::uint64_t reactive_fallbacks = 0;
};

class Predictor : public sched::PredictorHook {
 public:
  explicit Predictor(const PredictorConfig& config = {});

  const PredictorConfig& config() const { return config_; }

  /// Seeds the learner from an offline table (provenance "offline").
  void bootstrap(const sched::AmenabilityTable& table);

  // --- sched::PredictorHook ----------------------------------------------
  void on_chunk(std::size_t node, const sched::CoRunObservation& obs,
                double avg_power_w) override;
  void forecasts(double now_s, std::size_t nodes,
                 std::vector<sched::NodeForecast>* out) override;
  void adjust_plan(const sched::PlanInput& input, sched::Plan* plan) override;
  const sched::AmenabilityTable* learned_table() const override;

  const OnlineAmenabilityLearner& learner() const { return learner_; }
  OnlineAmenabilityLearner& learner() { return learner_; }
  const PredictorStats& stats() const { return stats_; }

 private:
  void ensure_node(std::size_t node);

  PredictorConfig config_;
  OnlineAmenabilityLearner learner_;
  ProactiveCapPlanner planner_;
  // Parallel per-node detectors, grown on demand. Elapsed time is the
  // class-discriminating signal below the knee (a binding cap pins every
  // class's draw to ~cap watts, so the watts series alone cannot separate
  // phases); the draw series still feeds next_power_w.
  std::vector<PhasePredictor> elapsed_;
  std::vector<PhasePredictor> watts_;
  PredictorStats stats_;
};

}  // namespace pcap::predict
