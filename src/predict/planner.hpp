// Proactive cap planning from phase forecasts (DESIGN.md §16).
//
// The planner runs *after* the policy: it takes the policy's plan plus the
// per-node phase forecasts and shifts watts toward nodes whose next chunk
// is forecast heavier than their typical one — so the DCM's caps move one
// control round ahead of a predicted phase change instead of one behind
// it. It is a pure redistribution: the cap sum over available nodes is
// conserved exactly, every cap stays inside [min_cap_w, max_cap_w], and
// the scheduler re-clamps and re-checks feasibility afterwards, so the
// budget invariant cannot be broken from here.
//
// Safety fallback: nodes whose forecast is invalid or below the confidence
// floor neither donate nor receive, and when no confident donor/receiver
// pair exists the plan is returned untouched — which *is* the reactive
// path. A cost/benefit gate on the amenability curves (input.table — the
// learned table once --learn-online supersedes the static one) refuses a
// transfer whose receivers' predicted per-chunk gain is below the donors'
// predicted loss. This is what keeps a donor off its own cliff — at a
// 250 W budget a 5 W donation would park a stride-like node at 120 W,
// where its learned slowdown explodes — and keeps the planner idle above
// the knee, where curvature offers nothing worth the churn. Iteration is
// in node-index order over already-deterministic forecasts, so plans are
// bit-identical under `--jobs`.
#pragma once

#include <vector>

#include "sched/policy.hpp"

namespace pcap::predict {

struct PlannerConfig {
  /// Most watts one node donates or receives per control round.
  double transfer_step_w = 10.0;
};

class ProactiveCapPlanner {
 public:
  explicit ProactiveCapPlanner(const PlannerConfig& config = {});

  const PlannerConfig& config() const { return config_; }

  /// Redistributes plan->cap_w using `forecasts` (parallel to
  /// input.nodes). Returns true when any watts actually moved; false is
  /// the reactive fallback (plan untouched).
  bool adjust(const sched::PlanInput& input,
              const std::vector<sched::NodeForecast>& forecasts,
              sched::Plan* plan) const;

 private:
  PlannerConfig config_;
};

}  // namespace pcap::predict
