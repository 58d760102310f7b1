#include "predict/planner.hpp"

#include <algorithm>

#include "sched/amenability_table.hpp"

namespace pcap::predict {

namespace {

/// Forecasts below this confidence neither donate nor receive watts.
constexpr double kMinConfidence = 0.5;
/// Relative elapsed-vs-typical gap before a node counts as heavy/light.
constexpr double kImbalanceEpsilon = 0.05;

}  // namespace

ProactiveCapPlanner::ProactiveCapPlanner(const PlannerConfig& config)
    : config_(config) {}

bool ProactiveCapPlanner::adjust(
    const sched::PlanInput& input,
    const std::vector<sched::NodeForecast>& forecasts,
    sched::Plan* plan) const {
  if (plan == nullptr || forecasts.size() != input.nodes.size() ||
      plan->cap_w.size() != input.nodes.size()) {
    return false;
  }

  // Classify each plannable node by its forecast: next chunk heavier than
  // typical -> wants watts, lighter -> can spare watts. Unavailable nodes
  // and low-confidence forecasts are untouchable (reactive fallback).
  struct Move {
    std::size_t node = 0;
    double room_w = 0.0;  // how much this node can give (donor) / take
    const sched::ClassCurve* curve = nullptr;  // next chunk's class curve
  };
  // The class each plannable node runs next: the resident class for busy
  // nodes; for idle nodes, the queued job it is about to pick (assignment
  // is FIFO in node-index order, and replanning runs before assignment).
  std::size_t next_queued = 0;
  std::vector<Move> donors, receivers;
  for (std::size_t i = 0; i < input.nodes.size(); ++i) {
    const sched::NodeView& node = input.nodes[i];
    const sched::NodeForecast& f = forecasts[i];
    const sched::ClassCurve* curve = nullptr;
    if (input.table != nullptr) {
      if (node.busy) {
        curve = input.table->curve(node.cls);
      } else if (next_queued < input.queued.size()) {
        curve = input.table->curve(input.queued[next_queued].cls);
      }
    }
    if (!node.busy && next_queued < input.queued.size()) ++next_queued;
    if (!node.available || !f.valid || f.confidence < kMinConfidence ||
        f.typical_elapsed_s <= 0.0) {
      continue;
    }
    // A drained node still carries a confident-looking forecast from its
    // last chunks, but there is no "next chunk" for it: once it idles with
    // nothing queued, shifting watts toward (or off) it only starves the
    // nodes still working the tail of the schedule.
    if (!node.busy && input.queued.empty()) continue;
    const double ratio = f.next_elapsed_s / f.typical_elapsed_s;
    const double cap = plan->cap_w[i];
    if (ratio > 1.0 + kImbalanceEpsilon) {
      const double room = std::min(config_.transfer_step_w,
                                   input.max_cap_w - cap);
      if (room > 0.0) receivers.push_back({i, room, curve});
    } else if (ratio < 1.0 - kImbalanceEpsilon) {
      const double room = std::min(config_.transfer_step_w,
                                   cap - input.min_cap_w);
      if (room > 0.0) donors.push_back({i, room, curve});
    }
  }
  if (donors.empty() || receivers.empty()) return false;

  // Conserving transfer: move min(total donor room, total receiver room)
  // watts, pro-rated over each side so the split is order-independent and
  // the sum over available nodes is unchanged to the last bit we can
  // manage in floating point (the scheduler re-clamps afterwards anyway).
  double donate = 0.0, receive = 0.0;
  for (const Move& m : donors) donate += m.room_w;
  for (const Move& m : receivers) receive += m.room_w;
  const double moved = std::min(donate, receive);
  if (moved <= 0.0) return false;

  // Cost/benefit gate on the learned curves: predicted per-chunk time the
  // receivers gain must be at least the donors' predicted loss, each
  // evaluated at the watts that would actually move. Skipped when any
  // involved class lacks a curve — an unknown cliff is exactly the case
  // where guessing is most dangerous, so the gate refuses to price it and
  // the amplitude classification above stands alone.
  bool priced = true;
  double gain_s = 0.0, loss_s = 0.0;
  for (const Move& m : receivers) {
    if (m.curve == nullptr || m.curve->baseline_time_s <= 0.0) {
      priced = false;
      break;
    }
    const double cap = plan->cap_w[m.node];
    const double up = moved * (m.room_w / receive);
    gain_s += m.curve->baseline_time_s *
              (m.curve->slowdown_at(cap) - m.curve->slowdown_at(cap + up));
  }
  for (const Move& m : donors) {
    if (!priced) break;
    if (m.curve == nullptr || m.curve->baseline_time_s <= 0.0) {
      priced = false;
      break;
    }
    const double cap = plan->cap_w[m.node];
    const double down = moved * (m.room_w / donate);
    loss_s += m.curve->baseline_time_s *
              (m.curve->slowdown_at(cap - down) - m.curve->slowdown_at(cap));
  }
  if (priced && gain_s < loss_s) return false;

  for (const Move& m : donors) {
    plan->cap_w[m.node] -= moved * (m.room_w / donate);
  }
  for (const Move& m : receivers) {
    plan->cap_w[m.node] += moved * (m.room_w / receive);
  }
  return true;
}

}  // namespace pcap::predict
