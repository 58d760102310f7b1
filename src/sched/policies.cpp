// The six shipped cap-allocation policies.
//
// All of them share the same skeleton: compute the effective budget (group
// budget minus reservations held by unreachable nodes), give every
// available node the enforceable floor, spend the surplus according to the
// policy's idea of value, and finally spread any unspent watts evenly so a
// generous budget always degenerates to the unthrottled baseline schedule
// (leaving surplus on the table would be both wasteful and would break the
// policy-equivalence invariant the tests pin).
//
// Deadline stance (pinned by tests/test_cosched.cpp): "deadline" is the
// one policy that consumes NodeView/queued deadline_s; the other five
// ignore deadlines mechanically — their plans are invariant under
// stripping every deadline from the input.
#include "sched/policy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

namespace pcap::sched {

namespace {

/// Cap headroom granted over a node's predicted demand: enough that sensor
/// noise and phase peaks never engage the throttle ladder when the budget
/// can afford full speed.
constexpr double kDemandHeadroomW = 8.0;

struct Workspace {
  double effective_budget_w = 0.0;
  std::vector<std::size_t> available;  // indices into input.nodes
  /// Per-node predicted package demand: the sum of every resident lane's
  /// uncapped draw (a safe upper bound — co-runners share the uncore, so
  /// the true package draw is below the sum) plus headroom.
  std::vector<double> demand_w;
  // The queued job the scheduler's FIFO fill would start on each idle node
  // this round (lane-major order): class, size and deadline. Busy nodes
  // keep nullopt — their own fields describe the work.
  std::vector<std::optional<JobClass>> prospective;
  std::vector<double> prospective_chunks;
  std::vector<std::optional<double>> prospective_deadline;
};

/// Demand of the jobs a node is running, plus the queued jobs the
/// scheduler would place on its idle lanes this round (FIFO onto idle
/// lanes in lane-major order) — the same fill rule ClusterScheduler uses.
Workspace analyze(const PlanInput& input) {
  Workspace ws;
  ws.effective_budget_w = input.budget_w;
  ws.demand_w.assign(input.nodes.size(), 0.0);
  ws.prospective.assign(input.nodes.size(), std::nullopt);
  ws.prospective_chunks.assign(input.nodes.size(), 0.0);
  ws.prospective_deadline.assign(input.nodes.size(), std::nullopt);
  for (const NodeView& node : input.nodes) {
    if (!node.available) {
      ws.effective_budget_w -= node.applied_cap_w.value_or(input.min_cap_w);
      continue;
    }
    ws.available.push_back(node.index);
  }
  for (const std::size_t i : ws.available) {
    for (const LaneView& lane : input.nodes[i].lanes) {
      if (lane.busy) {
        ws.demand_w[i] += input.model->predict_uncapped_w(lane.cls);
      }
    }
  }
  std::size_t next_queued = 0;
  const std::size_t lanes = std::max<std::size_t>(1, input.lanes_per_node);
  for (std::size_t l = 0; l < lanes && next_queued < input.queued.size();
       ++l) {
    for (const std::size_t i : ws.available) {
      if (next_queued >= input.queued.size()) break;
      const NodeView& node = input.nodes[i];
      if (l >= node.lanes.size() || node.lanes[l].busy) continue;
      const PlanInput::QueuedJob& job = input.queued[next_queued++];
      ws.demand_w[i] += input.model->predict_uncapped_w(job.cls);
      if (!node.busy && !ws.prospective[i]) {
        ws.prospective[i] = job.cls;
        ws.prospective_chunks[i] =
            static_cast<double>(std::max(1, job.chunks));
        ws.prospective_deadline[i] = job.deadline_s;
      }
    }
  }
  for (const std::size_t i : ws.available) {
    if (ws.demand_w[i] > 0.0) ws.demand_w[i] += kDemandHeadroomW;
  }
  return ws;
}

Plan floor_plan(const PlanInput& input) {
  Plan plan;
  plan.cap_w.assign(input.nodes.size(), input.min_cap_w);
  plan.admit.assign(input.nodes.size(), false);
  for (const NodeView& node : input.nodes) {
    plan.admit[node.index] = node.available;
  }
  return plan;
}

/// Splits `surplus` evenly over `targets`, respecting max_cap_w. Returns
/// the watts actually spent.
double spread_evenly(Plan& plan, const PlanInput& input,
                     const std::vector<std::size_t>& targets, double surplus) {
  double spent = 0.0;
  if (targets.empty() || surplus <= 0.0) return spent;
  const double share = surplus / static_cast<double>(targets.size());
  for (const std::size_t i : targets) {
    const double grant =
        std::min(share, input.max_cap_w - plan.cap_w[i]);
    if (grant <= 0.0) continue;
    plan.cap_w[i] += grant;
    spent += grant;
  }
  return spent;
}

double floor_total(const PlanInput& input, const Workspace& ws) {
  return input.min_cap_w * static_cast<double>(ws.available.size());
}

/// The uniform baseline as a free function so other policies can
/// degenerate to it exactly (deadline policy on a deadline-free stream).
Plan uniform_plan(const PlanInput& input) {
  const Workspace ws = analyze(input);
  Plan p = floor_plan(input);
  spread_evenly(p, input, ws.available,
                ws.effective_budget_w - floor_total(input, ws));
  return p;
}

/// Per-node remaining-work estimate shared by the curve-driven policies:
/// predicted uncapped seconds, the class curve converting a cap into a
/// slowdown, and the earliest deadline of the work the node would carry.
struct NodeEstimate {
  std::vector<double> work_s;
  std::vector<const ClassCurve*> curve;
  std::vector<std::optional<double>> deadline_s;
};

NodeEstimate estimate(const PlanInput& input, const Workspace& ws) {
  NodeEstimate est;
  est.work_s.assign(input.nodes.size(), 0.0);
  est.curve.assign(input.nodes.size(), nullptr);
  est.deadline_s.assign(input.nodes.size(), std::nullopt);
  for (const std::size_t i : ws.available) {
    const NodeView& node = input.nodes[i];
    std::optional<JobClass> cls;
    double chunks = 0.0;
    if (node.busy) {
      cls = node.cls;
      chunks = static_cast<double>(node.remaining_chunks);
      est.deadline_s[i] = node.deadline_s;
    } else if (ws.prospective[i]) {
      cls = *ws.prospective[i];
      chunks = ws.prospective_chunks[i];
      est.deadline_s[i] = ws.prospective_deadline[i];
    }
    if (!cls) continue;
    const ClassCurve* c =
        input.table != nullptr ? input.table->curve(*cls) : nullptr;
    est.curve[i] = c;
    const double chunk_s = c != nullptr && c->baseline_time_s > 0.0
                               ? c->baseline_time_s
                               : 1.0;
    est.work_s[i] = std::max(chunks, 1.0) * chunk_s;
  }
  return est;
}

/// Min-max watt-filling in kStepW increments: repeatedly fund the node
/// with the highest `priority` that can still improve. N is rack-sized and
/// budgets are O(kW), so the loop is cheap. `priority(i)` must be a strict
/// function of the current plan (it is re-evaluated as caps move).
constexpr double kStepW = 1.0;

template <typename Priority>
void min_max_fill(Plan& p, const PlanInput& input, const Workspace& ws,
                  const NodeEstimate& est, double& surplus,
                  Priority priority) {
  auto can_improve = [&](std::size_t i) {
    if (est.curve[i] == nullptr || est.work_s[i] <= 0.0) return false;
    const double limit = std::min(input.max_cap_w, ws.demand_w[i]);
    if (p.cap_w[i] + kStepW > limit) return false;
    return est.curve[i]->slowdown_at(p.cap_w[i]) -
               est.curve[i]->slowdown_at(p.cap_w[i] + kStepW) >
           0.0;
  };
  std::vector<std::size_t> candidates;
  for (const std::size_t i : ws.available) {
    if (can_improve(i)) candidates.push_back(i);
  }
  while (surplus >= kStepW && !candidates.empty()) {
    std::size_t best = candidates.front();
    for (const std::size_t i : candidates) {
      if (priority(i) > priority(best)) best = i;
    }
    p.cap_w[best] += kStepW;
    surplus -= kStepW;
    if (!can_improve(best)) {
      candidates.erase(
          std::find(candidates.begin(), candidates.end(), best));
    }
  }
}

/// The idle, admitting lanes the scheduler's default FIFO fill would use
/// this round, in lane-major order: (flat lane id, node index) pairs.
struct IdleLane {
  int flat = 0;
  std::size_t node = 0;
  std::size_t lane = 0;
};

std::vector<IdleLane> idle_lanes(const PlanInput& input, const Plan& p) {
  std::vector<IdleLane> lanes;
  const std::size_t per_node = std::max<std::size_t>(1, input.lanes_per_node);
  for (std::size_t l = 0; l < per_node; ++l) {
    for (const NodeView& node : input.nodes) {
      if (!node.available || !p.admit[node.index]) continue;
      if (l >= node.lanes.size() || node.lanes[l].busy) continue;
      lanes.push_back(IdleLane{
          static_cast<int>(node.index * per_node + l), node.index, l});
    }
  }
  return lanes;
}

// --- uniform --------------------------------------------------------------

/// The baseline every DCM offers out of the box: the group budget split
/// evenly across reachable nodes, blind to what anyone is running.
class UniformCapPolicy final : public Policy {
 public:
  std::string name() const override { return "uniform"; }

  Plan plan(const PlanInput& input) override { return uniform_plan(input); }
};

// --- greedy power-first ---------------------------------------------------

/// Serves measured demand, hungriest node first: each node asks for its
/// predicted draw plus headroom; whatever remains is spread evenly. Good
/// when the budget roughly covers total demand, degrades to uniform-like
/// arbitrary squeezing below that (it knows watts, not slowdowns).
class GreedyPowerFirstPolicy final : public Policy {
 public:
  std::string name() const override { return "greedy"; }

  Plan plan(const PlanInput& input) override {
    const Workspace ws = analyze(input);
    Plan p = floor_plan(input);
    double surplus = ws.effective_budget_w - floor_total(input, ws);

    std::vector<std::size_t> order = ws.available;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ws.demand_w[a] > ws.demand_w[b];
                     });
    for (const std::size_t i : order) {
      if (surplus <= 0.0) break;
      const double want = std::max(0.0, ws.demand_w[i] - p.cap_w[i]);
      const double grant =
          std::min({want, surplus, input.max_cap_w - p.cap_w[i]});
      p.cap_w[i] += grant;
      surplus -= grant;
    }
    spread_evenly(p, input, ws.available, surplus);
    return p;
  }
};

// --- amenability-model-driven ---------------------------------------------

/// Minimises the predicted makespan by watt-filling on the measured
/// slowdown-vs-cap curves: every candidate watt goes to the node whose
/// predicted completion (remaining baseline work x slowdown at its current
/// cap) is furthest out. Cap-sensitive jobs (steep below the ~135 W knee)
/// dominate the completion estimate at deep caps, so they are pulled above
/// their knee first, while cap-tolerant streaming jobs — whose curves stay
/// flat — are left to absorb the deep caps: the paper's §V scheduling
/// story, executed. (A plain "best marginal gain x remaining work" greedy
/// is tempting but wrong for makespan: it starves short low-weight jobs at
/// the floor, far below the knee, and any job left there defines the
/// makespan.)
class AmenabilityPolicy final : public Policy {
 public:
  std::string name() const override { return "amenability"; }

  Plan plan(const PlanInput& input) override {
    const Workspace ws = analyze(input);
    Plan p = floor_plan(input);
    double surplus = ws.effective_budget_w - floor_total(input, ws);
    const NodeEstimate est = estimate(input, ws);
    auto completion_s = [&](std::size_t i) {
      return est.work_s[i] * (est.curve[i] != nullptr
                                  ? est.curve[i]->slowdown_at(p.cap_w[i])
                                  : 1.0);
    };
    min_max_fill(p, input, ws, est, surplus, completion_s);
    spread_evenly(p, input, ws.available, surplus);
    return p;
  }
};

// --- race-to-idle / consolidation -----------------------------------------

/// Concentrates the budget on as few nodes as possible running at full
/// speed; the rest are parked at the floor and closed to new work. Running
/// a node deep under its knee wastes energy, so consolidation competes
/// well on makespan and energy — but parked nodes defer queued jobs, and
/// the sweep quantifies the turnaround cost (the paper's §II-B platform
/// keeps even parked nodes idling at ~100 W, so the energy win is smaller
/// than the cap arithmetic alone would suggest).
class RaceToIdlePolicy final : public Policy {
 public:
  std::string name() const override { return "race-to-idle"; }

  Plan plan(const PlanInput& input) override {
    const Workspace ws = analyze(input);
    Plan p = floor_plan(input);
    double surplus = ws.effective_budget_w - floor_total(input, ws);

    // Busy nodes must keep running: fund them first, index order.
    std::vector<std::size_t> funded;
    for (const std::size_t i : ws.available) {
      if (!input.nodes[i].busy) continue;
      const double want = std::max(0.0, ws.demand_w[i] - p.cap_w[i]);
      const double grant =
          std::min({want, surplus, input.max_cap_w - p.cap_w[i]});
      p.cap_w[i] += grant;
      surplus -= grant;
      funded.push_back(i);
    }
    // Then open idle nodes one at a time, but only when the remaining
    // surplus covers the next queued job at full speed.
    for (const std::size_t i : ws.available) {
      const NodeView& node = input.nodes[i];
      if (node.busy) continue;
      const double want = std::max(0.0, ws.demand_w[i] - p.cap_w[i]);
      if (!ws.prospective[i] || want > surplus + 1e-9) {
        p.admit[i] = false;  // parked
        continue;
      }
      const double grant = std::min(want, input.max_cap_w - p.cap_w[i]);
      p.cap_w[i] += grant;
      surplus -= grant;
      funded.push_back(i);
    }
    // Leftover watts accelerate nothing here — spend them on the active
    // set so a generous budget reproduces the baseline schedule exactly.
    std::sort(funded.begin(), funded.end());
    spread_evenly(p, input, funded.empty() ? ws.available : funded, surplus);
    return p;
  }
};

// --- deadline-aware (EDF when it matters) ---------------------------------

/// The one policy that consumes deadline_s. Watts go first to nodes whose
/// predicted completion overruns their deadline (largest overrun first),
/// then min-max on completion like amenability; the ready queue is
/// re-ordered earliest-deadline-first — but only when the plan predicts a
/// miss under the default FIFO fill. On a deadline-free stream the plan is
/// the uniform baseline exactly, and at a generous budget nothing is
/// predicted to miss, so the policy degenerates to the shared baseline
/// schedule (tests/test_cosched.cpp pins both).
class DeadlineEdfPolicy final : public Policy {
 public:
  std::string name() const override { return "deadline"; }
  bool consumes_deadlines() const override { return true; }

  Plan plan(const PlanInput& input) override {
    if (!any_deadline(input)) return uniform_plan(input);
    const Workspace ws = analyze(input);
    Plan p = floor_plan(input);
    double surplus = ws.effective_budget_w - floor_total(input, ws);
    const NodeEstimate est = estimate(input, ws);
    auto completion_s = [&](std::size_t i) {
      return est.work_s[i] * (est.curve[i] != nullptr
                                  ? est.curve[i]->slowdown_at(p.cap_w[i])
                                  : 1.0);
    };
    // Two-tier urgency: a predicted miss dominates any completion time;
    // among misses, fund the deepest overrun. Ties and the no-miss regime
    // reduce to amenability's min-max completion fill.
    constexpr double kMissTier = 1e12;
    auto urgency = [&](std::size_t i) {
      const double completion = completion_s(i);
      if (est.deadline_s[i]) {
        const double overrun =
            input.now_s + completion - *est.deadline_s[i];
        if (overrun > 0.0) return kMissTier + overrun;
      }
      return completion;
    };
    min_max_fill(p, input, ws, est, surplus, urgency);
    spread_evenly(p, input, ws.available, surplus);
    edf_placement_if_miss(p, input);
    return p;
  }

 private:
  static bool any_deadline(const PlanInput& input) {
    for (const NodeView& node : input.nodes) {
      if (node.deadline_s) return true;
      for (const LaneView& lane : node.lanes) {
        if (lane.deadline_s) return true;
      }
    }
    for (const PlanInput::QueuedJob& job : input.queued) {
      if (job.deadline_s) return true;
    }
    return false;
  }

  /// Predicts each queued job's finish under the default FIFO fill at the
  /// planned caps (waiting jobs optimistically start now at max cap — an
  /// underestimate, so EDF only engages on certain misses). When a miss is
  /// predicted and EDF actually reorders, emit the permutation.
  void edf_placement_if_miss(Plan& p, const PlanInput& input) const {
    if (input.queued.empty()) return;
    const std::vector<IdleLane> lanes = idle_lanes(input, p);
    bool miss = false;
    for (std::size_t q = 0; q < input.queued.size(); ++q) {
      const PlanInput::QueuedJob& job = input.queued[q];
      if (!job.deadline_s) continue;
      const double cap_w =
          q < lanes.size() ? p.cap_w[lanes[q].node] : input.max_cap_w;
      const ClassCurve* curve =
          input.table != nullptr ? input.table->curve(job.cls) : nullptr;
      const double chunk_s = curve != nullptr && curve->baseline_time_s > 0.0
                                 ? curve->baseline_time_s
                                 : 1.0;
      const double slowdown =
          curve != nullptr ? curve->slowdown_at(cap_w) : 1.0;
      const double finish_s =
          input.now_s +
          static_cast<double>(std::max(1, job.chunks)) * chunk_s * slowdown;
      if (finish_s > *job.deadline_s) {
        miss = true;
        break;
      }
    }
    if (!miss) return;
    std::vector<std::size_t> order(input.queued.size());
    std::iota(order.begin(), order.end(), 0);
    constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return input.queued[a].deadline_s.value_or(kNoDeadline) <
                              input.queued[b].deadline_s.value_or(kNoDeadline);
                     });
    bool reordered = false;
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (order[k] != k) reordered = true;
    }
    if (!reordered) return;
    p.placement.assign(input.queued.size(), Plan::kNoPlacement);
    for (std::size_t k = 0; k < order.size() && k < lanes.size(); ++k) {
      p.placement[order[k]] = lanes[k].flat;
    }
  }
};

// --- contention-aware co-scheduling ---------------------------------------

/// Learns, online, how job classes hurt each other when co-resident and
/// places queued jobs to avoid the expensive pairings. The penalty matrix
/// P[cls][co] starts at 1.0 (no prior: every pairing assumed free) and is
/// updated from CoRunObservations — the measured co-run elapsed over the
/// table-predicted solo elapsed at the same cap, exponentially weighted.
/// Slowdown is never assumed: the samples come from the emergent
/// shared-hierarchy co-run simulation, the matrix only remembers them.
/// Caps use the amenability fill (the matrix informs WHERE jobs go, the
/// curves inform how watts split). With one lane per node co-residency
/// never occurs, every pairing cost is zero and placement reduces to FIFO,
/// so the policy degenerates to amenability exactly.
class ContentionAwarePolicy final : public Policy {
 public:
  ContentionAwarePolicy() {
    for (auto& row : penalty_) row.fill(1.0);
  }

  std::string name() const override { return "contention"; }

  void observe_corun(const CoRunObservation& obs) override {
    if (obs.co_resident.empty() || obs.predicted_solo_s <= 0.0 ||
        obs.elapsed_s <= 0.0) {
      return;
    }
    // Co-residency never speeds a chunk up in this model, so a ratio
    // below 1.0 is table-interpolation noise in the solo prediction, not
    // a real discount; clamping keeps an interference-free rack's matrix
    // flat (and its placement FIFO) instead of learning phantom affinity.
    const double sample = std::max(1.0, obs.elapsed_s / obs.predicted_solo_s);
    for (const JobClass co : obs.co_resident) {
      double& cell = penalty_[index(obs.cls)][index(co)];
      cell += kAlpha * (sample - cell);
    }
  }

  Plan plan(const PlanInput& input) override {
    const Workspace ws = analyze(input);
    Plan p = floor_plan(input);
    double surplus = ws.effective_budget_w - floor_total(input, ws);
    const NodeEstimate est = estimate(input, ws);
    auto completion_s = [&](std::size_t i) {
      return est.work_s[i] * (est.curve[i] != nullptr
                                  ? est.curve[i]->slowdown_at(p.cap_w[i])
                                  : 1.0);
    };
    min_max_fill(p, input, ws, est, surplus, completion_s);
    spread_evenly(p, input, ws.available, surplus);
    place(p, input);
    return p;
  }

 private:
  static std::size_t index(JobClass cls) {
    return static_cast<std::size_t>(cls);
  }

  /// Symmetrised marginal cost of adding `cls` next to `residents`.
  double pairing_cost(JobClass cls,
                      const std::vector<JobClass>& residents) const {
    double cost = 0.0;
    for (const JobClass r : residents) {
      cost += (penalty_[index(cls)][index(r)] - 1.0) +
              (penalty_[index(r)][index(cls)] - 1.0);
    }
    return cost;
  }

  /// Greedy assignment, FIFO over the queue: each job takes the first idle
  /// lane (lane-major order) whose pairing cost is within kIndifference of
  /// the cheapest remaining lane. The threshold keeps the policy from
  /// churning placements on noise, and makes an unlearned matrix (all
  /// costs zero) reproduce the default FIFO fill exactly.
  void place(Plan& p, const PlanInput& input) const {
    if (input.lanes_per_node <= 1 || input.queued.empty()) return;
    const std::vector<IdleLane> lanes = idle_lanes(input, p);
    if (lanes.empty()) return;
    std::vector<std::vector<JobClass>> residents(input.nodes.size());
    for (const NodeView& node : input.nodes) {
      for (const LaneView& lane : node.lanes) {
        if (lane.busy) residents[node.index].push_back(lane.cls);
      }
    }
    std::vector<bool> taken(lanes.size(), false);
    std::vector<int> placement(input.queued.size(), Plan::kNoPlacement);
    bool deviates = false;
    for (std::size_t q = 0; q < input.queued.size(); ++q) {
      const JobClass cls = input.queued[q].cls;
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < lanes.size(); ++j) {
        if (taken[j]) continue;
        best_cost = std::min(
            best_cost, pairing_cost(cls, residents[lanes[j].node]));
      }
      std::size_t chosen = lanes.size();
      std::size_t first_free = lanes.size();
      for (std::size_t j = 0; j < lanes.size(); ++j) {
        if (taken[j]) continue;
        if (first_free == lanes.size()) first_free = j;
        if (pairing_cost(cls, residents[lanes[j].node]) <=
            best_cost + kIndifference) {
          chosen = j;
          break;
        }
      }
      if (chosen == lanes.size()) break;  // no idle lane left
      taken[chosen] = true;
      placement[q] = lanes[chosen].flat;
      residents[lanes[chosen].node].push_back(cls);
      if (chosen != first_free) deviates = true;
    }
    // A pure FIFO outcome is left implicit so the schedule stays
    // bit-identical to the lane-blind policies when the matrix is flat.
    if (deviates) p.placement = std::move(placement);
  }

  static constexpr double kAlpha = 0.2;
  static constexpr double kIndifference = 0.02;
  std::array<std::array<double, kJobClassCount>, kJobClassCount> penalty_{};
};

}  // namespace

std::unique_ptr<Policy> make_policy(const std::string& name) {
  if (name == "uniform") return std::make_unique<UniformCapPolicy>();
  if (name == "greedy") return std::make_unique<GreedyPowerFirstPolicy>();
  if (name == "amenability") return std::make_unique<AmenabilityPolicy>();
  if (name == "race-to-idle") return std::make_unique<RaceToIdlePolicy>();
  if (name == "deadline") return std::make_unique<DeadlineEdfPolicy>();
  if (name == "contention") return std::make_unique<ContentionAwarePolicy>();
  return nullptr;
}

std::vector<std::string> policy_names() {
  return {"uniform",      "greedy",   "amenability",
          "race-to-idle", "deadline", "contention"};
}

}  // namespace pcap::sched
