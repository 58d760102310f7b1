#include "fleet/coupler.hpp"

#include <algorithm>

namespace pcap::fleet {

namespace {

constexpr double kPushEpsilonW = 0.05;  // skip pushes smaller than this
constexpr double kToleranceW = 1e-3;    // conservation comparisons

}  // namespace

void BudgetCoupler::add_child(ChildLink* link, double initial_granted_w) {
  Child c;
  c.link = link;
  c.demand_w = initial_granted_w;
  children_.push_back(c);
  granted_.push_back(initial_granted_w);
}

void BudgetCoupler::note_exchange(Child& child, bool ok) {
  const core::HealthStep step =
      core::next_health(child.health, child.consecutive_failures, ok);
  child.health = step.health;
  child.consecutive_failures = step.consecutive_failures;
}

double BudgetCoupler::committed_w() const {
  double sum = 0.0;
  for (double g : granted_) sum += g;
  return sum;
}

double BudgetCoupler::reserved_w() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].health == core::NodeHealth::kLost) sum += granted_[i];
  }
  return sum;
}

std::size_t BudgetCoupler::lost_children() const {
  std::size_t n = 0;
  for (const Child& c : children_) {
    if (c.health == core::NodeHealth::kLost) ++n;
  }
  return n;
}

CouplerRound BudgetCoupler::finish_round(double target_w, bool feasible,
                                         bool increases_withheld) {
  CouplerRound round;
  round.target_w = target_w;
  round.committed_w = committed_w();
  round.reserved_w = reserved_w();
  round.lost_children = lost_children();
  round.feasible = feasible;
  round.increases_withheld = increases_withheld;
  // Enforced snaps up to the target immediately (adopting headroom is
  // always safe) but comes down only as far as the children actually
  // converged — exactly the grant this level reports to its own parent.
  round.enforced_w = std::max(target_w, round.committed_w);
  round.converged = round.committed_w <= target_w + kToleranceW;
  if (!feasible) ++infeasible_rounds_;
  if (increases_withheld) ++withheld_rounds_;
  last_round_ = round;
  return round;
}

CouplerRound BudgetCoupler::push_round(double target_w,
                                       const std::vector<double>* weights,
                                       double grid_w, bool allow_increases) {
  // Reachable children share target minus what lost children may still be
  // enforcing (their last grant stays reserved until they are heard from).
  // The scratch buffers are members so a steady-state round allocates
  // nothing.
  const std::size_t n = children_.size();
  const double available = target_w - reserved_w();
  floors_.clear();
  weights_.clear();
  ceilings_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (children_[i].health == core::NodeHealth::kLost) continue;
    floors_.push_back(children_[i].link->floor_w());
    weights_.push_back(weights ? (*weights)[i] : children_[i].demand_w);
    ceilings_.push_back(children_[i].link->ceiling_w());
  }

  if (!core::divide_budget(available, floors_, weights_, ceilings_, grid_w,
                           division_)) {
    // Infeasible: keep previous grants, apply nothing partially.
    return finish_round(target_w, false, false);
  }

  // A lost child's target is its grant (nothing to push); a push-only
  // round caps every target at the grant, so no increase is ever issued.
  targets_.assign(granted_.begin(), granted_.end());
  for (std::size_t i = 0, k = 0; i < n; ++i) {
    if (children_[i].health == core::NodeHealth::kLost) continue;
    const double desired = division_[k++];
    targets_[i] = allow_increases ? desired : std::min(desired, granted_[i]);
  }
  const core::PushOutcome outcome = core::push_decreases_first(
      targets_, granted_, kPushEpsilonW, kToleranceW,
      [this](std::size_t i, double watts) {
        Child& child = children_[i];
        const std::optional<double> grant = child.link->push_budget(watts);
        note_exchange(child, grant.has_value());
        return grant;
      });
  pushes_ += outcome.pushes;
  push_failures_ += outcome.failures;
  return finish_round(target_w, true, outcome.increases_withheld);
}

CouplerRound BudgetCoupler::run_round(double target_w,
                                      const std::vector<double>* weights,
                                      double grid_w) {
  for (Child& child : children_) {
    const std::optional<double> demand = child.link->poll_demand();
    note_exchange(child, demand.has_value());
    if (demand.has_value()) child.demand_w = std::max(*demand, 0.0);
  }
  return push_round(target_w, weights, grid_w, /*allow_increases=*/true);
}

CouplerRound BudgetCoupler::converge_down(double target_w,
                                          const std::vector<double>* weights,
                                          double grid_w) {
  return push_round(target_w, weights, grid_w, /*allow_increases=*/false);
}

}  // namespace pcap::fleet
