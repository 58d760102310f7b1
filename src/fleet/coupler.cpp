#include "fleet/coupler.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::fleet {

void BudgetCoupler::add_child(ChildLink* link, double initial_granted_w) {
  Child c;
  c.link = link;
  c.granted_w = initial_granted_w;
  c.demand_w = initial_granted_w;
  children_.push_back(c);
}

void BudgetCoupler::note_exchange(Child& child, bool ok) {
  const core::HealthStep step =
      core::next_health(child.health, child.consecutive_failures, ok,
                        config_.degraded_after_failures,
                        config_.lost_after_failures);
  child.health = step.health;
  child.consecutive_failures = step.consecutive_failures;
}

double BudgetCoupler::committed_w() const {
  double sum = 0.0;
  for (const Child& c : children_) sum += c.granted_w;
  return sum;
}

double BudgetCoupler::reserved_w() const {
  double sum = 0.0;
  for (const Child& c : children_) {
    if (c.health == core::NodeHealth::kLost) sum += c.granted_w;
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
  round.converged = round.committed_w <= target_w + config_.tolerance_w;
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
  std::vector<std::size_t> reachable;
  reachable.reserve(children_.size());
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].health != core::NodeHealth::kLost) reachable.push_back(i);
  }
  const double available = target_w - reserved_w();

  std::vector<double> floors, wts, ceilings;
  floors.reserve(reachable.size());
  wts.reserve(reachable.size());
  ceilings.reserve(reachable.size());
  for (std::size_t i : reachable) {
    floors.push_back(children_[i].link->floor_w());
    wts.push_back(weights ? (*weights)[i] : children_[i].demand_w);
    ceilings.push_back(children_[i].link->ceiling_w());
  }

  const std::vector<double> division =
      divide_budget(available, floors, wts, ceilings, grid_w);
  if (division.empty() && !reachable.empty()) {
    // Infeasible: keep previous grants, apply nothing partially.
    return finish_round(target_w, false, false);
  }

  // Decreases first, in child order. A failed decrease is retried next
  // round (the child keeps enforcing its old grant meanwhile, so the
  // bookkeeping stays honest); any failure defers every increase.
  bool decreases_ok = true;
  for (std::size_t k = 0; k < reachable.size(); ++k) {
    Child& child = children_[reachable[k]];
    const double desired = division[k];
    if (desired >= child.granted_w - config_.push_epsilon_w) continue;
    ++pushes_;
    const std::optional<double> grant = child.link->push_budget(desired);
    note_exchange(child, grant.has_value());
    if (grant.has_value()) {
      child.granted_w = *grant;
      if (*grant > desired + config_.tolerance_w) decreases_ok = false;
    } else {
      ++push_failures_;
      decreases_ok = false;
    }
  }

  bool withheld = false;
  if (allow_increases) {
    for (std::size_t k = 0; k < reachable.size(); ++k) {
      Child& child = children_[reachable[k]];
      const double desired = division[k];
      if (desired <= child.granted_w + config_.push_epsilon_w) continue;
      if (!decreases_ok) {
        withheld = true;  // headroom not yet real: a decrease is pending
        continue;
      }
      ++pushes_;
      const std::optional<double> grant = child.link->push_budget(desired);
      note_exchange(child, grant.has_value());
      // Book the grant as-is: a child whose own subtree is mid-convergence
      // may guarantee more than asked, and understating that would break
      // the conservation bound.
      if (grant.has_value()) {
        child.granted_w = *grant;
      } else {
        ++push_failures_;
      }
    }
  }
  return finish_round(target_w, true, withheld);
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
