// The budget coupler: one level of the fleet tree. A parent holds a
// BudgetCoupler over its children (nodes for a rack, racks for the
// datacenter, groups for deeper trees) and runs one control round per
// tick: poll every child for health and demand, divide the target with
// core::divide_budget, and push it with core::push_decreases_first —
// decreases first, every increase withheld until all decreases landed
// (DESIGN.md §14).
//
// Grant semantics make the tree compositional: a push returns the budget
// the child actually *guarantees* right now. For an increase the grant is
// the target (headroom is adopted immediately); for a decrease the child
// grants max(target, its current commitments) and converges over its own
// rounds, so the parent keeps pushing the same target until the grant
// matches. The parent's committed power — sum of grants plus reservations
// for unreachable children — is therefore an upper bound on what the
// subtree can draw, and the conservation invariant
//     committed <= enforced, with enforced == target once converged
// holds at every level at every tick, even mid-partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/budget.hpp"
#include "core/dcm.hpp"

namespace pcap::fleet {

/// One downstream child of a budget-tree level. Implementations wrap an
/// `ipmi::Transport` exchange (BudgetClient for aggregate children, the
/// rack's ManagedNode adapter for leaf nodes), so every hop inherits
/// FaultyTransport's drop/dup/corrupt/partition behavior.
class ChildLink {
 public:
  virtual ~ChildLink() = default;

  /// Pushes a budget target; returns the child's grant (see above) or
  /// nullopt when the exchange failed after retries.
  virtual std::optional<double> push_budget(double watts) = 0;

  /// Reachability probe + demand fetch: the child's current draw estimate
  /// in watts, or nullopt when unreachable.
  virtual std::optional<double> poll_demand() = 0;

  virtual double floor_w() const = 0;
  virtual double ceiling_w() const = 0;
};

/// Per-round accounting at one tree level.
struct CouplerRound {
  double target_w = 0.0;
  double enforced_w = 0.0;   // max(target, committed): budget guaranteed now
  double committed_w = 0.0;  // sum of child grants (lost children included)
  double reserved_w = 0.0;   // grants held for lost children
  bool feasible = true;      // division fit above the floor sum
  bool converged = true;     // committed <= target (+tolerance)
  bool increases_withheld = false;  // a decrease failed, increases deferred
  std::size_t lost_children = 0;
};

class BudgetCoupler {
 public:
  /// `initial_granted_w` is the budget the child enforces before any push
  /// lands — its boot state (a node boots capped at its floor).
  void add_child(ChildLink* link, double initial_granted_w);

  /// One full control round: poll, divide, push (decreases first,
  /// increases withheld until every decrease landed). `weights` overrides
  /// the division weights (nullptr → last polled demand); `grid_w`
  /// quantizes child budgets (0 → wire grid).
  CouplerRound run_round(double target_w,
                         const std::vector<double>* weights = nullptr,
                         double grid_w = 0.0);

  /// Push-only decrease round, no polls and no increases: used by a child
  /// level to converge synchronously inside a SetRackBudget handler while
  /// the parent's exchange is still in flight.
  CouplerRound converge_down(double target_w,
                             const std::vector<double>* weights = nullptr,
                             double grid_w = 0.0);

  double committed_w() const;
  double reserved_w() const;
  std::size_t size() const { return children_.size(); }
  std::size_t lost_children() const;
  /// Child link health: the DCM's node-health FSM (core::next_health).
  core::NodeHealth health(std::size_t i) const { return children_[i].health; }
  double granted_w(std::size_t i) const { return granted_[i]; }
  double demand_w(std::size_t i) const { return children_[i].demand_w; }
  const CouplerRound& last_round() const { return last_round_; }

  // Exchange accounting, for chaos studies and the management-cost story.
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t push_failures() const { return push_failures_; }
  std::uint64_t withheld_rounds() const { return withheld_rounds_; }
  std::uint64_t infeasible_rounds() const { return infeasible_rounds_; }

 private:
  struct Child {
    ChildLink* link = nullptr;
    double demand_w = 0.0;   // last successful poll
    core::NodeHealth health = core::NodeHealth::kHealthy;
    std::uint32_t consecutive_failures = 0;
  };

  void note_exchange(Child& child, bool ok);
  CouplerRound push_round(double target_w, const std::vector<double>* weights,
                          double grid_w, bool allow_increases);
  CouplerRound finish_round(double target_w, bool feasible,
                            bool increases_withheld);

  std::vector<Child> children_;
  std::vector<double> granted_;  // last acked grant per child: what it enforces
  // Per-round scratch (reachable children's division inputs and result,
  // then every child's push target), reused across rounds.
  std::vector<double> floors_, weights_, ceilings_, division_, targets_;
  CouplerRound last_round_;
  std::uint64_t pushes_ = 0;
  std::uint64_t push_failures_ = 0;
  std::uint64_t withheld_rounds_ = 0;
  std::uint64_t infeasible_rounds_ = 0;
};

}  // namespace pcap::fleet
