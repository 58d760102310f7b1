// Fleet budget over time: time-of-day / demand-response budget schedules
// (DESIGN.md §14). The division a parent applies to its children is
// core::divide_budget (core/budget.hpp).
#pragma once

#include <vector>

namespace pcap::fleet {

/// Step schedule for the fleet budget: ordered phases (optionally periodic,
/// modeling time-of-day), overlaid with absolute-time demand-response
/// events that override the schedule while active. Lookup is pure —
/// `at(t)` has no state — so every tick, jobs count, and memo knob sees
/// the identical budget trajectory.
class BudgetSchedule {
 public:
  BudgetSchedule() = default;
  explicit BudgetSchedule(double constant_w) : base_w_(constant_w) {}

  /// Phase starting at `start_s` within the period (or absolute time when
  /// no period is set). Phases must be appended in increasing start order.
  void add_phase(double start_s, double budget_w);

  /// Makes the phase table repeat every `period_s` (time-of-day shape).
  void set_period(double period_s) { period_s_ = period_s; }

  /// Demand-response override: budget forced to `budget_w` on absolute
  /// time [start_s, end_s). Later events win where they overlap.
  void add_event(double start_s, double end_s, double budget_w);

  double at(double t_s) const;

 private:
  struct Phase {
    double start_s;
    double budget_w;
  };
  struct Event {
    double start_s;
    double end_s;
    double budget_w;
  };
  double base_w_ = 0.0;  // used before the first phase starts
  double period_s_ = 0.0;
  std::vector<Phase> phases_;
  std::vector<Event> events_;
};

}  // namespace pcap::fleet
