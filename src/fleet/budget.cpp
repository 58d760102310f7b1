#include "fleet/budget.hpp"

#include <cmath>

namespace pcap::fleet {

void BudgetSchedule::add_phase(double start_s, double budget_w) {
  phases_.push_back({start_s, budget_w});
}

void BudgetSchedule::add_event(double start_s, double end_s, double budget_w) {
  events_.push_back({start_s, end_s, budget_w});
}

double BudgetSchedule::at(double t_s) const {
  double budget = base_w_;
  double phase_t = t_s;
  if (period_s_ > 0.0 && !phases_.empty()) {
    phase_t = std::fmod(t_s, period_s_);
    if (phase_t < 0.0) phase_t += period_s_;
  }
  for (const Phase& p : phases_) {
    if (phase_t >= p.start_s) budget = p.budget_w;
  }
  // Demand-response events sit on absolute time and trump the schedule.
  for (const Event& e : events_) {
    if (t_s >= e.start_s && t_s < e.end_s) budget = e.budget_w;
  }
  return budget;
}

}  // namespace pcap::fleet
