#include "predict/predictor.hpp"

namespace pcap::predict {

Predictor::Predictor(const PredictorConfig& config)
    : config_(config), planner_(config.planner) {}

void Predictor::bootstrap(const sched::AmenabilityTable& table) {
  learner_.bootstrap(table);
}

void Predictor::ensure_node(std::size_t node) {
  while (elapsed_.size() <= node) {
    elapsed_.emplace_back(config_.phase);
    watts_.emplace_back(config_.phase);
  }
}

void Predictor::on_chunk(std::size_t node, const sched::CoRunObservation& obs,
                         double avg_power_w) {
  if (!config_.enabled) return;
  ensure_node(node);
  // The phase series tracks cap-normalised work, not raw elapsed: a chunk's
  // wall time is divided by the learned slowdown at the cap it ran under.
  // Raw elapsed confounds two signals — the workload's phase structure and
  // the planner's own cap moves — and once the proactive planner starts
  // shifting watts, a boosted heavy chunk can clock in faster than a
  // donated light one, collapsing the very periodicity being exploited.
  // In work units every chunk of a class lands near its baseline time
  // regardless of cap, so the series stays periodic under feedback. With
  // no learned curve the slowdown is 1.0 and this is the raw series.
  const double cap = obs.cap_w.value_or(0.0);
  double slowdown = 1.0;
  if (cap > 0.0) {
    slowdown = obs.co_resident.empty()
                   ? learner_.slowdown_at(obs.cls, cap)
                   : learner_.pair_slowdown_at(obs.cls, obs.co_resident.front(),
                                               cap);
    if (slowdown < 1.0) slowdown = 1.0;
  }
  elapsed_[node].observe(obs.elapsed_s / slowdown);
  watts_[node].observe(avg_power_w);
  if (config_.learn_online) learner_.observe(obs, avg_power_w);
  ++stats_.chunks_observed;
}

void Predictor::forecasts(double /*now_s*/, std::size_t nodes,
                          std::vector<sched::NodeForecast>* out) {
  out->clear();
  if (!config_.enabled) return;  // empty == detached, bit-identical
  out->resize(nodes);
  ++stats_.forecast_rounds;
  for (std::size_t i = 0; i < nodes && i < elapsed_.size(); ++i) {
    const PhaseForecast& elapsed = elapsed_[i].forecast();
    const PhaseForecast& watts = watts_[i].forecast();
    sched::NodeForecast& f = (*out)[i];
    f.valid = elapsed.periodic;
    f.confidence = elapsed.confidence;
    f.period_steps = static_cast<double>(elapsed.period);
    f.next_elapsed_s = elapsed.periodic ? elapsed.next_value
                                        : elapsed.current_value;
    f.next_power_w = watts.periodic ? watts.next_value : watts.current_value;
    f.typical_elapsed_s = elapsed.window_mean;
    f.boundary_ahead = elapsed.periodic && elapsed.boundary_in > 0;
  }
}

void Predictor::adjust_plan(const sched::PlanInput& input,
                            sched::Plan* plan) {
  if (!config_.enabled || !config_.proactive) return;
  if (planner_.adjust(input, input.forecasts, plan)) {
    ++stats_.proactive_adjustments;
  } else {
    ++stats_.reactive_fallbacks;
  }
}

const sched::AmenabilityTable* Predictor::learned_table() const {
  if (!config_.enabled || !config_.learn_online) return nullptr;
  return learner_.table().size() > 0 ? &learner_.table() : nullptr;
}

}  // namespace pcap::predict
