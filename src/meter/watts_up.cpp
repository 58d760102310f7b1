#include "meter/watts_up.hpp"

namespace pcap::meter {

WattsUp::WattsUp(util::Picoseconds sample_period, std::size_t max_log)
    : period_(sample_period ? sample_period : 1), max_log_(max_log) {}

void WattsUp::start_session(util::Picoseconds now) {
  integrator_.reset();
  samples_.clear();
  last_observe_ = now;
  next_sample_ = now + period_;
}

void WattsUp::observe(util::Picoseconds now, double watts) {
  if (now <= last_observe_) {
    last_observe_ = now;
    return;
  }
  integrator_.add(watts, now - last_observe_);
  last_observe_ = now;
  while (next_sample_ <= now) {
    samples_.push_back({next_sample_, watts});
    if (max_log_ != 0 && samples_.size() > max_log_) {
      samples_.erase(samples_.begin(),
                     samples_.begin() +
                         static_cast<std::ptrdiff_t>(samples_.size() - max_log_));
    }
    next_sample_ += period_;
  }
}

}  // namespace pcap::meter
