#include "telemetry/probe.hpp"

namespace pcap::telemetry {

namespace {

double rate(std::uint64_t miss_now, std::uint64_t miss_then,
            std::uint64_t acc_now, std::uint64_t acc_then) {
  const std::uint64_t d_acc = acc_now - acc_then;
  if (d_acc == 0) return 0.0;
  return static_cast<double>(miss_now - miss_then) /
         static_cast<double>(d_acc);
}

}  // namespace

NodeProbe::NodeProbe(const TelemetryConfig& config, TraceWriter* trace,
                     const std::string& name)
    : config_(config),
      trace_(trace),
      name_(name),
      sampler_({config.sample_period}, config.ring_capacity) {
  if (trace_ != nullptr) track_ = trace_->track(name_);
}

void NodeProbe::take_sample(const ProbeInput& in) {
  NodeSample s;
  s.time = in.now;
  s.watts = in.watts;
  s.frequency_mhz = in.frequency_mhz;
  s.pstate = in.pstate;
  s.duty = in.duty;
  s.cap_w = cap_w_;
  s.temperature_c = in.temperature_c;
  s.throttle_level = throttle_level_;
  s.health = health_;
  s.throttle_reason = throttle_reason_;
  s.fan_rpm = in.fan_rpm;
  s.cpu_temp_c = in.cpu_temp_c;
  s.uncore_temp_c = in.uncore_temp_c;
  s.dram_temp_c = in.dram_temp_c;
  s.cpu_w = in.cpu_w;
  s.uncore_w = in.uncore_w;
  s.memory_w = in.memory_w;
  if (has_last_) {
    const std::uint64_t d_cyc = in.tot_cyc - last_.tot_cyc;
    if (d_cyc != 0) {
      s.ipc = static_cast<double>(in.tot_ins - last_.tot_ins) /
              static_cast<double>(d_cyc);
    }
    s.l1_miss_rate = rate(in.l1_miss, last_.l1_miss, in.l1_acc, last_.l1_acc);
    s.l2_miss_rate = rate(in.l2_miss, last_.l2_miss, in.l2_acc, last_.l2_acc);
    s.l3_miss_rate = rate(in.l3_miss, last_.l3_miss, in.l3_acc, last_.l3_acc);
  }
  last_ = in;
  has_last_ = true;
  sampler_.record(s);

  if (trace_ != nullptr) {
    const double ts = TraceWriter::sim_us(in.now);
    trace_->counter(track_, name_ + ".watts", ts, in.watts);
    trace_->counter(track_, name_ + ".freq_mhz", ts, in.frequency_mhz);
  }
}

void NodeProbe::reset(util::Picoseconds now) {
  sampler_.reset(now);
  has_last_ = false;
  cap_w_ = 0.0;
  throttle_level_ = 0;
  health_ = 0;
  throttle_reason_ = 0;
}

}  // namespace pcap::telemetry
