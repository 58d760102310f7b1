#include "telemetry/sampler.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace pcap::telemetry {

Sampler::Sampler(const SamplerConfig& config, std::size_t capacity)
    : config_(config), ring_(capacity) {
  if (config_.period == 0) config_.period = 1;
  next_sample_ = config_.period;
}

void Sampler::record(const NodeSample& sample) {
  ring_.push(sample);
  // Skip boundaries the clock has already passed (long stalls between
  // ticks): one sample per record(), never a burst of stale duplicates.
  while (next_sample_ <= sample.time) next_sample_ += config_.period;
}

Aggregate Sampler::aggregate(const Selector& select,
                             std::size_t window) const {
  Aggregate agg;
  const std::size_t n = ring_.size();
  if (n == 0) return agg;
  const std::size_t count = (window == 0 || window > n) ? n : window;
  std::vector<double> values;
  values.reserve(count);
  double sum = 0.0;
  for (std::size_t i = n - count; i < n; ++i) {
    const double v = select(ring_.at(i));
    values.push_back(v);
    sum += v;
  }
  std::sort(values.begin(), values.end());
  agg.count = count;
  agg.min = values.front();
  agg.max = values.back();
  agg.mean = sum / static_cast<double>(count);
  // Linear-interpolated p95, matching util::percentile's convention.
  const double rank = 0.95 * static_cast<double>(count - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count - 1);
  const double frac = rank - static_cast<double>(lo);
  agg.p95 = values[lo] + (values[hi] - values[lo]) * frac;
  return agg;
}

void Sampler::write_csv(std::ostream& os) const {
  os << "time_s,watts,freq_mhz,pstate,duty,cap_w,ipc,l1_miss_rate,"
        "l2_miss_rate,l3_miss_rate,temp_c,throttle_level,health,"
        "throttle_reason,fan_rpm,cpu_temp_c,uncore_temp_c,dram_temp_c,"
        "cpu_w,uncore_w,memory_w\n";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const NodeSample& s = ring_.at(i);
    char buf[448];
    std::snprintf(buf, sizeof buf,
                  "%.9f,%.3f,%.1f,%u,%.4f,%.1f,%.4f,%.6f,%.6f,%.6f,%.2f,%u,"
                  "%d,%d,%.0f,%.2f,%.2f,%.2f,%.3f,%.3f,%.3f\n",
                  util::to_seconds(s.time), s.watts, s.frequency_mhz, s.pstate,
                  s.duty, s.cap_w, s.ipc, s.l1_miss_rate, s.l2_miss_rate,
                  s.l3_miss_rate, s.temperature_c, s.throttle_level, s.health,
                  s.throttle_reason, s.fan_rpm, s.cpu_temp_c, s.uncore_temp_c,
                  s.dram_temp_c, s.cpu_w, s.uncore_w, s.memory_w);
    os << buf;
  }
}

void Sampler::write_csv_file(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("Sampler: cannot open " + path);
  write_csv(out);
}

void Sampler::reset(util::Picoseconds now) {
  ring_.clear();
  next_sample_ = now + config_.period;
}

}  // namespace pcap::telemetry
