// Named counters and gauges with cheap integer handles.
//
// Hot-path discipline: names are resolved to handles once, at registration
// time; every subsequent add()/set() is an array index guarded by a single
// branch on `enabled_` — no map lookups, no allocation, no formatting. With
// PCAP_TELEMETRY compiled out (cmake -DPCAP_TELEMETRY=OFF) the mutating
// calls fold to nothing via `kCompiledIn`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pcap::telemetry {

#ifdef PCAP_NO_TELEMETRY
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

struct CounterHandle {
  std::uint32_t index = 0;
};
struct GaugeHandle {
  std::uint32_t index = 0;
};

class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}

  /// Runtime switch: a disabled registry accepts add()/set() as no-ops.
  void set_enabled(bool enabled) { enabled_ = enabled && kCompiledIn; }
  bool enabled() const { return enabled_; }

  /// Registers (or re-finds) a monotonically increasing counter. Name
  /// resolution is linear — registration happens at setup, not on the hot
  /// path.
  CounterHandle counter(const std::string& name);
  /// Registers (or re-finds) a last-value-wins gauge.
  GaugeHandle gauge(const std::string& name);

  void add(CounterHandle h, std::uint64_t n = 1) {
    if constexpr (!kCompiledIn) return;
    if (!enabled_) return;
    counters_[h.index] += n;
  }
  void set(GaugeHandle h, double value) {
    if constexpr (!kCompiledIn) return;
    if (!enabled_) return;
    gauges_[h.index] = value;
  }

  std::uint64_t value(CounterHandle h) const { return counters_[h.index]; }
  double value(GaugeHandle h) const { return gauges_[h.index]; }

  std::size_t counter_count() const { return counters_.size(); }
  std::size_t gauge_count() const { return gauges_.size(); }
  const std::string& counter_name(std::uint32_t i) const {
    return counter_names_[i];
  }
  const std::string& gauge_name(std::uint32_t i) const {
    return gauge_names_[i];
  }

  /// "name value" lines, counters then gauges, for logs and tests.
  std::string dump() const;

 private:
  bool enabled_;
  std::vector<std::string> counter_names_;
  std::vector<std::uint64_t> counters_;
  std::vector<std::string> gauge_names_;
  std::vector<double> gauges_;
};

}  // namespace pcap::telemetry
