// Management-plane face of one simulated node without the full sim::Node +
// core::Bmc machinery, so 1k-10k of them stay cheap to construct and poll.
// Chunk *execution* still runs through the real simulator (the fleet's and
// the rack scheduler's sched::ChunkBatch and its memo); the VirtualNode
// only tracks what its BMC would report out-of-band: the enforced cap, the
// capability range, and the current draw (the running chunk's average
// package power, or the idle floor). A core::NodeIpmiServer serves it
// exactly as it serves a core::Bmc.
//
// A VirtualNode boots capped at its floor — the safe state a BMC powers up
// in — which is exactly the initial grant a fleet rack books for it, so the
// budget-tree accounting is grounded from tick zero.
#pragma once

#include <algorithm>
#include <optional>

#include "ipmi/commands.hpp"

namespace pcap::core {

class VirtualNode {
 public:
  VirtualNode(double min_cap_w, double max_cap_w, double idle_w)
      : min_cap_w_(min_cap_w),
        max_cap_w_(max_cap_w),
        cap_w_(min_cap_w),
        draw_w_(idle_w),
        min_seen_w_(idle_w),
        max_seen_w_(idle_w) {}

  ipmi::Capabilities capabilities() const {
    return ipmi::Capabilities{min_cap_w_, max_cap_w_};
  }

  ipmi::PowerReading power_reading() const {
    return ipmi::PowerReading{draw_w_, draw_w_, min_seen_w_, max_seen_w_};
  }

  /// Enforced cap; nullopt = uncapped. The server range-checks requests.
  std::optional<double> cap() const { return cap_w_; }
  void set_cap(std::optional<double> watts) { cap_w_ = watts; }

  /// The rack updates the draw as chunks start and complete.
  void set_draw_w(double watts) {
    draw_w_ = watts;
    min_seen_w_ = std::min(min_seen_w_, watts);
    max_seen_w_ = std::max(max_seen_w_, watts);
  }
  double draw_w() const { return draw_w_; }

  ipmi::ThrottleStatus throttle_status() const {
    ipmi::ThrottleStatus t;
    t.capping_active =
        cap_w_.has_value() && draw_w_ >= *cap_w_ - 1e-9;
    return t;
  }

 private:
  double min_cap_w_;
  double max_cap_w_;
  std::optional<double> cap_w_;
  double draw_w_;
  double min_seen_w_;
  double max_seen_w_;
};

}  // namespace pcap::core
