// Fleet-scale node endpoint: the management-plane face of one simulated
// node without the full sim::Node + core::Bmc machinery, so 1k-10k of them
// stay cheap to construct and poll. Chunk *execution* still runs through
// the real simulator through the fleet's sched::ChunkBatch and its memo;
// the VirtualNode only tracks what its BMC would report out-of-band: the
// enforced cap, the capability range, and the current draw (the running
// chunk's average package power, or the idle floor).
//
// A VirtualNode boots capped at its floor — the safe state a BMC powers up
// in — which is exactly the initial grant its rack books for it, so the
// budget-tree accounting is grounded from tick zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "ipmi/commands.hpp"

namespace pcap::fleet {

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

  std::optional<double> cap_w() const { return cap_w_; }

  /// Range-checked like the real BMC: an enabled cap outside
  /// [min_cap, max_cap] is rejected. nullopt uncaps.
  bool set_cap(std::optional<double> watts) {
    if (watts.has_value() &&
        (*watts < min_cap_w_ - 1e-9 || *watts > max_cap_w_ + 1e-9)) {
      return false;
    }
    cap_w_ = watts;
    return true;
  }

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

/// Answers the node-level power-management commands for one VirtualNode —
/// the same contract BmcIpmiServer keeps, minus the escalation ladder.
class VirtualNodeIpmiServer {
 public:
  explicit VirtualNodeIpmiServer(VirtualNode& node) : node_(&node) {}

  ipmi::Response handle(const ipmi::Request& request);
  ipmi::Frame handle_frame(std::span<const std::uint8_t> frame);

 private:
  VirtualNode* node_;
};

}  // namespace pcap::fleet
