// Server-side IPMI endpoint of one node: the node's end of its management
// link. It is an ipmi::Transport, so a client Session (or a FaultyTransport
// modelling a lossy network in between) binds to it directly; transact()
// decodes the request frame, dispatches the node-level power-management
// commands to the node's face and encodes the reply.
//
// One server serves both faces a node has in this repo: core::Bmc (the
// firmware enforcing the cap on a simulated node) and core::VirtualNode
// (the management-only stand-in of the fleet and the rack scheduler). A
// Face provides capabilities(), power_reading(), cap(), set_cap() and
// throttle_status(). The face is a template parameter, not a virtual
// interface, so a fleet poll inlines the VirtualNode getters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"

namespace pcap::core {

template <typename Face>
class NodeIpmiServer final : public ipmi::Transport {
 public:
  explicit NodeIpmiServer(Face& face) : face_(&face) {}

  ipmi::Frame transact(std::span<const std::uint8_t> frame) override {
    return ipmi::serve_frame(frame, [this](const ipmi::Request& request) {
      return handle(request);
    });
  }

 private:
  ipmi::Response handle(const ipmi::Request& request) {
    using ipmi::Command;
    using ipmi::CompletionCode;
    switch (static_cast<Command>(request.command)) {
      case Command::kGetDeviceId:
        return ipmi::encode_device_id(ipmi::DeviceId{});
      case Command::kGetPowerReading:
        return ipmi::encode_power_reading(face_->power_reading());
      case Command::kSetPowerLimit: {
        const std::optional<ipmi::PowerLimit> limit =
            ipmi::decode_set_power_limit(request);
        if (!limit.has_value()) {
          return ipmi::make_error_response(CompletionCode::kRequestDataInvalid);
        }
        if (!limit->enabled) {
          face_->set_cap(std::nullopt);
          return ipmi::make_ok_response();
        }
        // An enabled cap outside the advertised [min_cap, max_cap] is
        // refused and leaves the enforced cap as it was.
        const ipmi::Capabilities caps = face_->capabilities();
        if (limit->limit_w < caps.min_cap_w ||
            limit->limit_w > caps.max_cap_w) {
          return ipmi::make_error_response(CompletionCode::kOutOfRange);
        }
        face_->set_cap(limit->limit_w);
        return ipmi::make_ok_response();
      }
      case Command::kGetPowerLimit: {
        const std::optional<double> cap = face_->cap();
        return ipmi::encode_power_limit(
            ipmi::PowerLimit{cap.has_value(), cap.value_or(0.0)});
      }
      case Command::kGetCapabilities:
        return ipmi::encode_capabilities(face_->capabilities());
      case Command::kGetThrottleStatus:
        return ipmi::encode_throttle_status(face_->throttle_status());
      default:
        // Budget-tree commands belong to fleet::BudgetEndpointServer.
        return ipmi::make_error_response(CompletionCode::kInvalidCommand);
    }
  }

  Face* face_;
};

}  // namespace pcap::core
