#include "fleet/virtual_node.hpp"

namespace pcap::fleet {

ipmi::Response VirtualNodeIpmiServer::handle(const ipmi::Request& request) {
  using ipmi::Command;
  using ipmi::CompletionCode;
  switch (static_cast<Command>(request.command)) {
    case Command::kGetDeviceId:
      return ipmi::encode_device_id(ipmi::DeviceId{});
    case Command::kGetPowerReading:
      return ipmi::encode_power_reading(node_->power_reading());
    case Command::kGetCapabilities:
      return ipmi::encode_capabilities(node_->capabilities());
    case Command::kGetPowerLimit: {
      const std::optional<double> cap = node_->cap_w();
      return ipmi::encode_power_limit(
          ipmi::PowerLimit{cap.has_value(), cap.value_or(0.0)});
    }
    case Command::kSetPowerLimit: {
      const std::optional<ipmi::PowerLimit> limit =
          ipmi::decode_set_power_limit(request);
      if (!limit.has_value()) {
        return ipmi::make_error_response(CompletionCode::kRequestDataInvalid);
      }
      const std::optional<double> cap =
          limit->enabled ? std::optional<double>(limit->limit_w) : std::nullopt;
      if (!node_->set_cap(cap)) {
        return ipmi::make_error_response(CompletionCode::kOutOfRange);
      }
      return ipmi::make_ok_response();
    }
    case Command::kGetThrottleStatus:
      return ipmi::encode_throttle_status(node_->throttle_status());
    default:
      return ipmi::make_error_response(CompletionCode::kInvalidCommand);
  }
}

ipmi::Frame VirtualNodeIpmiServer::handle_frame(
    std::span<const std::uint8_t> frame) {
  return ipmi::serve_frame(
      frame, [this](const ipmi::Request& request) { return handle(request); });
}

}  // namespace pcap::fleet
