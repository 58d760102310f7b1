#include "core/bmc_ipmi_server.hpp"

namespace pcap::core {

using ipmi::Command;
using ipmi::CompletionCode;

ipmi::Response BmcIpmiServer::handle(const ipmi::Request& request) {
  switch (static_cast<Command>(request.command)) {
    case Command::kGetDeviceId:
      return ipmi::encode_device_id(ipmi::DeviceId{});

    case Command::kGetPowerReading:
      return ipmi::encode_power_reading(bmc_->power_reading());

    case Command::kSetPowerLimit: {
      const auto limit = ipmi::decode_set_power_limit(request);
      if (!limit) {
        return ipmi::make_error_response(CompletionCode::kRequestDataInvalid);
      }
      if (limit->enabled) {
        const auto caps = bmc_->capabilities();
        if (limit->limit_w < caps.min_cap_w || limit->limit_w > caps.max_cap_w) {
          return ipmi::make_error_response(CompletionCode::kOutOfRange);
        }
        bmc_->set_cap(limit->limit_w);
      } else {
        bmc_->set_cap(std::nullopt);
      }
      return ipmi::make_ok_response();
    }

    case Command::kGetPowerLimit: {
      ipmi::PowerLimit limit;
      limit.enabled = bmc_->cap().has_value();
      limit.limit_w = bmc_->cap().value_or(0.0);
      return ipmi::encode_power_limit(limit);
    }

    case Command::kGetCapabilities:
      return ipmi::encode_capabilities(bmc_->capabilities());

    case Command::kGetThrottleStatus:
      return ipmi::encode_throttle_status(bmc_->throttle_status());

    // Budget-tree commands are served by BudgetEndpointServer, never by a
    // node BMC.
    case Command::kSetRackBudget:
    case Command::kGetRackStatus:
      break;
  }
  return ipmi::make_error_response(CompletionCode::kInvalidCommand);
}

ipmi::Frame BmcIpmiServer::handle_frame(std::span<const std::uint8_t> frame) {
  return ipmi::serve_frame(
      frame, [this](const ipmi::Request& request) { return handle(request); });
}

}  // namespace pcap::core
