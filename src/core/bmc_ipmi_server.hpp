// Server-side IPMI endpoint of a BMC: decodes request frames arriving from
// the management network, dispatches to the Bmc, and encodes responses.
#pragma once

#include <cstdint>
#include <span>

#include "core/bmc.hpp"
#include "ipmi/commands.hpp"

namespace pcap::core {

class BmcIpmiServer {
 public:
  explicit BmcIpmiServer(Bmc& bmc) : bmc_(&bmc) {}

  /// Frame-level entry point, bindable to ipmi::LoopbackTransport.
  ipmi::Frame handle_frame(std::span<const std::uint8_t> frame);

  /// Request-level dispatch (used directly by tests).
  ipmi::Response handle(const ipmi::Request& request);

 private:
  Bmc* bmc_;
};

}  // namespace pcap::core
