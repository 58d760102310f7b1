// Typed power-management commands carried over the IPMI message layer
// (Node Manager-style), with pack/unpack to request/response payloads.
// Watts travel as 0.1 W fixed point in a u16 (so caps up to 6553.5 W).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "ipmi/message.hpp"

namespace pcap::ipmi {

enum class Command : std::uint8_t {
  kGetDeviceId = 0x01,
  kGetPowerReading = 0xC8,
  kSetPowerLimit = 0xC9,
  kGetPowerLimit = 0xCA,
  kGetCapabilities = 0xCB,
  kGetThrottleStatus = 0xCC,  // vendor extension: escalation diagnostics
  // Fleet extension: budget-tree commands spoken between a parent power
  // manager and an aggregate child (rack manager, pod manager). Watts at
  // this level exceed the u16 6553.5 W ceiling, so they travel as u32
  // 0.1 W fixed point.
  kSetRackBudget = 0xD0,
  kGetRackStatus = 0xD1,
};

/// Human-readable command name for diagnostics and trace spans.
inline const char* command_name(std::uint8_t command) {
  switch (static_cast<Command>(command)) {
    case Command::kGetDeviceId: return "GetDeviceId";
    case Command::kGetPowerReading: return "GetPowerReading";
    case Command::kSetPowerLimit: return "SetPowerLimit";
    case Command::kGetPowerLimit: return "GetPowerLimit";
    case Command::kGetCapabilities: return "GetCapabilities";
    case Command::kGetThrottleStatus: return "GetThrottleStatus";
    case Command::kSetRackBudget: return "SetRackBudget";
    case Command::kGetRackStatus: return "GetRackStatus";
  }
  return "Unknown";
}

struct DeviceId {
  std::uint8_t device_id = 0x20;
  std::uint8_t firmware_major = 1;
  std::uint8_t firmware_minor = 0;
};

struct PowerReading {
  double current_w = 0.0;
  double average_w = 0.0;   // over the BMC's rolling window
  double minimum_w = 0.0;   // since cap activation
  double maximum_w = 0.0;
};

struct PowerLimit {
  bool enabled = false;
  double limit_w = 0.0;
};

struct Capabilities {
  double min_cap_w = 0.0;   // lowest enforceable cap (throttling floor)
  double max_cap_w = 0.0;
};

struct ThrottleStatus {
  std::uint8_t pstate = 0;
  std::uint8_t duty_eighths = 8;  // clock modulation in 1/8 steps
  std::uint8_t l3_ways = 20;
  std::uint8_t l2_ways = 8;
  std::uint8_t itlb_entries = 48;
  std::uint8_t dtlb_entries = 64;
  bool dram_gated = false;
  bool capping_active = false;
};

/// One aggregate child of the budget tree as its parent sees it over the
/// wire (response to kGetRackStatus). `enforced_w` is the budget the child
/// currently guarantees its commitments stay within: on a decrease it stays
/// at the old value until the child's own decreases-first rounds converge,
/// then snaps to the target; increases are adopted immediately.
struct RackStatus {
  double enforced_w = 0.0;   // budget the child guarantees right now
  double committed_w = 0.0;  // sum of grandchild grants incl. reservations
  double reserved_w = 0.0;   // held for unreachable grandchildren
  double demand_w = 0.0;     // current aggregate draw (division weight)
  double floor_w = 0.0;      // lowest enforceable aggregate budget
  double ceiling_w = 0.0;    // sum of grandchild cap ceilings
  std::uint16_t nodes = 0;
  std::uint16_t lost_nodes = 0;
  std::uint16_t busy_nodes = 0;
  std::uint16_t free_lanes = 0;
  std::uint16_t queued_jobs = 0;
};

// --- fixed-point helpers ---
std::uint16_t watts_to_wire(double watts);
double watts_from_wire(std::uint16_t wire);
// Wide variant for aggregate (rack/datacenter) budgets.
std::uint32_t watts32_to_wire(double watts);
double watts32_from_wire(std::uint32_t wire);

// --- request builders (client side) ---
Request make_get_device_id();
Request make_get_power_reading();
Request make_set_power_limit(const PowerLimit& limit);
Request make_get_power_limit();
Request make_get_capabilities();
Request make_get_throttle_status();

// --- payload codecs (both sides) ---
Response make_ok_response();
Response make_error_response(CompletionCode code);

/// Server side of one exchange, shared by every IPMI responder: decodes
/// `frame`, answers it with `handle(request)` and echoes the request's
/// sequence number (so the client can reject stale frames). An
/// undecodable frame gets a kRequestDataInvalid response.
template <typename Handle>
Frame serve_frame(std::span<const std::uint8_t> frame, Handle&& handle) {
  Request request;
  if (!decode_request(frame, request)) {
    return encode_response(
        make_error_response(CompletionCode::kRequestDataInvalid));
  }
  Response response = handle(request);
  response.seq = request.seq;
  return encode_response(response);
}

Response encode_device_id(const DeviceId& v);
std::optional<DeviceId> decode_device_id(const Response& r);

Response encode_power_reading(const PowerReading& v);
std::optional<PowerReading> decode_power_reading(const Response& r);

std::optional<PowerLimit> decode_set_power_limit(const Request& r);
Response encode_power_limit(const PowerLimit& v);
std::optional<PowerLimit> decode_power_limit(const Response& r);

Response encode_capabilities(const Capabilities& v);
std::optional<Capabilities> decode_capabilities(const Response& r);

Response encode_throttle_status(const ThrottleStatus& v);
std::optional<ThrottleStatus> decode_throttle_status(const Response& r);

// Budget-tree commands. SetRackBudget carries the target; the response
// carries the *grant* — the budget the child actually guarantees after its
// synchronous decreases-first round (== target once converged).
Request make_set_rack_budget(double target_w);
std::optional<double> decode_set_rack_budget(const Request& r);
Response encode_rack_budget_grant(double grant_w);
std::optional<double> decode_rack_budget_grant(const Response& r);

Request make_get_rack_status();
Response encode_rack_status(const RackStatus& v);
std::optional<RackStatus> decode_rack_status(const Response& r);

}  // namespace pcap::ipmi
