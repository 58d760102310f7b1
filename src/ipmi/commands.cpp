#include "ipmi/commands.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::ipmi {

std::uint16_t watts_to_wire(double watts) {
  const double clamped = std::clamp(watts, 0.0, 6553.5);
  return static_cast<std::uint16_t>(std::lround(clamped * 10.0));
}

double watts_from_wire(std::uint16_t wire) {
  return static_cast<double>(wire) / 10.0;
}

std::uint32_t watts32_to_wire(double watts) {
  const double clamped = std::clamp(watts, 0.0, 429496729.5);
  return static_cast<std::uint32_t>(std::llround(clamped * 10.0));
}

double watts32_from_wire(std::uint32_t wire) {
  return static_cast<double>(wire) / 10.0;
}

namespace {

Request make_plain(Command c) {
  Request r;
  r.netfn = c == Command::kGetDeviceId ? NetFn::kApp : NetFn::kGroupExt;
  r.command = static_cast<std::uint8_t>(c);
  return r;
}

}  // namespace

Request make_get_device_id() { return make_plain(Command::kGetDeviceId); }
Request make_get_power_reading() { return make_plain(Command::kGetPowerReading); }
Request make_get_power_limit() { return make_plain(Command::kGetPowerLimit); }
Request make_get_capabilities() { return make_plain(Command::kGetCapabilities); }
Request make_get_throttle_status() {
  return make_plain(Command::kGetThrottleStatus);
}

Request make_set_power_limit(const PowerLimit& limit) {
  Request r = make_plain(Command::kSetPowerLimit);
  put_u8(r.payload, limit.enabled ? 1 : 0);
  put_u16(r.payload, watts_to_wire(limit.limit_w));
  return r;
}

Response make_ok_response() { return Response{CompletionCode::kOk, 0, {}}; }

Response make_error_response(CompletionCode code) {
  return Response{code, 0, {}};
}

Response encode_device_id(const DeviceId& v) {
  Response r = make_ok_response();
  put_u8(r.payload, v.device_id);
  put_u8(r.payload, v.firmware_major);
  put_u8(r.payload, v.firmware_minor);
  return r;
}

std::optional<DeviceId> decode_device_id(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  DeviceId v;
  if (!reader.read_u8(v.device_id) || !reader.read_u8(v.firmware_major) ||
      !reader.read_u8(v.firmware_minor) || !reader.exhausted()) {
    return std::nullopt;
  }
  return v;
}

Response encode_power_reading(const PowerReading& v) {
  Response r = make_ok_response();
  put_u16(r.payload, watts_to_wire(v.current_w));
  put_u16(r.payload, watts_to_wire(v.average_w));
  put_u16(r.payload, watts_to_wire(v.minimum_w));
  put_u16(r.payload, watts_to_wire(v.maximum_w));
  return r;
}

std::optional<PowerReading> decode_power_reading(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  std::uint16_t cur = 0, avg = 0, mn = 0, mx = 0;
  if (!reader.read_u16(cur) || !reader.read_u16(avg) || !reader.read_u16(mn) ||
      !reader.read_u16(mx) || !reader.exhausted()) {
    return std::nullopt;
  }
  return PowerReading{watts_from_wire(cur), watts_from_wire(avg),
                      watts_from_wire(mn), watts_from_wire(mx)};
}

std::optional<PowerLimit> decode_set_power_limit(const Request& r) {
  PayloadReader reader(r.payload);
  std::uint8_t enabled = 0;
  std::uint16_t watts = 0;
  if (!reader.read_u8(enabled) || !reader.read_u16(watts) ||
      !reader.exhausted()) {
    return std::nullopt;
  }
  return PowerLimit{enabled != 0, watts_from_wire(watts)};
}

Response encode_power_limit(const PowerLimit& v) {
  Response r = make_ok_response();
  put_u8(r.payload, v.enabled ? 1 : 0);
  put_u16(r.payload, watts_to_wire(v.limit_w));
  return r;
}

std::optional<PowerLimit> decode_power_limit(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  std::uint8_t enabled = 0;
  std::uint16_t watts = 0;
  if (!reader.read_u8(enabled) || !reader.read_u16(watts) ||
      !reader.exhausted()) {
    return std::nullopt;
  }
  return PowerLimit{enabled != 0, watts_from_wire(watts)};
}

Response encode_capabilities(const Capabilities& v) {
  Response r = make_ok_response();
  put_u16(r.payload, watts_to_wire(v.min_cap_w));
  put_u16(r.payload, watts_to_wire(v.max_cap_w));
  return r;
}

std::optional<Capabilities> decode_capabilities(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  std::uint16_t mn = 0, mx = 0;
  if (!reader.read_u16(mn) || !reader.read_u16(mx) || !reader.exhausted()) {
    return std::nullopt;
  }
  return Capabilities{watts_from_wire(mn), watts_from_wire(mx)};
}

Response encode_throttle_status(const ThrottleStatus& v) {
  Response r = make_ok_response();
  put_u8(r.payload, v.pstate);
  put_u8(r.payload, v.duty_eighths);
  put_u8(r.payload, v.l3_ways);
  put_u8(r.payload, v.l2_ways);
  put_u8(r.payload, v.itlb_entries);
  put_u8(r.payload, v.dtlb_entries);
  put_u8(r.payload, static_cast<std::uint8_t>((v.dram_gated ? 1 : 0) |
                                              (v.capping_active ? 2 : 0)));
  return r;
}

Request make_set_rack_budget(double target_w) {
  Request r = make_plain(Command::kSetRackBudget);
  put_u32(r.payload, watts32_to_wire(target_w));
  return r;
}

std::optional<double> decode_set_rack_budget(const Request& r) {
  PayloadReader reader(r.payload);
  std::uint32_t watts = 0;
  if (!reader.read_u32(watts) || !reader.exhausted()) return std::nullopt;
  return watts32_from_wire(watts);
}

Response encode_rack_budget_grant(double grant_w) {
  Response r = make_ok_response();
  put_u32(r.payload, watts32_to_wire(grant_w));
  return r;
}

std::optional<double> decode_rack_budget_grant(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  std::uint32_t watts = 0;
  if (!reader.read_u32(watts) || !reader.exhausted()) return std::nullopt;
  return watts32_from_wire(watts);
}

Request make_get_rack_status() { return make_plain(Command::kGetRackStatus); }

Response encode_rack_status(const RackStatus& v) {
  Response r = make_ok_response();
  put_u32(r.payload, watts32_to_wire(v.enforced_w));
  put_u32(r.payload, watts32_to_wire(v.committed_w));
  put_u32(r.payload, watts32_to_wire(v.reserved_w));
  put_u32(r.payload, watts32_to_wire(v.demand_w));
  put_u32(r.payload, watts32_to_wire(v.floor_w));
  put_u32(r.payload, watts32_to_wire(v.ceiling_w));
  put_u16(r.payload, v.nodes);
  put_u16(r.payload, v.lost_nodes);
  put_u16(r.payload, v.busy_nodes);
  put_u16(r.payload, v.free_lanes);
  put_u16(r.payload, v.queued_jobs);
  return r;
}

std::optional<RackStatus> decode_rack_status(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  std::uint32_t enforced = 0, committed = 0, reserved = 0, demand = 0;
  std::uint32_t floor = 0, ceiling = 0;
  RackStatus v;
  if (!reader.read_u32(enforced) || !reader.read_u32(committed) ||
      !reader.read_u32(reserved) || !reader.read_u32(demand) ||
      !reader.read_u32(floor) || !reader.read_u32(ceiling) ||
      !reader.read_u16(v.nodes) || !reader.read_u16(v.lost_nodes) ||
      !reader.read_u16(v.busy_nodes) || !reader.read_u16(v.free_lanes) ||
      !reader.read_u16(v.queued_jobs) || !reader.exhausted()) {
    return std::nullopt;
  }
  v.enforced_w = watts32_from_wire(enforced);
  v.committed_w = watts32_from_wire(committed);
  v.reserved_w = watts32_from_wire(reserved);
  v.demand_w = watts32_from_wire(demand);
  v.floor_w = watts32_from_wire(floor);
  v.ceiling_w = watts32_from_wire(ceiling);
  return v;
}

std::optional<ThrottleStatus> decode_throttle_status(const Response& r) {
  if (!r.ok()) return std::nullopt;
  PayloadReader reader(r.payload);
  ThrottleStatus v;
  std::uint8_t flags = 0;
  if (!reader.read_u8(v.pstate) || !reader.read_u8(v.duty_eighths) ||
      !reader.read_u8(v.l3_ways) || !reader.read_u8(v.l2_ways) ||
      !reader.read_u8(v.itlb_entries) || !reader.read_u8(v.dtlb_entries) ||
      !reader.read_u8(flags) || !reader.exhausted()) {
    return std::nullopt;
  }
  v.dram_gated = (flags & 1) != 0;
  v.capping_active = (flags & 2) != 0;
  return v;
}

}  // namespace pcap::ipmi
