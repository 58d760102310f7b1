// Unit tests for the IPMI message layer: framing, checksums, command
// codecs, transports and the client session's error handling.
#include <gtest/gtest.h>

#include "ipmi/commands.hpp"
#include "ipmi/message.hpp"
#include "ipmi/transport.hpp"

namespace pcap::ipmi {
namespace {

TEST(Message, RequestRoundTrip) {
  Request request;
  request.netfn = NetFn::kGroupExt;
  request.command = 0xC8;
  request.payload = {1, 2, 3, 250};
  const auto frame = encode_request(request);
  Request decoded;
  ASSERT_TRUE(decode_request(frame, decoded));
  EXPECT_EQ(decoded.netfn, request.netfn);
  EXPECT_EQ(decoded.command, request.command);
  EXPECT_EQ(decoded.payload, request.payload);
}

TEST(Message, ResponseRoundTrip) {
  Response response;
  response.code = CompletionCode::kOk;
  response.payload = {9, 8, 7};
  const auto frame = encode_response(response);
  Response decoded;
  ASSERT_TRUE(decode_response(frame, decoded));
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.payload, response.payload);
}

TEST(Message, EmptyPayloadRoundTrip) {
  const auto frame = encode_request(Request{NetFn::kApp, 0x01, 0, {}});
  Request decoded;
  ASSERT_TRUE(decode_request(frame, decoded));
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(Message, RejectsShortFrames) {
  Request r;
  EXPECT_FALSE(decode_request(std::vector<std::uint8_t>{1, 2}, r));
  Response resp;
  EXPECT_FALSE(decode_response(std::vector<std::uint8_t>{1}, resp));
}

TEST(Message, RejectsBadChecksum) {
  auto frame = encode_request(Request{NetFn::kApp, 0x01, 0, {5, 6}});
  frame.back() ^= 0xFF;
  Request decoded;
  EXPECT_FALSE(decode_request(frame, decoded));
}

TEST(Message, RejectsCorruptedBody) {
  auto frame = encode_request(Request{NetFn::kApp, 0x01, 0, {5, 6}});
  frame[4] ^= 0x10;  // payload byte; checksum now wrong
  Request decoded;
  EXPECT_FALSE(decode_request(frame, decoded));
}

TEST(Message, RejectsLengthMismatch) {
  auto frame = encode_request(Request{NetFn::kApp, 0x01, 0, {5, 6, 7}});
  frame.pop_back();  // drop checksum -> length no longer consistent
  Request decoded;
  EXPECT_FALSE(decode_request(frame, decoded));
}

TEST(Message, PayloadReaderBoundsChecked) {
  const std::vector<std::uint8_t> payload = {0x34, 0x12, 0xFF};
  PayloadReader reader(payload);
  std::uint16_t v16 = 0;
  EXPECT_TRUE(reader.read_u16(v16));
  EXPECT_EQ(v16, 0x1234);
  std::uint32_t v32 = 0;
  EXPECT_FALSE(reader.read_u32(v32));  // only 1 byte left
  std::uint8_t v8 = 0;
  EXPECT_TRUE(reader.read_u8(v8));
  EXPECT_EQ(v8, 0xFF);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, LittleEndianHelpers) {
  Payload out;
  put_u32(out, 0xAABBCCDD);
  EXPECT_EQ(out, (Payload{0xDD, 0xCC, 0xBB, 0xAA}));
  PayloadReader reader(out);
  std::uint32_t v = 0;
  EXPECT_TRUE(reader.read_u32(v));
  EXPECT_EQ(v, 0xAABBCCDDu);
}

TEST(Commands, WattsFixedPoint) {
  EXPECT_EQ(watts_to_wire(153.17), 1532u);
  EXPECT_DOUBLE_EQ(watts_from_wire(1532), 153.2);
  EXPECT_EQ(watts_to_wire(-5.0), 0u);        // clamped
  EXPECT_EQ(watts_to_wire(1e9), 65535u);     // clamped
}

TEST(Commands, PowerReadingRoundTrip) {
  const PowerReading reading{153.1, 152.8, 121.5, 158.3};
  const auto decoded = decode_power_reading(encode_power_reading(reading));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->current_w, 153.1);
  EXPECT_DOUBLE_EQ(decoded->average_w, 152.8);
  EXPECT_DOUBLE_EQ(decoded->minimum_w, 121.5);
  EXPECT_DOUBLE_EQ(decoded->maximum_w, 158.3);
}

TEST(Commands, SetPowerLimitRoundTrip) {
  const auto request = make_set_power_limit({true, 130.0});
  const auto decoded = decode_set_power_limit(request);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->enabled);
  EXPECT_DOUBLE_EQ(decoded->limit_w, 130.0);
}

TEST(Commands, PowerLimitResponseRoundTrip) {
  const auto decoded = decode_power_limit(encode_power_limit({false, 0.0}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->enabled);
}

TEST(Commands, CapabilitiesRoundTrip) {
  const auto decoded = decode_capabilities(encode_capabilities({110.0, 400.0}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->min_cap_w, 110.0);
  EXPECT_DOUBLE_EQ(decoded->max_cap_w, 400.0);
}

TEST(Commands, ThrottleStatusRoundTrip) {
  ThrottleStatus s;
  s.pstate = 15;
  s.duty_eighths = 1;
  s.l3_ways = 4;
  s.l2_ways = 2;
  s.itlb_entries = 6;
  s.dtlb_entries = 32;
  s.dram_gated = true;
  s.capping_active = true;
  const auto decoded = decode_throttle_status(encode_throttle_status(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pstate, 15);
  EXPECT_EQ(decoded->duty_eighths, 1);
  EXPECT_EQ(decoded->l3_ways, 4);
  EXPECT_EQ(decoded->l2_ways, 2);
  EXPECT_EQ(decoded->itlb_entries, 6);
  EXPECT_EQ(decoded->dtlb_entries, 32);
  EXPECT_TRUE(decoded->dram_gated);
  EXPECT_TRUE(decoded->capping_active);
}

TEST(Commands, DeviceIdRoundTrip) {
  const auto decoded = decode_device_id(encode_device_id({0x20, 2, 5}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->firmware_major, 2);
  EXPECT_EQ(decoded->firmware_minor, 5);
}

TEST(Commands, DecodersRejectErrorResponses) {
  const Response err = make_error_response(CompletionCode::kInvalidCommand);
  EXPECT_FALSE(decode_power_reading(err).has_value());
  EXPECT_FALSE(decode_capabilities(err).has_value());
  EXPECT_FALSE(decode_throttle_status(err).has_value());
}

TEST(Commands, DecodersRejectTruncatedPayloads) {
  Response r = encode_power_reading({1, 2, 3, 4});
  r.payload.pop_back();
  EXPECT_FALSE(decode_power_reading(r).has_value());
  r.payload.push_back(0);
  r.payload.push_back(0);  // now too long
  EXPECT_FALSE(decode_power_reading(r).has_value());
}

TEST(Transport, LoopbackDelivers) {
  LoopbackTransport transport([](std::span<const std::uint8_t> frame) {
    return Frame(frame);  // echo
  });
  const Frame frame = {1, 2, 3};
  EXPECT_EQ(transport.transact(frame), frame);
}

namespace {

/// A well-behaved responder: decodes the request and echoes its sequence
/// number, the way BmcIpmiServer does.
Frame echo_seq(std::span<const std::uint8_t> frame, Response response) {
  Request request;
  if (!decode_request(frame, request)) return {};
  response.seq = request.seq;
  return encode_response(response);
}

}  // namespace

TEST(Transport, SessionDecodesResponses) {
  LoopbackTransport transport([](std::span<const std::uint8_t> f) {
    return echo_seq(f, encode_capabilities({110.0, 400.0}));
  });
  Session session(transport);
  const Response response = session.transact(make_get_capabilities());
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(session.last_error(), Session::Error::kNone);
  EXPECT_EQ(session.transport_errors(), 0u);
}

TEST(Transport, SessionSequenceNumbersWrapCleanly) {
  LoopbackTransport transport([](std::span<const std::uint8_t> f) {
    return echo_seq(f, make_ok_response());
  });
  Session session(transport);
  // Run past the uint8 wrap: every exchange must still match its seq.
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(session.transact(make_get_power_reading()).ok());
  }
  EXPECT_EQ(session.transport_errors(), 0u);
  EXPECT_EQ(session.stale_rejections(), 0u);
}

TEST(Transport, SessionSurvivesDropsAndCorruption) {
  LoopbackTransport inner([](std::span<const std::uint8_t> f) {
    return echo_seq(f, make_ok_response());
  });
  FaultyTransport faulty(
      inner, FaultSpec{.drop_rate = 0.4, .corrupt_rate = 0.4}, /*seed=*/3);
  Session session(faulty);
  int ok = 0, failed = 0;
  for (int i = 0; i < 200; ++i) {
    const Response r = session.transact(make_get_power_reading());
    (r.ok() ? ok : failed)++;
  }
  EXPECT_GT(ok, 20);
  EXPECT_GT(failed, 20);
  EXPECT_EQ(session.transport_errors(), static_cast<std::uint64_t>(failed));
}

}  // namespace
}  // namespace pcap::ipmi
