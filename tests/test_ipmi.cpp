// Unit tests for the IPMI message layer: framing, checksums, command
// codecs, transports and the client session's error handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "ipmi/commands.hpp"
#include "ipmi/message.hpp"
#include "ipmi/transport.hpp"
#include "util/rng.hpp"

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

// The wire encoders round without libm; these are the std::lround forms
// they replaced, which every wire value must still match.
std::uint16_t lround_wire16(double watts) {
  return static_cast<std::uint16_t>(
      std::lround(std::clamp(watts, 0.0, 6553.5) * 10.0));
}
std::uint32_t lround_wire32(double watts) {
  return static_cast<std::uint32_t>(
      std::llround(std::clamp(watts, 0.0, 429496729.5) * 10.0));
}

/// Number of doubles within `steps` ulps of `center` (center included)
/// where the encoders disagree with their std::lround forms.
int rounding_mismatches(double center, int steps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double d = center;
  for (int k = 0; k < steps; ++k) d = std::nextafter(d, -kInf);
  int bad = 0;
  for (int k = 0; k <= 2 * steps; ++k, d = std::nextafter(d, kInf)) {
    if (watts_to_wire(d) != lround_wire16(d)) ++bad;
    if (watts32_to_wire(d) != lround_wire32(d)) ++bad;
  }
  return bad;
}

TEST(Commands, WattsToWireIsLroundAtEveryU16Boundary) {
  // Each wire value w and each rounding tie between w and w + 1, probed
  // four ulps either side: where truncation or the tie could go wrong.
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    ASSERT_EQ(rounding_mismatches(w / 10.0, 4), 0) << "w = " << w;
    ASSERT_EQ(rounding_mismatches((w + 0.5) / 10.0, 4), 0) << "w = " << w;
  }
}

TEST(Commands, WattsToWireIsLroundOnTheU32Range) {
  // Every u32 boundary below 200 000, a stride across the whole range,
  // the neighbourhoods of each power of two and the top of the range.
  std::vector<std::uint64_t> wires;
  for (std::uint64_t w = 0; w < 200000; ++w) wires.push_back(w);
  for (std::uint64_t k = 0; k <= 100000; ++k) {
    wires.push_back(k * (0xFFFFFFFFull / 100000));
  }
  for (int b = 17; b <= 32; ++b) {
    for (std::uint64_t d = 0; d < 64; ++d) {
      wires.push_back((1ull << b) - 32 + d);
    }
  }
  for (std::uint64_t w = 0xFFFFFFFFull - 5000; w <= 0xFFFFFFFFull; ++w) {
    wires.push_back(w);
  }
  for (const std::uint64_t w : wires) {
    const double wd = static_cast<double>(w);
    ASSERT_EQ(rounding_mismatches(wd / 10.0, 4), 0) << "w = " << w;
    ASSERT_EQ(rounding_mismatches((wd + 0.5) / 10.0, 4), 0) << "w = " << w;
  }
}

TEST(Commands, WattsToWireIsLroundOnRandomAndEdgeInputs) {
  util::Rng rng(0x5EED);
  for (int i = 0; i < 1000000; ++i) {
    const double watts = rng.uniform(-1.0, 7000.0);
    ASSERT_EQ(watts_to_wire(watts), lround_wire16(watts)) << watts;
    ASSERT_EQ(watts32_to_wire(watts), lround_wire32(watts)) << watts;
    const double wide = rng.uniform(-1.0, 429496730.0);
    ASSERT_EQ(watts32_to_wire(wide), lround_wire32(wide)) << wide;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          0.04999999999999999,
                          0.05,
                          6553.5,
                          std::nextafter(6553.5, -kInf),
                          std::nextafter(6553.5, kInf),
                          6553.45,
                          429496729.5,
                          std::nextafter(429496729.5, -kInf),
                          std::nextafter(429496729.5, kInf),
                          429496729.45,
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          kInf,
                          -kInf};
  for (const double watts : edges) {
    EXPECT_EQ(watts_to_wire(watts), lround_wire16(watts)) << watts;
    EXPECT_EQ(watts32_to_wire(watts), lround_wire32(watts)) << watts;
  }
  EXPECT_EQ(watts_to_wire(6553.5), 65535u);
  EXPECT_EQ(watts32_to_wire(429496729.5), 0xFFFFFFFFu);
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

namespace {

/// A well-behaved responder: answers every decodable request with a fixed
/// response carrying the request's sequence number, the way the node and
/// budget servers do.
class FixedResponder final : public Transport {
 public:
  explicit FixedResponder(Response response) : response_(std::move(response)) {}

  Frame transact(std::span<const std::uint8_t> frame) override {
    Request request;
    if (!decode_request(frame, request)) return {};
    Response response = response_;
    response.seq = request.seq;
    return encode_response(response);
  }

 private:
  Response response_;
};

}  // namespace

TEST(Transport, SessionDecodesResponses) {
  FixedResponder transport(encode_capabilities({110.0, 400.0}));
  Session session(transport);
  const Response response = session.transact(make_get_capabilities());
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(session.last_error(), Session::Error::kNone);
  EXPECT_EQ(session.transport_errors(), 0u);
}

TEST(Transport, SessionSequenceNumbersWrapCleanly) {
  FixedResponder transport(make_ok_response());
  Session session(transport);
  // Run past the uint8 wrap: every exchange must still match its seq.
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(session.transact(make_get_power_reading()).ok());
  }
  EXPECT_EQ(session.transport_errors(), 0u);
  EXPECT_EQ(session.stale_rejections(), 0u);
}

TEST(Transport, SessionSurvivesDropsAndCorruption) {
  FixedResponder inner(make_ok_response());
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
