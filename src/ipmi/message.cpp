#include "ipmi/message.hpp"

namespace pcap::ipmi {

namespace {

std::uint8_t checksum(std::span<const std::uint8_t> bytes) {
  std::uint8_t sum = 0;
  for (auto b : bytes) sum = static_cast<std::uint8_t>(sum + b);
  return static_cast<std::uint8_t>(-sum);
}

std::uint16_t length_field(std::uint8_t lo, std::uint8_t hi) {
  return static_cast<std::uint16_t>(
      lo | static_cast<std::uint16_t>(static_cast<std::uint16_t>(hi) << 8));
}

void put_length(Frame& frame, std::size_t len) {
  frame.push_back(static_cast<std::uint8_t>(len & 0xFF));
  frame.push_back(static_cast<std::uint8_t>(len >> 8));
}

}  // namespace

Frame encode_request(const Request& request, std::uint8_t seq) {
  Frame frame;
  frame.push_back(static_cast<std::uint8_t>(request.netfn));
  frame.push_back(request.command);
  frame.push_back(seq);
  put_length(frame, request.payload.size());
  frame.append(request.payload);
  frame.push_back(checksum(frame));
  return frame;
}

bool decode_request(std::span<const std::uint8_t> frame, Request& out) {
  if (frame.size() < kFrameOverhead) return false;
  const std::size_t len = length_field(frame[3], frame[4]);
  if (len > kMaxPayload || frame.size() != len + kFrameOverhead) return false;
  if (checksum(frame.first(frame.size() - 1)) != frame.back()) return false;
  out.netfn = static_cast<NetFn>(frame[0]);
  out.command = frame[1];
  out.seq = frame[2];
  out.payload = Payload(frame.subspan(5, len));
  return true;
}

Frame encode_response(const Response& response) {
  Frame frame;
  frame.push_back(static_cast<std::uint8_t>(response.code));
  frame.push_back(response.seq);
  put_length(frame, response.payload.size());
  frame.append(response.payload);
  frame.push_back(checksum(frame));
  return frame;
}

bool decode_response(std::span<const std::uint8_t> frame, Response& out) {
  if (frame.size() < kFrameOverhead - 1) return false;
  const std::size_t len = length_field(frame[2], frame[3]);
  if (len > kMaxPayload || frame.size() != len + kFrameOverhead - 1) {
    return false;
  }
  if (checksum(frame.first(frame.size() - 1)) != frame.back()) return false;
  out.code = static_cast<CompletionCode>(frame[0]);
  out.seq = frame[1];
  out.payload = Payload(frame.subspan(4, len));
  return true;
}

}  // namespace pcap::ipmi
