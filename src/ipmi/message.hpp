// Minimal IPMI-flavoured message layer: framed request/response pairs with
// network function, command id, payload and a checksum. This is the wire
// format the Data Center Manager uses to reach each node's BMC out-of-band,
// mirroring the DCM -> IPMI -> BMC path described in the paper's §II-A.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>

namespace pcap::ipmi {

/// Largest payload any command carries (GetRackStatus is 34 B). Both frame
/// decoders reject a length field above it, so a decoded payload always
/// fits its inline buffer.
inline constexpr std::size_t kMaxPayload = 64;
/// Request frame overhead: [netfn, cmd, seq, len_lo, len_hi] + checksum
/// (a response frame is one byte shorter).
inline constexpr std::size_t kFrameOverhead = 6;
inline constexpr std::size_t kMaxFrame = kMaxPayload + kFrameOverhead;

/// Fixed-capacity byte buffer held inline, so building, copying and
/// returning payloads and frames never touches the heap. Appending past
/// `N` throws std::length_error before any byte is written. Bytes past
/// size() are left uninitialised: nothing reads them, and an exchange
/// builds several buffers, so zero-filling each is a cost with no reader.
template <std::size_t N>
class InlineBytes {
 public:
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  // User-provided, so that value-initialisation (`Frame{}`, `return {}`)
  // does not zero the storage either.
  InlineBytes() {}
  InlineBytes(std::initializer_list<std::uint8_t> bytes) {
    append({bytes.begin(), bytes.size()});
  }
  explicit InlineBytes(std::span<const std::uint8_t> bytes) { append(bytes); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t* data() { return bytes_.data(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return bytes_[i]; }
  std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }
  std::uint8_t& back() { return bytes_[size_ - 1]; }

  void push_back(std::uint8_t b) {
    require_room(1);
    bytes_[size_++] = b;
  }
  void append(std::span<const std::uint8_t> bytes) {
    require_room(bytes.size());
    std::copy(bytes.begin(), bytes.end(), bytes_.begin() + size_);
    size_ += bytes.size();
  }
  void pop_back() { --size_; }

  friend bool operator==(const InlineBytes& a, const InlineBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void require_room(std::size_t n) const {
    if (n > N - size_) throw std::length_error("ipmi: inline buffer full");
  }

  std::array<std::uint8_t, N> bytes_;
  std::size_t size_ = 0;
};

using Payload = InlineBytes<kMaxPayload>;
/// An encoded frame; an empty frame from a transport means "lost".
using Frame = InlineBytes<kMaxFrame>;

/// Network function codes (subset).
enum class NetFn : std::uint8_t {
  kApp = 0x06,
  kGroupExt = 0x2C,  // power-management extension (Node Manager style)
};

/// Completion codes (subset of the IPMI table).
enum class CompletionCode : std::uint8_t {
  kOk = 0x00,
  kInvalidCommand = 0xC1,
  kRequestDataInvalid = 0xCC,
  kOutOfRange = 0xC9,
  kUnspecified = 0xFF,
};

struct Request {
  NetFn netfn = NetFn::kGroupExt;
  std::uint8_t command = 0;
  /// Sequence number (IPMI rqSeq): assigned by the client session, echoed
  /// by the responder, and checked on receipt so that a duplicated or
  /// delayed frame from an earlier transaction is rejected as stale.
  std::uint8_t seq = 0;
  Payload payload;
};

struct Response {
  CompletionCode code = CompletionCode::kUnspecified;
  /// Echo of the request's sequence number.
  std::uint8_t seq = 0;
  Payload payload;

  bool ok() const { return code == CompletionCode::kOk; }
};

/// Frame layout: [netfn, cmd, seq, len_lo, len_hi, payload..., checksum]
/// where checksum is the two's complement of the byte sum (IPMI style).
/// The frame carries `seq` in place of `request.seq`, so a client session
/// tags each transaction without copying its request.
Frame encode_request(const Request& request, std::uint8_t seq);
inline Frame encode_request(const Request& request) {
  return encode_request(request, request.seq);
}

/// Decodes a frame; returns false (and leaves `out` untouched) on a short
/// frame, a length field above kMaxPayload, a length mismatch or a bad
/// checksum.
bool decode_request(std::span<const std::uint8_t> frame, Request& out);

/// Frame layout: [code, seq, len_lo, len_hi, payload..., checksum].
Frame encode_response(const Response& response);
bool decode_response(std::span<const std::uint8_t> frame, Response& out);

// --- little-endian payload packing helpers (append in place; throw
// std::length_error past kMaxPayload). Inline: a power reading packs four
// of them per exchange. ---
inline void put_u8(Payload& out, std::uint8_t v) { out.push_back(v); }

inline void put_u16(Payload& out, std::uint16_t v) {
  const std::uint8_t bytes[] = {static_cast<std::uint8_t>(v & 0xFF),
                                static_cast<std::uint8_t>(v >> 8)};
  out.append(bytes);
}

inline void put_u32(Payload& out, std::uint32_t v) {
  const std::uint8_t bytes[] = {static_cast<std::uint8_t>(v & 0xFF),
                                static_cast<std::uint8_t>((v >> 8) & 0xFF),
                                static_cast<std::uint8_t>((v >> 16) & 0xFF),
                                static_cast<std::uint8_t>(v >> 24)};
  out.append(bytes);
}

/// Cursor-based reads; return false when the payload is exhausted.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload)
      : payload_(payload) {}
  bool read_u8(std::uint8_t& v) {
    if (payload_.size() - pos_ < 1) return false;
    v = payload_[pos_++];
    return true;
  }
  bool read_u16(std::uint16_t& v) {
    if (payload_.size() - pos_ < 2) return false;
    v = static_cast<std::uint16_t>(
        payload_[pos_] | static_cast<std::uint16_t>(payload_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool read_u32(std::uint32_t& v) {
    if (payload_.size() - pos_ < 4) return false;
    v = static_cast<std::uint32_t>(payload_[pos_]) |
        static_cast<std::uint32_t>(payload_[pos_ + 1]) << 8 |
        static_cast<std::uint32_t>(payload_[pos_ + 2]) << 16 |
        static_cast<std::uint32_t>(payload_[pos_ + 3]) << 24;
    pos_ += 4;
    return true;
  }
  bool exhausted() const { return pos_ == payload_.size(); }

 private:
  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

}  // namespace pcap::ipmi
