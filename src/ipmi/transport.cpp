#include "ipmi/transport.hpp"


namespace pcap::ipmi {

Frame FaultyTransport::transact(std::span<const std::uint8_t> frame) {
  ++transactions_;

  // Latency is drawn first so the stream position is independent of which
  // fault (if any) fires afterwards.
  double latency = spec_.base_latency_ms;
  if (spec_.latency_jitter_ms > 0.0) {
    latency += rng_.uniform(0.0, spec_.latency_jitter_ms);
  }
  last_latency_ms_ = latency;

  bool in_partition = manual_partition_left_ > 0;
  if (manual_partition_left_ > 0) --manual_partition_left_;
  if (!in_partition && spec_.partition_period > 0 &&
      spec_.partition_length > 0) {
    in_partition =
        (transactions_ - 1) % spec_.partition_period < spec_.partition_length;
  }
  if (in_partition) {
    ++partition_drops_;
    return {};
  }

  if (spec_.drop_rate > 0.0 && rng_.chance(spec_.drop_rate)) {
    ++drops_;
    return {};
  }
  if (spec_.duplicate_rate > 0.0 && rng_.chance(spec_.duplicate_rate) &&
      !previous_response_.empty()) {
    // The network delivers a copy of an earlier response instead of this
    // transaction's: a well-formed frame with a stale sequence number.
    ++duplicates_;
    return previous_response_;
  }

  Frame response = inner_->transact(frame);
  if (!response.empty()) previous_response_ = response;
  if (!response.empty() && spec_.corrupt_rate > 0.0 &&
      rng_.chance(spec_.corrupt_rate)) {
    ++corruptions_;
    const std::size_t i = rng_.below(response.size());
    response[i] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
  }
  return response;
}

Response Session::transact(const Request& request) {
  const std::uint8_t seq = next_seq_++;  // uint8 wrap is the IPMI rqSeq modulus
  const Frame frame = encode_request(request, seq);
  const Frame reply = transport_->transact(frame);
  // Every path returns this one object, so it is built in the caller's
  // return slot; a default Response is the kUnspecified failure reply.
  Response response;
  last_error_ = Error::kNone;
  if (reply.empty()) {
    last_error_ = Error::kLost;
  } else if (timeout_ms_ > 0.0 &&
             transport_->last_latency_ms() > timeout_ms_) {
    // The reply arrived after the client stopped waiting; discard it even
    // if well-formed.
    last_error_ = Error::kTimeout;
    ++timeouts_;
  } else if (!decode_response(reply, response)) {  // leaves `response` as is
    last_error_ = Error::kCorrupt;
  } else if (response.seq != seq) {
    last_error_ = Error::kStale;
    ++stale_rejections_;
    response = Response{};
  }
  if (last_error_ != Error::kNone) ++transport_errors_;
  return response;
}

}  // namespace pcap::ipmi
