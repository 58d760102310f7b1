// Transports carry encoded IPMI frames between the management server and a
// BMC. Every responder (core::NodeIpmiServer, fleet::BudgetEndpointServer)
// is itself a Transport, so a client binds to an in-process endpoint
// directly (the BMC's dedicated NIC of the real platform); a fault-injecting
// decorator wrapped around it models the lossy management network of a
// real datacenter deployment.
#pragma once

#include <cstdint>
#include <span>

#include "ipmi/message.hpp"
#include "util/rng.hpp"

namespace pcap::ipmi {

class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends an encoded request frame, returns the encoded response frame.
  /// An empty frame means the transaction was lost.
  virtual Frame transact(std::span<const std::uint8_t> frame) = 0;

  /// Modelled one-way+return latency of the most recent transact() in
  /// simulated milliseconds. A client session compares this against its
  /// request timeout; the base transport is instantaneous.
  virtual double last_latency_ms() const { return 0.0; }
};

/// Fault model for one management-network link. Every stochastic draw comes
/// from a single seeded stream, so a given (spec, seed) reproduces the
/// identical fault sequence bit-for-bit.
struct FaultSpec {
  double drop_rate = 0.0;       // transaction lost outright (either direction)
  double duplicate_rate = 0.0;  // previous response replayed (stale frame)
  double corrupt_rate = 0.0;    // one response byte flipped (checksum-visible)
  double base_latency_ms = 0.0;       // fixed per-transaction latency
  double latency_jitter_ms = 0.0;     // extra uniform latency in [0, jitter)
  /// Periodic partitions: every `partition_period` transactions, the first
  /// `partition_length` of them are black-holed (0 = no periodic windows).
  std::uint64_t partition_period = 0;
  std::uint64_t partition_length = 0;
};

/// Decorator that injects seeded, deterministic faults into any transport:
/// frame drop, stale-duplicate replay, corruption, latency, and partitions
/// (periodic windows from the spec, or scripted via partition_for/heal).
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(Transport& inner, const FaultSpec& spec,
                  std::uint64_t seed = 7)
      : inner_(&inner), spec_(spec), rng_(seed) {}

  Frame transact(std::span<const std::uint8_t> frame) override;
  double last_latency_ms() const override { return last_latency_ms_; }

  /// Scripted partition: black-holes the next `transactions` transactions
  /// (on top of any periodic windows in the spec).
  void partition_for(std::uint64_t transactions) {
    manual_partition_left_ = transactions;
  }
  /// Ends a scripted partition immediately.
  void heal() { manual_partition_left_ = 0; }
  bool partitioned() const { return manual_partition_left_ > 0; }

  const FaultSpec& spec() const { return spec_; }

  // --- fault accounting ---
  std::uint64_t transactions() const { return transactions_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t corruptions() const { return corruptions_; }
  std::uint64_t partition_drops() const { return partition_drops_; }

 private:
  Transport* inner_;
  FaultSpec spec_;
  util::Rng rng_;
  Frame previous_response_;
  double last_latency_ms_ = 0.0;
  std::uint64_t manual_partition_left_ = 0;
  std::uint64_t transactions_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corruptions_ = 0;
  std::uint64_t partition_drops_ = 0;
};

/// Client-side session: encodes requests, assigns sequence numbers, decodes
/// responses, and rejects stale/duplicate or late replies.
class Session {
 public:
  /// `timeout_ms` > 0 discards any response whose transport latency exceeds
  /// it (the client gave up waiting); 0 disables the timeout.
  explicit Session(Transport& transport, double timeout_ms = 0.0)
      : transport_(&transport), timeout_ms_(timeout_ms) {}

  /// Why the last transact() failed (kNone on success).
  enum class Error { kNone, kLost, kTimeout, kCorrupt, kStale };

  /// Returns the decoded response. Any transport-level failure (loss,
  /// timeout, undecodable frame, stale sequence number) surfaces as
  /// CompletionCode::kUnspecified with last_error() identifying the cause;
  /// semantic errors from the responder pass through with last_error() ==
  /// kNone (retrying them cannot help).
  Response transact(const Request& request);

  Error last_error() const { return last_error_; }
  /// Modelled latency of the most recent exchange (from the transport).
  double last_latency_ms() const { return transport_->last_latency_ms(); }
  std::uint64_t transport_errors() const { return transport_errors_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t stale_rejections() const { return stale_rejections_; }

 private:
  Transport* transport_;
  double timeout_ms_;
  std::uint8_t next_seq_ = 0;
  Error last_error_ = Error::kNone;
  std::uint64_t transport_errors_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t stale_rejections_ = 0;
};

}  // namespace pcap::ipmi
