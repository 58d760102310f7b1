// Deterministic retry scheduling: exponential backoff with seeded jitter.
//
// Retrying a lossy request at a fixed period synchronises every client in
// the fleet onto the same retry instants (retry storms); exponential growth
// with jitter decorrelates them. All randomness comes from the caller's Rng,
// so a fixed seed reproduces the identical schedule — the same property the
// rest of the simulator guarantees.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace pcap::util {

/// Retry budget for a lossy request/response exchange.
struct BackoffPolicy {
  std::uint32_t max_attempts = 4;  // total tries, including the first
};

/// Nominal delay before the first retry, its growth per subsequent retry,
/// the ceiling on any single delay and the +/- jitter fraction.
inline constexpr double kBackoffBaseMs = 1.0;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kBackoffMaxMs = 50.0;
inline constexpr double kBackoffJitter = 0.25;

/// Per-transaction timeout a retrying client hands its ipmi::Session.
inline constexpr double kRequestTimeoutMs = 25.0;

/// Nominal (jitter-free) delay before retry `retry` (0-based: the wait
/// after the first failed attempt), clamped to kBackoffMaxMs.
inline double backoff_nominal_ms(std::uint32_t retry) {
  double delay = kBackoffBaseMs;
  for (std::uint32_t i = 0; i < retry; ++i) {
    delay *= kBackoffMultiplier;
    if (delay >= kBackoffMaxMs) break;  // already at the ceiling
  }
  return std::min(delay, kBackoffMaxMs);
}

/// Jittered delay: nominal * (1 + kBackoffJitter * u) with u uniform in
/// [-1, 1). Never negative; deterministic for a fixed seed and draw
/// sequence.
inline double backoff_delay_ms(std::uint32_t retry, Rng& rng) {
  const double nominal = backoff_nominal_ms(retry);
  const double u = rng.uniform(-1.0, 1.0);
  return std::max(0.0, nominal * (1.0 + kBackoffJitter * u));
}

}  // namespace pcap::util
