// FNV-1a: over 64-bit words for the order-sensitive digests that prove two
// schedules bit-identical (ScheduleResult, FleetResult), and over bytes for
// the memo store's payload hash (sched/memo_store.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace pcap::util {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// FNV-1a of `bytes`, continuing from the state `h`.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t h = kFnvOffset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Mixes the eight little-endian bytes of `v` into the FNV-1a state `h`.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv_mix(std::uint64_t h, double v) {
  return fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace pcap::util
