// FNV-1a over 64-bit words: the order-sensitive digests that prove two
// schedules bit-identical (ScheduleResult, FleetResult).
#pragma once

#include <bit>
#include <cstdint>

namespace pcap::util {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/// Mixes the eight little-endian bytes of `v` into the FNV-1a state `h`.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

inline std::uint64_t fnv_mix(std::uint64_t h, double v) {
  return fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace pcap::util
