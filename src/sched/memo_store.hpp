// Persistent chunk-memo store (DESIGN.md §17): serializes a ChunkCache's
// recorded cells (a solo chunk is a one-member cell) to a versioned on-disk
// format so a later run of the SAME study starts warm — every chunk whose
// key was recorded replays bit-exactly from disk with zero misses.
//
// Integrity contract: a store is trusted WHOLE or not at all. The header
// carries a magic, a format version and an FNV-1a hash of the entire
// payload; any mismatch (wrong magic, any version but the current v2 —
// v1 files included, hash mismatch, truncation, trailing bytes, an
// out-of-range class byte, an empty member list, a count larger than the
// payload can hold) rejects the file and leaves the cache untouched
// (tests/test_memo_store.cpp, including the MemoStoreFuzz byte flips,
// truncations and seeded garbage). Integrity is not provenance: the keys
// cover cap, thermal identity and each resident's class and identity
// only, so which runs a store may be replayed into is ChunkBatch's
// contract (chunk_batch.hpp, ChunkBatch::Config::memo_store).
//
// Entries are written oldest-first so sequential re-insertion reproduces
// the recency order the cache had at save time — LRU eviction then behaves
// identically whether the entries arrived by simulation or from disk.
#pragma once

#include <cstdint>
#include <string>

#include "sched/chunk_cache.hpp"

namespace pcap::sched {

/// Counters from one load_memo_store call (all zero when the file was
/// absent, which is a normal cold start, not an error).
struct MemoStoreLoadResult {
  bool file_present = false;
  bool rejected = false;       // present but failed validation, whole file
  std::uint64_t entries_loaded = 0;
  std::string error;           // human-readable reason when rejected
};

/// Serializes every recorded entry of `cache` to `path` (atomically: a
/// temp file is written then renamed). Returns false (with `error` filled
/// when non-null) on I/O failure.
bool save_memo_store(const std::string& path, const ChunkCache& cache,
                     std::string* error = nullptr);

/// Loads a store written by save_memo_store into `cache`. The file is
/// parsed and validated COMPLETELY before the cache is touched; on any
/// validation failure the cache is left exactly as it was. A missing file
/// is a cold start: file_present = false, not rejected.
MemoStoreLoadResult load_memo_store(const std::string& path,
                                    ChunkCache& cache);

}  // namespace pcap::sched
