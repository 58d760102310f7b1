// Fully-associative translation lookaside buffer with LRU replacement and
// entry gating (the power-saving mechanism that produces the paper's
// instruction-TLB miss explosions at low power caps).
//
// Translations live in numbered slots; gating keeps slots [0, n) and drops
// the rest, so which slot a fill takes decides what a later shrink
// evicts. A fill takes the highest-index invalid active slot, else the
// least recently used active slot. Every operation but gating and flush is
// O(1): an open-addressing page -> slot index finds a page, an intrusive
// recency list over the valid slots names the LRU one, and a stack of
// free slots names the highest invalid one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/arena.hpp"

namespace pcap::cache {

struct TlbConfig {
  std::string name = "tlb";
  std::uint32_t entries = 64;
  std::uint32_t page_bytes = 4096;  // power of two
};

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses)
                    : 0.0;
  }
};

class Tlb {
 public:
  /// Throws std::invalid_argument on a non-power-of-two page size or zero
  /// entry count.
  explicit Tlb(const TlbConfig& config);

  const TlbConfig& config() const { return config_; }
  std::uint32_t active_entries() const { return active_entries_; }

  /// Translates the page of `vaddr`. Returns true on a TLB hit; on a miss
  /// the translation is installed (evicting the LRU entry if full).
  bool lookup(std::uint64_t vaddr);

  /// Fast-path bulk hit: when the page of `vaddr` is mapped, accounts `n`
  /// back-to-back hits (statistics, entry recency) exactly as `n` lookup()
  /// calls would and returns true. Otherwise (or for n == 0) accounts
  /// nothing and returns false — the caller falls back to lookup().
  bool note_hits(std::uint64_t vaddr, std::uint64_t n = 1);

  /// True if the page is currently cached (no LRU update).
  bool contains(std::uint64_t vaddr) const;

  /// Gates entries [n, entries): flushed and excluded until re-enabled.
  /// n is clamped to [1, entries].
  void set_active_entries(std::uint32_t n);

  void flush();

  /// Pages the TLB can map with current gating.
  std::uint64_t reach_bytes() const {
    return static_cast<std::uint64_t>(active_entries_) * config_.page_bytes;
  }

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TlbStats{}; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // One page -> slot mapping; slot == kNoSlot marks an empty bucket.
  struct IndexEntry {
    std::uint64_t page = 0;
    std::uint32_t slot = kNoSlot;
  };

  std::uint64_t page_of(std::uint64_t vaddr) const {
    return vaddr >> page_shift_;
  }
  /// Home bucket of `page` (Fibonacci hashing onto the index size).
  std::size_t home(std::uint64_t page) const {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }
  /// Slot mapping `page`, or kNoSlot. The index holds exactly the valid
  /// slots and is at most half full, so the probe always ends.
  std::uint32_t find(std::uint64_t page) const {
    std::size_t i = home(page);
    while (true) {
      const IndexEntry& e = index_[i];
      if (e.slot == kNoSlot || e.page == page) return e.slot;
      i = (i + 1) & index_mask_;
    }
  }
  void index_insert(std::uint64_t page, std::uint32_t slot);
  void index_erase(std::uint64_t page);
  /// Installs `page` in the slot the replacement rule picks.
  void fill(std::uint64_t page);

  // Recency list over the valid slots, most recent at the head.
  void unlink(std::uint32_t slot) {
    const std::uint32_t prev = prev_[slot];
    const std::uint32_t next = next_[slot];
    (prev == kNoSlot ? head_ : next_[prev]) = next;
    (next == kNoSlot ? tail_ : prev_[next]) = prev;
  }
  void push_front(std::uint32_t slot) {
    prev_[slot] = kNoSlot;
    next_[slot] = head_;
    (head_ == kNoSlot ? tail_ : prev_[head_]) = slot;
    head_ = slot;
  }
  void touch(std::uint32_t slot) {
    if (slot == head_) return;
    unlink(slot);
    push_front(slot);
  }

  TlbConfig config_;
  std::uint32_t page_shift_ = 12;
  std::uint32_t active_entries_ = 0;
  std::uint32_t index_shift_ = 0;  // 64 - log2(index size)
  std::size_t index_mask_ = 0;
  std::uint32_t head_ = kNoSlot;  // most recently used valid slot
  std::uint32_t tail_ = kNoSlot;  // least recently used valid slot
  // Per-slot state, drawn from the ambient cell arena when a chunk
  // simulation builds the TLB under a CellArenaScope (DESIGN.md §17); heap
  // otherwise. A slot is valid exactly when the index maps its page to it.
  std::vector<std::uint64_t, util::CellAllocator<std::uint64_t>> page_;
  std::vector<std::uint32_t, util::CellAllocator<std::uint32_t>> prev_;
  std::vector<std::uint32_t, util::CellAllocator<std::uint32_t>> next_;
  std::vector<std::uint8_t, util::CellAllocator<std::uint8_t>> valid_;
  // Invalid active slots in ascending order: the back is the highest.
  std::vector<std::uint32_t, util::CellAllocator<std::uint32_t>> free_;
  // Open addressing with linear probing, power-of-two size >= 2 * entries.
  std::vector<IndexEntry, util::CellAllocator<IndexEntry>> index_;
  TlbStats stats_;
};

}  // namespace pcap::cache
