#include "cache/tlb.hpp"

#include <bit>
#include <stdexcept>

namespace pcap::cache {

Tlb::Tlb(const TlbConfig& config) : config_(config) {
  if (config.page_bytes == 0 || !std::has_single_bit(config.page_bytes)) {
    throw std::invalid_argument("Tlb: page size must be a power of two");
  }
  if (config.entries == 0) {
    throw std::invalid_argument("Tlb: need at least one entry");
  }
  page_shift_ = static_cast<std::uint32_t>(std::countr_zero(config.page_bytes));
  active_entries_ = config.entries;
  page_.assign(config.entries, 0);
  prev_.assign(config.entries, kNoSlot);
  next_.assign(config.entries, kNoSlot);
  valid_.assign(config.entries, 0);
  free_.reserve(config.entries);
  for (std::uint32_t i = 0; i < config.entries; ++i) free_.push_back(i);
  const std::size_t buckets =
      std::bit_ceil(2 * static_cast<std::size_t>(config.entries));
  index_shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(buckets));
  index_mask_ = buckets - 1;
  index_.assign(buckets, IndexEntry{});
}

void Tlb::index_insert(std::uint64_t page, std::uint32_t slot) {
  std::size_t i = home(page);
  while (index_[i].slot != kNoSlot) i = (i + 1) & index_mask_;
  index_[i] = {.page = page, .slot = slot};
}

void Tlb::index_erase(std::uint64_t page) {
  std::size_t hole = home(page);
  while (index_[hole].page != page || index_[hole].slot == kNoSlot) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole when their home does not lie between the hole and their bucket,
  // so every lookup still reaches its entry without tombstones.
  for (std::size_t j = (hole + 1) & index_mask_; index_[j].slot != kNoSlot;
       j = (j + 1) & index_mask_) {
    const std::size_t k = home(index_[j].page);
    if (((hole - k) & index_mask_) < ((j - k) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kNoSlot;
}

void Tlb::fill(std::uint64_t page) {
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    // Full: every active slot is valid, so the list tail is the LRU slot.
    slot = tail_;
    unlink(slot);
    index_erase(page_[slot]);
  }
  page_[slot] = page;
  valid_[slot] = 1;
  push_front(slot);
  index_insert(page, slot);
}

bool Tlb::note_hits(std::uint64_t vaddr, std::uint64_t n) {
  if (n == 0) return false;
  const std::uint32_t slot = find(page_of(vaddr));
  if (slot == kNoSlot) return false;
  // n back-to-back hits leave the same recency order as one, so the bulk
  // form is exact.
  stats_.accesses += n;
  touch(slot);
  return true;
}

bool Tlb::lookup(std::uint64_t vaddr) {
  ++stats_.accesses;
  const std::uint64_t page = page_of(vaddr);
  const std::uint32_t slot = find(page);
  if (slot != kNoSlot) {
    touch(slot);
    return true;
  }
  ++stats_.misses;
  fill(page);
  return false;
}

bool Tlb::contains(std::uint64_t vaddr) const {
  return find(page_of(vaddr)) != kNoSlot;
}

void Tlb::set_active_entries(std::uint32_t n) {
  if (n < 1) n = 1;
  if (n > config_.entries) n = config_.entries;
  if (n < active_entries_) {
    while (!free_.empty() && free_.back() >= n) free_.pop_back();
    for (std::uint32_t i = n; i < active_entries_; ++i) {
      if (valid_[i] == 0) continue;
      unlink(i);
      index_erase(page_[i]);
      valid_[i] = 0;
    }
  } else {
    // Every free slot is below the old width, so the stack stays sorted.
    for (std::uint32_t i = active_entries_; i < n; ++i) free_.push_back(i);
  }
  active_entries_ = n;
}

void Tlb::flush() {
  for (auto& v : valid_) v = 0;
  head_ = tail_ = kNoSlot;
  for (auto& e : index_) e.slot = kNoSlot;
  free_.clear();
  for (std::uint32_t i = 0; i < active_entries_; ++i) free_.push_back(i);
}

}  // namespace pcap::cache
