#include "sched/chunk_batch.hpp"

#include <algorithm>
#include <utility>

#include "sched/memo_store.hpp"
#include "util/thread_pool.hpp"

namespace pcap::sched {

ChunkBatch::ChunkBatch(Config config)
    : config_(std::move(config)),
      thermal_bits_(thermal_identity_bits(config_.machine)),
      cache_(config_.memo_capacity) {
  if (!config_.memo || config_.memo_store.empty()) return;
  const MemoStoreLoadResult loaded =
      load_memo_store(config_.memo_store, cache_);
  stats_.store_entries_loaded = loaded.entries_loaded;
  stats_.store_load_rejected = loaded.rejected ? 1 : 0;
  cache_.trim();  // the capacity bound applies to loaded entries too
}

void ChunkBatch::add_start(const CoRunMember& self,
                           std::span<const CoRunMember> co_residents,
                           std::optional<double> cap_w) {
  const std::size_t k = starts_.size();
  Start& start = starts_.emplace_back();
  const std::uint64_t cap_bits = ChunkKey::encode_cap(cap_w);
  if (co_residents.empty()) {
    start.self = self;
    start.key = {self.cls, self.identity, cap_bits, thermal_bits_};
    if (config_.memo) start.hit = cache_.find(start.key);
    ++(start.hit != nullptr ? stats_.hits : stats_.misses);
    if (start.hit == nullptr) misses_.push_back({false, k});
    return;
  }
  CoRunKey key;
  key.cap_bits = cap_bits;
  key.thermal_bits = thermal_bits_;
  key.members.push_back(self);
  key.members.insert(key.members.end(), co_residents.begin(),
                     co_residents.end());
  std::sort(key.members.begin(), key.members.end(),
            [](const CoRunMember& a, const CoRunMember& b) {
              return key_less(a, b);
            });
  // Own result = first occurrence of own (cls, identity) in the sorted
  // member list (duplicates are interchangeable: the cell is a pure
  // function of the key).
  start.member = static_cast<std::size_t>(
      std::find_if(key.members.begin(), key.members.end(),
                   [&](const CoRunMember& m) { return same_key(m, self); }) -
      key.members.begin());
  const auto [found, first_seen] = cell_index_.try_emplace(key, cells_.size());
  start.cell = found->second;
  if (first_seen) {
    Cell& cell = cells_.emplace_back();
    if (config_.memo) cell.hit = cache_.find_cell(key);
    if (cell.hit == nullptr) misses_.push_back({true, start.cell});
    cell.key = std::move(key);
  }
  ++(cells_[start.cell].hit != nullptr ? stats_.hits : stats_.misses);
}

std::span<const ChunkBatch::Outcome> ChunkBatch::run_round() {
  // The cache is not touched while the misses simulate.
  util::parallel_for(misses_.size(), config_.jobs, [&](std::size_t w) {
    const Miss& miss = misses_[w];
    if (miss.cell) {
      Cell& cell = cells_[miss.index];
      cell.fresh = simulate_corun_cell(config_.machine, config_.bmc, cell.key,
                                       config_.seed, config_.corun_quantum);
    } else {
      Start& start = starts_[miss.index];
      start.fresh = simulate_chunk(config_.machine, config_.bmc, start.key,
                                   start.self.seed, start.self.chunk_index,
                                   config_.seed);
    }
  });

  // Commit. find()/find_cell() pointers stay live across these inserts;
  // eviction happens only in the one trim() after them.
  outcomes_.clear();
  for (const Start& start : starts_) {
    Outcome& outcome = outcomes_.emplace_back();
    if (start.cell == kSolo) {
      outcome.result = start.hit != nullptr ? *start.hit : start.fresh;
      if (config_.memo && start.hit == nullptr) {
        cache_.insert(start.key, start.fresh);
      }
    } else {
      const Cell& cell = cells_[start.cell];
      outcome.result =
          (cell.hit != nullptr ? *cell.hit : cell.fresh)[start.member];
      outcome.corun = true;
    }
  }
  for (Cell& cell : cells_) {
    if (cell.hit != nullptr) continue;
    ++stats_.corun_cells;
    if (config_.memo) cache_.insert_cell(cell.key, std::move(cell.fresh));
  }
  if (config_.memo) cache_.trim();

  starts_.clear();
  cells_.clear();
  cell_index_.clear();
  misses_.clear();
  return outcomes_;
}

std::uint64_t ChunkBatch::save_store() const {
  if (!config_.memo || config_.memo_store.empty() ||
      !save_memo_store(config_.memo_store, cache_)) {
    return 0;
  }
  return cache_.size() + cache_.cell_count();
}

ChunkBatch::Stats ChunkBatch::stats() const {
  Stats stats = stats_;
  stats.evictions = cache_.evictions();
  return stats;
}

}  // namespace pcap::sched
