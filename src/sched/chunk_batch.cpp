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
  key_.cap_bits = ChunkKey::encode_cap(cap_w);
  key_.thermal_bits = thermal_bits_;
  key_.members.assign(1, self);
  key_.members.insert(key_.members.end(), co_residents.begin(),
                      co_residents.end());
  std::sort(key_.members.begin(), key_.members.end(),
            [](const CoRunMember& a, const CoRunMember& b) {
              return key_less(a, b);
            });
  Start& start = starts_.emplace_back();
  // Own result = first occurrence of own (cls, identity) in the sorted
  // member list (duplicates are interchangeable: the cell is a pure
  // function of the key).
  start.member = static_cast<std::size_t>(
      std::find_if(key_.members.begin(), key_.members.end(),
                   [&](const CoRunMember& m) { return same_key(m, self); }) -
      key_.members.begin());
  if (config_.memo) start.hit = cache_.find(key_);
  if (start.hit != nullptr) {
    ++stats_.hits;
    return;
  }
  ++stats_.misses;
  // A round misses a handful of cells, so a linear scan finds an earlier
  // one without keeping a second copy of every key in an index.
  const auto found = std::find_if(cells_.begin(), cells_.end(),
                                  [&](const Cell& c) { return c.key == key_; });
  start.cell = static_cast<std::size_t>(found - cells_.begin());
  if (found == cells_.end()) cells_.push_back({key_, {}});
}

std::span<const ChunkBatch::Outcome> ChunkBatch::run_round() {
  // The cache is not touched while the new cells simulate. A one-member
  // cell runs on a Node, so a solo result never depends on the SmpNode.
  util::parallel_for(cells_.size(), config_.jobs, [this](std::size_t c) {
    Cell& cell = cells_[c];
    if (cell.key.members.size() == 1) {
      const CoRunMember& m = cell.key.members[0];
      const ChunkKey key{m.cls, m.identity, cell.key.cap_bits,
                         cell.key.thermal_bits};
      cell.fresh = {simulate_chunk(config_.machine, config_.bmc, key, m.seed,
                                   m.chunk_index, config_.seed)};
    } else {
      cell.fresh = simulate_corun_cell(config_.machine, config_.bmc, cell.key,
                                       config_.seed, config_.corun_quantum);
    }
  });

  // Commit. find() pointers stay live across these inserts; eviction
  // happens only in the one trim() after them.
  outcomes_.clear();
  for (const Start& start : starts_) {
    const std::vector<ChunkResult>& results =
        start.hit != nullptr ? *start.hit : cells_[start.cell].fresh;
    outcomes_.push_back({results[start.member], results.size() > 1});
  }
  for (Cell& cell : cells_) {
    if (cell.key.members.size() > 1) ++stats_.corun_cells;
    if (config_.memo) {
      cache_.insert(std::move(cell.key), std::move(cell.fresh));
    }
  }
  if (config_.memo) cache_.trim();

  starts_.clear();
  cells_.clear();
  return outcomes_;
}

std::uint64_t ChunkBatch::save_store() const {
  if (!config_.memo || config_.memo_store.empty() ||
      !save_memo_store(config_.memo_store, cache_)) {
    return 0;
  }
  return cache_.size();
}

ChunkBatch::Stats ChunkBatch::stats() const {
  Stats stats = stats_;
  stats.evictions = cache_.evictions();
  return stats;
}

}  // namespace pcap::sched
