// The chunk-round engine (DESIGN.md §12): the rack scheduler and the fleet
// start every chunk through one ChunkBatch, one round per scheduler event
// or fleet tick. Each start is one of the paper's capped-node cells — the
// node's resident chunks plus a BMC enforcing the node's cap, one member
// for a solo start — simulated as a pure function of its memo key
// (chunk_cache.hpp):
//   1. add_start() classifies each start serially, in call order, as memo
//      hit or miss; identical missed cells within a round are simulated
//      once;
//   2. run_round() simulates every new cell in one util::parallel_for over
//      `jobs` (one member on a fresh Node, more on an SmpNode), then
//      commits serially: new cells in first-seen order, one
//      ChunkCache::trim().
// Results, hit/miss counts, LRU recency and evictions therefore do not
// depend on `jobs`, and results do not depend on `memo`.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bmc.hpp"
#include "sched/chunk_cache.hpp"
#include "sim/machine_config.hpp"
#include "util/units.hpp"

namespace pcap::sched {

class ChunkBatch {
 public:
  struct Config {
    sim::MachineConfig machine = sim::MachineConfig::romley();
    core::BmcConfig bmc;
    std::uint64_t seed = 1;  // scheduler seed: seeds every fresh node
    util::Picoseconds corun_quantum = util::microseconds(5);
    std::size_t jobs = 1;    // worker threads for miss simulations
    bool memo = true;
    std::size_t memo_capacity = 0;  // LRU bound on entries; 0 = unbounded
    /// Persistent chunk-memo store (DESIGN.md §17). With `memo` on, the
    /// constructor loads it (a missing file is a cold start; a corrupt or
    /// version-mismatched file is rejected whole) and save_store() writes
    /// the cache back.
    ///
    /// Replay contract: a memo key covers each resident's job class and
    /// workload identity, the enforced-cap bits and the machine's thermal
    /// identity. It omits the scheduler `seed`, the BMC configuration
    /// (dithering included), the rest of the machine configuration and the
    /// co-run quantum, which every simulation also reads. A store may
    /// therefore only be replayed into a run with the same seed, BMC
    /// configuration, machine and quantum. Any other run replays the
    /// recorded answers without a single miss: a store recorded at seed 1
    /// turns a seed-2 run into the seed-1 schedule. ROADMAP.md's open item
    /// "Key every memoised result on its full provenance" closes this gap.
    std::string memo_store;

    /// The batch settings of a SchedulerConfig or FleetConfig, which carry
    /// fields of the same names.
    template <class RunConfig>
    static Config from(const RunConfig& run) {
      return {.machine = run.machine,
              .bmc = run.bmc,
              .seed = run.seed,
              .corun_quantum = run.corun_quantum,
              .jobs = run.jobs,
              .memo = run.memo,
              .memo_capacity = run.memo_capacity,
              .memo_store = run.memo_store};
    }
  };

  struct Outcome {
    ChunkResult result;
    bool corun = false;  // ran with at least one co-resident
  };

  /// Memo accounting since construction.
  struct Stats {
    std::uint64_t hits = 0;         // starts replayed from the cache
    std::uint64_t misses = 0;       // starts whose cell simulated
    std::uint64_t corun_cells = 0;  // distinct cells of 2+ members simulated
    std::uint64_t evictions = 0;
    std::uint64_t store_entries_loaded = 0;
    std::uint64_t store_load_rejected = 0;  // 1 = present but failed checks
  };

  explicit ChunkBatch(Config config);

  /// Adds one start to the current round: `self` is the starting lane's
  /// chunk, `co_residents` the chunks of the node's other busy lanes in
  /// lane order (empty = solo), `cap_w` the cap the node enforces.
  void add_start(const CoRunMember& self,
                 std::span<const CoRunMember> co_residents,
                 std::optional<double> cap_w);

  /// Simulates and commits the round. Returns one outcome per start, in
  /// add_start() order, valid until the next round.
  std::span<const Outcome> run_round();

  /// Writes the cache to the store. Returns the entries written: 0 when
  /// `memo` is off, no store is configured or the write failed.
  std::uint64_t save_store() const;

  Stats stats() const;

 private:
  struct Start {
    const std::vector<ChunkResult>* hit = nullptr;  // recorded results
    std::size_t cell = 0;    // index into cells_ when missed
    std::size_t member = 0;  // own position in the cell's members
  };
  struct Cell {
    CoRunKey key;
    std::vector<ChunkResult> fresh;
  };

  Config config_;
  std::uint64_t thermal_bits_ = 0;
  ChunkCache cache_;
  Stats stats_;
  // Per-round scratch, reused across rounds: `key_` is the key of the
  // start being classified, so an all-hit round touches no heap.
  CoRunKey key_;
  std::vector<Start> starts_;
  std::vector<Cell> cells_;  // missed cells, first-seen order
  std::vector<Outcome> outcomes_;
};

}  // namespace pcap::sched
