// Chunk memoization for the cluster power scheduler and the fleet
// (DESIGN.md §12, §13).
//
// Every chunk start is one co-run CELL: the chunks resident on one node
// under the cap its BMC enforces. A solo start is the one-member cell. A
// cell is simulated on a FRESH node + BMC pair (a Node for one member, an
// SmpNode for more), so its per-member results are a pure function of
// everything the simulation reads. The key, CoRunKey, holds only part of
// that: the enforced-cap bits, the thermal identity of the machine and the
// sorted (class, workload identity) multiset of the residents. The rest
// (the scheduler seed, the BMC configuration with its dithering, the rest
// of the machine configuration and the co-run quantum) is left out, so one
// cache may only serve runs that agree on it; ChunkBatch, which owns the
// cache, states the full contract. Arrival streams with repeated cells
// then replay recorded results bit-exactly instead of re-simulating: a hit
// returns the identical ChunkResults the miss recorded, and the schedule
// it produces is bit-identical to the cache-off run
// (tests/test_scheduler.cpp).
//
// The key holds every resident because co-residency changes the answer:
// the same (class, identity, cap) chunk runs slower next to an L3 thrasher
// than next to a streaming neighbour, and that slowdown is emergent from
// the shared-hierarchy SmpNode simulation, so no per-chunk key can ignore
// the neighbours (DESIGN.md §13 derives why the key must grow exactly this
// way).
//
// No node outlives its cell: a scheduler or fleet node's management plane
// (DCM/IPMI caps, health) is a core::VirtualNode, and the scheduler
// measures each node's idle draw once on a fresh node it then destroys.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/bmc.hpp"
#include "sched/job.hpp"
#include "sim/machine_config.hpp"
#include "util/units.hpp"

namespace pcap::sched {

/// Everything the scheduler consumes from one chunk execution.
struct ChunkResult {
  util::Picoseconds elapsed = 0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
};

/// simulate_chunk's argument: one chunk on a fresh Node. The memo itself
/// keys every start, solo or not, on its CoRunKey.
struct ChunkKey {
  JobClass cls = JobClass::kSireLike;
  /// Workload identity: everything make_chunk_workload's output depends on
  /// beyond the class (chunk_identity()).
  std::uint64_t identity = 0;
  /// Bit pattern of the enforced cap in watts; uncapped chunks use the
  /// pattern of -1.0 (caps are strictly positive).
  std::uint64_t cap_bits = std::bit_cast<std::uint64_t>(-1.0);
  /// Thermal fingerprint of the machine (thermal_identity_bits): thermal
  /// parameters (ambient, RC network, fan curve) change chunk outcomes
  /// through the leakage feedback, so they are part of the key.
  std::uint64_t thermal_bits = 0;

  static std::uint64_t encode_cap(std::optional<double> cap_w) {
    return std::bit_cast<std::uint64_t>(cap_w.value_or(-1.0));
  }

  bool operator==(const ChunkKey&) const = default;
};

/// One resident of a co-run cell. Ordering and equality consider only
/// (cls, identity) — seed/chunk_index are rebuild material for
/// make_chunk_workload and, by the identity contract, any (seed, chunk)
/// pair mapping to the same identity builds the bit-identical workload.
struct CoRunMember {
  JobClass cls = JobClass::kSireLike;
  std::uint64_t identity = 0;
  std::uint64_t seed = 0;
  int chunk_index = 0;

  /// The member for chunk `chunk_index` of a job of class `cls` whose
  /// input seed is `seed`.
  static CoRunMember of(JobClass cls, std::uint64_t seed, int chunk_index);

  friend bool same_key(const CoRunMember& a, const CoRunMember& b) {
    return a.cls == b.cls && a.identity == b.identity;
  }
  friend bool key_less(const CoRunMember& a, const CoRunMember& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    return a.identity < b.identity;
  }
};

/// Memo key for one cell: the enforced cap, the thermal identity and the
/// key-sorted resident multiset, one member for a solo start (the header
/// comment says what it leaves out).
struct CoRunKey {
  std::uint64_t cap_bits = std::bit_cast<std::uint64_t>(-1.0);
  /// Same contract as ChunkKey::thermal_bits.
  std::uint64_t thermal_bits = 0;
  std::vector<CoRunMember> members;  // sorted with key_less

  bool operator==(const CoRunKey& other) const {
    return cap_bits == other.cap_bits && thermal_bits == other.thermal_bits &&
           std::equal(members.begin(), members.end(), other.members.begin(),
                      other.members.end(), [](const auto& a, const auto& b) {
                        return same_key(a, b);
                      });
  }
};

struct CoRunKeyHash {
  std::size_t operator()(const CoRunKey& key) const {
    std::uint64_t h = key.cap_bits;
    h ^= key.thermal_bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    for (const CoRunMember& m : key.members) {
      h ^= m.identity + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h ^= static_cast<std::uint64_t>(m.cls) + 0x9E3779B97F4A7C15ull +
           (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// The part of make_chunk_workload's input its output actually depends on:
/// only kPhased chunks consume the (seed, chunk_index) mixture, so repeated
/// cells of the other classes collapse onto one key per (class, cap).
std::uint64_t chunk_identity(JobClass cls, std::uint64_t seed,
                             int chunk_index);

/// Fingerprint of every thermal parameter that can change a chunk outcome:
/// ambient, the single-RC legacy parameters, the RC network topology and
/// per-node/per-edge R/C values, and the fan curve. It covers no other
/// machine parameter. The default romley (degenerate single-RC, no fan)
/// hashes to a stable value.
std::uint64_t thermal_identity_bits(const sim::MachineConfig& machine);

/// Simulates one SOLO chunk as a pure function of the key: a fresh Node
/// (seeded deterministically from `node_seed_material` and the key) with
/// its own BMC enforcing `cap_w` directly — the genuine throttle ladder,
/// minus the IPMI plane the slot's management node already modelled when
/// the cap was applied. Thread-safe by construction (no shared state), so
/// the `--jobs` pool may call it concurrently.
ChunkResult simulate_chunk(const sim::MachineConfig& machine,
                           const core::BmcConfig& bmc_config,
                           const ChunkKey& key, std::uint64_t seed,
                           int chunk_index,
                           std::uint64_t node_seed_material);

/// Simulates one co-run CELL as a pure function of its key: a fresh
/// key.members.size()-core SmpNode (cooperative engine, `quantum`
/// interleave) with its own BMC enforcing the cap package-wide, every
/// member workload co-running over the shared L3/DRAM — contention and
/// capped-co-run slowdown are emergent, never assumed. Returns one
/// ChunkResult per member, parallel to key.members; per-member energy is
/// the package energy attributed by busy time (SmpCoreReport). Like
/// simulate_chunk, shares no state and is safe to fan out over `jobs`.
std::vector<ChunkResult> simulate_corun_cell(
    const sim::MachineConfig& machine, const core::BmcConfig& bmc_config,
    const CoRunKey& key, std::uint64_t node_seed_material,
    util::Picoseconds quantum);

/// Bounded memo store of recorded cells with LRU eviction and eviction
/// accounting. Not thread-safe: ChunkBatch classifies hits and inserts
/// results serially in start order (jobs-invariance), only the miss
/// simulations fan out.
///
/// Bit-identity under eviction: find() returns pointers the serial commit
/// epilogue holds across subsequent insert()s, so eviction NEVER happens
/// inline — ChunkBatch calls trim() once after the whole commit round.
/// Recency motion (list splice) and eviction order are both driven purely
/// by the serial classify/commit sequence, which is the same for every
/// `--jobs` value, so a capacity bound changes which cells re-simulate but
/// never what any simulation returns.
class ChunkCache {
 public:
  /// One recorded cell; exposed (recency-ordered) for persistence.
  struct Entry {
    CoRunKey key;
    std::vector<ChunkResult> results;  // parallel to key.members
  };

  /// capacity == 0 means unbounded (the pre-bound behaviour).
  explicit ChunkCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Per-member results of a recorded cell (parallel to key.members),
  /// touching its recency; nullptr when the cell has not been simulated
  /// yet. The pointer stays valid across insert()s and touches (std::list
  /// storage) until the next trim().
  const std::vector<ChunkResult>* find(const CoRunKey& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->results;
  }
  /// Records a cell unless its key is already present. The key moves into
  /// the entry; the map holds the one copy.
  void insert(CoRunKey key, std::vector<ChunkResult> results) {
    if (map_.contains(key)) return;
    entries_.push_front(Entry{std::move(key), std::move(results)});
    map_.emplace(entries_.front().key, entries_.begin());
  }

  /// Evicts least-recently-used entries until the size fits the capacity.
  /// Only legal at a serial commit point where no find() pointers are
  /// still live (DESIGN.md §17).
  void trim() {
    if (capacity_ == 0) return;
    while (entries_.size() > capacity_) {
      map_.erase(entries_.back().key);
      entries_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return map_.size(); }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  std::uint64_t evictions() const { return evictions_; }

  /// Recency-ordered view, most recent first (persistence writes it
  /// oldest-first so sequential re-insertion reproduces the LRU order).
  const std::list<Entry>& lru_entries() const { return entries_; }

 private:
  std::size_t capacity_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<CoRunKey, std::list<Entry>::iterator, CoRunKeyHash>
      map_;
};

}  // namespace pcap::sched
