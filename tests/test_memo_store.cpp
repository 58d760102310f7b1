// Persistent chunk-memo store (src/sched/memo_store.*, DESIGN.md §17):
//  * a saved store reloads bit-exactly — entries, values and LRU recency —
//    and a warm scheduler run is a pure replay: zero chunk misses and a
//    bit-identical schedule digest;
//  * at two lanes per node, co-run cells round-trip through a real run the
//    same way;
//  * a store is trusted WHOLE or not at all: version mismatch (a v1 store
//    included), truncation and a single flipped payload bit each reject
//    the file and leave the cache untouched (a corrupt store can cost
//    speed, never correctness);
//  * a missing file is a normal cold start, not an error;
//  * keys embed the thermal identity, so a store recorded under thermal
//    configuration A is structurally unable to serve configuration B;
//  * LRU capacity bounding composes with the store: eviction changes what
//    re-simulates, never what any simulation returns;
//  * the schedule digest is invariant across the whole grid of
//    jobs x memo on/off x store on/off;
//  * fuzzed the way IpmiFuzz fuzzes frames: every single-byte flip and
//    every truncation of a recorded store is rejected, and seeded garbage
//    (including garbage under a valid header) never crashes the loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sched/amenability_table.hpp"
#include "sched/arrivals.hpp"
#include "sched/chunk_cache.hpp"
#include "sched/job.hpp"
#include "sched/memo_store.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcap::sched {
namespace {

// Synthetic per-class knee curves (same shape test_scheduler.cpp uses):
// runs must work from any complete table, none of these characterise.
AmenabilityTable synthetic_table() {
  AmenabilityTable table;
  const double steep[] = {10.5, 11.4, 3.0, 16.7};
  for (int c = 0; c < kJobClassCount; ++c) {
    ClassCurve curve;
    curve.cls = static_cast<JobClass>(c);
    curve.baseline_power_w = 155.0;
    curve.baseline_time_s = 450e-6;
    curve.usable_floor_w = 135.0;
    for (const double cap : {115.0, 125.0, 135.0, 150.0}) {
      core::AmenabilityPoint p;
      p.cap_w = cap;
      p.measured_power_w = std::min(cap, 155.0);
      const double depth = std::max(0.0, 135.0 - cap) / 15.0;
      p.slowdown = 1.0 + (steep[c] - 1.0) * depth;
      p.energy_ratio = p.slowdown * p.measured_power_w / 155.0;
      curve.points.push_back(p);
    }
    table.set_curve(curve);
  }
  return table;
}

std::vector<JobSpec> small_stream(int jobs) {
  ArrivalConfig config;
  config.job_count = jobs;
  config.min_chunks = 2;
  config.max_chunks = 4;
  config.seed = 5;
  return generate_stream(config);
}

SchedulerConfig base_config(const AmenabilityTable* table,
                            const std::string& store) {
  SchedulerConfig config;
  config.node_count = 4;
  config.budget_w = 500.0;
  config.policy_name = "amenability";
  config.seed = 5;
  config.table = table;
  config.memo_store = store;
  return config;
}

std::string store_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ChunkResult make_result(double scale) {
  ChunkResult r;
  r.elapsed = static_cast<util::Picoseconds>(1000 * scale);
  r.energy_j = 0.125 * scale;
  r.avg_power_w = 140.0 + scale;
  return r;
}

/// The one-member cell of a solo chunk of class `cls` under `cap_w`.
CoRunKey solo_key(JobClass cls, double cap_w) {
  CoRunKey key;
  key.cap_bits = ChunkKey::encode_cap(cap_w);
  key.thermal_bits = 7;
  key.members.push_back(CoRunMember::of(cls, 3, 0));
  return key;
}

/// A two-member co-run cell.
CoRunKey pair_key() {
  CoRunKey key;
  key.cap_bits = ChunkKey::encode_cap(135.0);
  key.thermal_bits = 7;
  key.members.push_back({JobClass::kSireLike, 11, 3, 0});
  key.members.push_back({JobClass::kStrideLike, 22, 3, 1});
  return key;
}

void expect_results_equal(const ChunkResult& a, const ChunkResult& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
}

TEST(MemoStoreTest, SaveLoadRoundTripsEntriesValuesAndRecency) {
  const std::string path = store_path("roundtrip.pcms");
  std::remove(path.c_str());

  ChunkCache cache;
  cache.insert(solo_key(JobClass::kSireLike, 125.0), {make_result(1.0)});
  cache.insert(solo_key(JobClass::kStereoLike, 150.0), {make_result(2.0)});
  const CoRunKey cell = pair_key();
  cache.insert(cell, {make_result(3.0), make_result(4.0)});
  // Touch the first solo entry so the saved recency order is not insertion
  // order: the reloaded cache must evict in the same order the original
  // would have.
  ASSERT_NE(cache.find(solo_key(JobClass::kSireLike, 125.0)), nullptr);

  ASSERT_TRUE(save_memo_store(path, cache));
  ChunkCache reloaded;
  const MemoStoreLoadResult load = load_memo_store(path, reloaded);
  EXPECT_TRUE(load.file_present);
  EXPECT_FALSE(load.rejected) << load.error;
  EXPECT_EQ(load.entries_loaded, 3u);
  EXPECT_EQ(reloaded.size(), 3u);

  const std::vector<ChunkResult>* solo =
      reloaded.find(solo_key(JobClass::kSireLike, 125.0));
  ASSERT_NE(solo, nullptr);
  ASSERT_EQ(solo->size(), 1u);
  expect_results_equal((*solo)[0], make_result(1.0));
  const std::vector<ChunkResult>* got = reloaded.find(cell);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), 2u);
  expect_results_equal((*got)[0], make_result(3.0));
  expect_results_equal((*got)[1], make_result(4.0));

  // Recency survives the round trip. At save time the order (most recent
  // first) was: solo kSireLike (touched by the find above), the cell, solo
  // kStereoLike. Trimming a fresh reload to capacity 2 must evict exactly
  // the kStereoLike entry — the same victim the original cache would pick.
  ChunkCache trimmed;
  ASSERT_FALSE(load_memo_store(path, trimmed).rejected);
  trimmed.set_capacity(2);
  trimmed.trim();
  EXPECT_EQ(trimmed.size(), 2u);
  EXPECT_NE(trimmed.find(solo_key(JobClass::kSireLike, 125.0)), nullptr);
  EXPECT_NE(trimmed.find(cell), nullptr);
  EXPECT_EQ(trimmed.find(solo_key(JobClass::kStereoLike, 150.0)), nullptr);
  std::remove(path.c_str());
}

TEST(MemoStoreTest, WarmRunReplaysBitExactlyWithZeroMisses) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(8);
  const std::string path = store_path("warm.pcms");
  std::remove(path.c_str());

  SchedulerConfig config = base_config(&table, path);
  const ScheduleResult cold = ClusterScheduler(config).run(stream);
  EXPECT_GT(cold.memo_misses, 0u);
  EXPECT_EQ(cold.store_entries_loaded, 0u);
  EXPECT_GT(cold.store_entries_saved, 0u);
  EXPECT_LE(cold.store_entries_saved, cold.memo_misses);

  const ScheduleResult warm = ClusterScheduler(config).run(stream);
  EXPECT_EQ(warm.store_load_rejected, 0u);
  EXPECT_EQ(warm.store_entries_loaded, cold.store_entries_saved);
  EXPECT_EQ(warm.memo_misses, 0u) << "warm run re-simulated chunks";
  EXPECT_EQ(warm.memo_hits, warm.chunks);
  EXPECT_EQ(warm.schedule_digest(), cold.schedule_digest());
  EXPECT_EQ(warm.makespan_s, cold.makespan_s);
  EXPECT_EQ(warm.total_energy_j, cold.total_energy_j);
  std::remove(path.c_str());
}

TEST(MemoStoreTest, TwoLaneWarmRunReplaysCellsWithZeroMisses) {
  // Two lanes per node co-run chunks, so the store round-trips co-run
  // cells (two or more members) beside the one-member solo cells.
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(8);
  const std::string path = store_path("warm_lanes.pcms");
  std::remove(path.c_str());

  SchedulerConfig config = base_config(&table, path);
  config.lanes_per_node = 2;
  const ScheduleResult cold = ClusterScheduler(config).run(stream);
  EXPECT_GT(cold.corun_cells, 0u);
  EXPECT_GT(cold.store_entries_saved, cold.corun_cells);

  const ScheduleResult warm = ClusterScheduler(config).run(stream);
  EXPECT_EQ(warm.store_load_rejected, 0u);
  EXPECT_EQ(warm.store_entries_loaded, cold.store_entries_saved);
  EXPECT_EQ(warm.memo_misses, 0u) << "warm run re-simulated chunks";
  EXPECT_EQ(warm.corun_cells, 0u);
  EXPECT_EQ(warm.memo_hits, warm.chunks);
  EXPECT_EQ(warm.schedule_digest(), cold.schedule_digest());
  std::remove(path.c_str());
}

/// A well-formed store in the retired v1 layout, which tagged each entry
/// with a kind byte: one solo record (kind 0) under a valid payload hash.
std::vector<std::uint8_t> v1_store_bytes() {
  std::vector<std::uint8_t> payload;
  const auto put = [&payload](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) payload.push_back((v >> (8 * i)) & 0xFF);
  };
  put(1, 8);  // entry count
  put(0, 1);  // kind: solo chunk
  put(static_cast<std::uint64_t>(JobClass::kSireLike), 1);
  put(0, 8);  // identity
  put(ChunkKey::encode_cap(125.0), 8);
  put(thermal_identity_bits(sim::MachineConfig::romley()), 8);
  for (int i = 0; i < 3; ++i) put(1000, 8);  // elapsed, energy, power
  std::vector<std::uint8_t> file = {'P', 'C', 'M', 'S', 1, 0, 0, 0};
  const std::uint64_t hash = util::fnv1a(payload);
  for (int i = 0; i < 8; ++i) file.push_back((hash >> (8 * i)) & 0xFF);
  file.insert(file.end(), payload.begin(), payload.end());
  return file;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

TEST(MemoStoreTest, V1StoreIsRejectedWholeAndTheRunStartsCold) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);
  const std::string path = store_path("v1.pcms");
  write_bytes(path, v1_store_bytes());

  ChunkCache cache;
  const MemoStoreLoadResult load = load_memo_store(path, cache);
  EXPECT_TRUE(load.rejected);
  EXPECT_NE(load.error.find("unsupported format version 1"),
            std::string::npos)
      << load.error;
  EXPECT_EQ(cache.size(), 0u);

  const ScheduleResult plain =
      ClusterScheduler(base_config(&table, "")).run(stream);
  const ScheduleResult v1 =
      ClusterScheduler(base_config(&table, path)).run(stream);
  EXPECT_EQ(v1.store_load_rejected, 1u);
  EXPECT_EQ(v1.store_entries_loaded, 0u);
  EXPECT_EQ(v1.memo_misses, plain.memo_misses);
  EXPECT_EQ(v1.memo_hits, plain.memo_hits);
  EXPECT_EQ(v1.schedule_digest(), plain.schedule_digest());
  std::remove(path.c_str());
}

TEST(MemoStoreTest, VersionMismatchRejectsWholeStore) {
  const std::string path = store_path("version.pcms");
  std::remove(path.c_str());
  ChunkCache cache;
  cache.insert(solo_key(JobClass::kSireLike, 125.0), {make_result(1.0)});
  ASSERT_TRUE(save_memo_store(path, cache));

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // u32 version follows the 4-byte magic
    const char bumped = 0x7F;
    f.write(&bumped, 1);
  }
  ChunkCache loaded;
  const MemoStoreLoadResult load = load_memo_store(path, loaded);
  EXPECT_TRUE(load.file_present);
  EXPECT_TRUE(load.rejected);
  EXPECT_EQ(load.entries_loaded, 0u);
  EXPECT_EQ(loaded.size(), 0u)
      << "rejected store leaked entries into the cache";
  std::remove(path.c_str());
}

TEST(MemoStoreTest, TruncationAndBitFlipRejectWholeStore) {
  const std::string path = store_path("corrupt.pcms");
  std::remove(path.c_str());
  ChunkCache cache;
  cache.insert(solo_key(JobClass::kSireLike, 125.0), {make_result(1.0)});
  cache.insert(solo_key(JobClass::kPhased, 115.0), {make_result(2.0)});
  ASSERT_TRUE(save_memo_store(path, cache));

  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);

  // Truncated anywhere: rejected whole.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 1));
  }
  ChunkCache truncated;
  EXPECT_TRUE(load_memo_store(path, truncated).rejected);
  EXPECT_EQ(truncated.size(), 0u);

  // A single flipped payload bit: the FNV hash catches it, rejected whole —
  // never "the entries before the flip".
  std::string flipped = bytes;
  flipped[flipped.size() - 3] = static_cast<char>(flipped[flipped.size() - 3] ^ 0x10);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  ChunkCache bitflip;
  EXPECT_TRUE(load_memo_store(path, bitflip).rejected);
  EXPECT_EQ(bitflip.size(), 0u);

  // Trailing garbage after a valid payload: also rejected whole.
  std::string trailing = bytes + "x";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(trailing.data(), static_cast<std::streamsize>(trailing.size()));
  }
  ChunkCache trailed;
  EXPECT_TRUE(load_memo_store(path, trailed).rejected);
  EXPECT_EQ(trailed.size(), 0u);
  std::remove(path.c_str());
}

TEST(MemoStoreTest, MissingFileIsAColdStartNotAnError) {
  const std::string path = store_path("never_written.pcms");
  std::remove(path.c_str());
  ChunkCache cache;
  const MemoStoreLoadResult load = load_memo_store(path, cache);
  EXPECT_FALSE(load.file_present);
  EXPECT_FALSE(load.rejected);
  EXPECT_EQ(load.entries_loaded, 0u);
}

TEST(MemoStoreTest, StoreRecordedUnderThermalConfigANeverServesConfigB) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);
  const std::string path = store_path("thermal.pcms");
  std::remove(path.c_str());

  // Record the store under the default (single-RC) thermal machine.
  SchedulerConfig a = base_config(&table, path);
  const ScheduleResult cold_a = ClusterScheduler(a).run(stream);
  ASSERT_GT(cold_a.store_entries_saved, 0u);

  // Same study on the thermal-network machine: different thermal identity,
  // so every key misses — the loaded entries are dead weight, never a wrong
  // answer. The run must match a storeless cold run of config B bit for bit.
  SchedulerConfig b = base_config(&table, path);
  b.machine = sim::MachineConfig::romley_thermal();
  SchedulerConfig b_plain = b;
  b_plain.memo_store.clear();
  ASSERT_NE(thermal_identity_bits(b.machine),
            thermal_identity_bits(a.machine));

  const ScheduleResult b_stored = ClusterScheduler(b).run(stream);
  const ScheduleResult b_cold = ClusterScheduler(b_plain).run(stream);
  EXPECT_EQ(b_stored.store_load_rejected, 0u);
  EXPECT_GT(b_stored.store_entries_loaded, 0u);  // loaded fine, just unused
  EXPECT_EQ(b_stored.memo_hits, b_cold.memo_hits);
  EXPECT_EQ(b_stored.memo_misses, b_cold.memo_misses)
      << "foreign-thermal entries served hits";
  EXPECT_EQ(b_stored.schedule_digest(), b_cold.schedule_digest());
  std::remove(path.c_str());
}

TEST(MemoStoreTest, ThermalIdentityCoversEveryThermalField) {
  // Every field of the machine's thermal network and fan reaches the bits,
  // so no memo entry is served across a thermal change. Checked on the
  // single-RC default and on the fitted four-node network.
  for (const sim::MachineConfig& base :
       {sim::MachineConfig::romley(), sim::MachineConfig::romley_thermal()}) {
    const std::uint64_t base_bits = thermal_identity_bits(base);
    const auto expect_changes = [&](const std::string& field,
                                    const auto& perturb) {
      sim::MachineConfig m = base;
      perturb(m);
      EXPECT_NE(thermal_identity_bits(m), base_bits)
          << field << " (" << base.thermal.nodes.size() << "-node base)";
    };
    using M = sim::MachineConfig;
    expect_changes("ambient", [](M& m) { m.thermal.ambient_c += 1.0; });
    for (std::size_t i = 0; i < base.thermal.nodes.size(); ++i) {
      const std::string node = "node " + std::to_string(i);
      expect_changes(node + " C", [i](M& m) {
        m.thermal.nodes[i].heat_capacity_j_per_c *= 2.0;
      });
      expect_changes(node + " R", [i](M& m) {
        m.thermal.nodes[i].r_to_ambient_c_per_w += 0.1;
      });
    }
    for (std::size_t k = 0; k < base.thermal.edges.size(); ++k) {
      const std::string edge = "edge " + std::to_string(k);
      expect_changes(edge + " a", [k](M& m) { m.thermal.edges[k].a += 1; });
      expect_changes(edge + " b", [k](M& m) { m.thermal.edges[k].b += 1; });
      expect_changes(edge + " R",
                     [k](M& m) { m.thermal.edges[k].r_c_per_w *= 2.0; });
    }
    for (std::size_t s = 0; s < base.thermal.source_node.size(); ++s) {
      expect_changes("source " + std::to_string(s),
                     [s](M& m) { m.thermal.source_node[s] += 1; });
    }
    expect_changes("sensor", [](M& m) { m.thermal.sensor_node += 1; });
    expect_changes("exhaust", [](M& m) { m.thermal.exhaust_node += 1; });
    expect_changes("legacy_tau", [](M& m) {
      m.thermal.legacy_tau += util::microseconds(100.0);
    });
    expect_changes("fan max_rpm", [](M& m) { m.fan.max_rpm += 100.0; });
    expect_changes("fan min_rpm", [](M& m) { m.fan.min_rpm += 100.0; });
    expect_changes("fan levels", [](M& m) { m.fan.levels += 1; });
    expect_changes("fan max_power_w", [](M& m) { m.fan.max_power_w += 1.0; });
    expect_changes("fan r_still",
                   [](M& m) { m.fan.r_still_c_per_w += 0.01; });
    expect_changes("fan r_max_flow",
                   [](M& m) { m.fan.r_max_flow_c_per_w += 0.01; });
    expect_changes("fan flow_exponent",
                   [](M& m) { m.fan.flow_exponent += 0.1; });
  }
}

TEST(MemoStoreTest, LruCapacityBoundsTheStoreAndStaysBitIdentical) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(8);
  const std::string path = store_path("capacity.pcms");
  std::remove(path.c_str());

  SchedulerConfig unbounded = base_config(&table, "");
  const ScheduleResult full = ClusterScheduler(unbounded).run(stream);

  SchedulerConfig bounded = base_config(&table, path);
  bounded.memo_capacity = 2;
  const ScheduleResult capped = ClusterScheduler(bounded).run(stream);
  // Eviction is a pure performance/memory knob.
  EXPECT_EQ(capped.schedule_digest(), full.schedule_digest());
  EXPECT_GT(capped.memo_evictions, 0u);
  EXPECT_LE(capped.store_entries_saved, 2u);

  // The warm rerun only gets the surviving entries, re-simulates the rest,
  // and still produces the identical schedule.
  const ScheduleResult rerun = ClusterScheduler(bounded).run(stream);
  EXPECT_LE(rerun.store_entries_loaded, 2u);
  EXPECT_EQ(rerun.schedule_digest(), full.schedule_digest());
  std::remove(path.c_str());
}

TEST(MemoStoreTest, DigestInvariantAcrossJobsMemoAndStoreGrid) {
  const AmenabilityTable table = synthetic_table();
  const auto stream = small_stream(6);
  const std::string path = store_path("grid.pcms");
  std::remove(path.c_str());

  SchedulerConfig reference = base_config(&table, "");
  const ScheduleResult want = ClusterScheduler(reference).run(stream);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    for (const bool memo : {true, false}) {
      for (const bool store : {false, true}) {
        SchedulerConfig config = base_config(&table, store ? path : "");
        config.jobs = jobs;
        config.memo = memo;
        const ScheduleResult got = ClusterScheduler(config).run(stream);
        EXPECT_EQ(got.schedule_digest(), want.schedule_digest())
            << "jobs=" << jobs << " memo=" << memo << " store=" << store;
        EXPECT_EQ(got.makespan_s, want.makespan_s);
        EXPECT_EQ(got.total_energy_j, want.total_energy_j);
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// MemoStoreFuzz: the loader is fed untrusted bytes from disk
// ---------------------------------------------------------------------------

/// A recorded v2 store holding two one-member (solo) cells and one
/// two-member cell.
std::vector<std::uint8_t> recorded_store(const std::string& path) {
  ChunkCache cache;
  cache.insert(solo_key(JobClass::kSireLike, 125.0), {make_result(1.0)});
  cache.insert(solo_key(JobClass::kPhased, 115.0), {make_result(2.0)});
  cache.insert(pair_key(), {make_result(3.0), make_result(4.0)});
  EXPECT_TRUE(save_memo_store(path, cache));
  std::ifstream f(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

/// Loads `bytes` through a file; a rejected load must leave the cache
/// empty.
MemoStoreLoadResult load_bytes(const std::string& path,
                               const std::vector<std::uint8_t>& bytes) {
  write_bytes(path, bytes);
  ChunkCache cache;
  const MemoStoreLoadResult load = load_memo_store(path, cache);
  if (load.rejected) {
    EXPECT_EQ(cache.size(), 0u) << load.error;
  }
  return load;
}

TEST(MemoStoreFuzz, EverySingleByteFlipRejected) {
  const std::string path = store_path("fuzz_flip.pcms");
  const std::vector<std::uint8_t> bytes = recorded_store(path);
  ASSERT_GT(bytes.size(), 100u);
  ASSERT_FALSE(load_bytes(path, bytes).rejected);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x10, 0x80, 0xFF}) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ mask);
      EXPECT_TRUE(load_bytes(path, mutated).rejected)
          << "byte " << i << " mask " << int{mask};
    }
  }
  std::remove(path.c_str());
}

TEST(MemoStoreFuzz, EveryTruncationRejected) {
  const std::string path = store_path("fuzz_truncate.pcms");
  const std::vector<std::uint8_t> bytes = recorded_store(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    const MemoStoreLoadResult load = load_bytes(path, prefix);
    EXPECT_TRUE(load.file_present);
    EXPECT_TRUE(load.rejected) << "prefix " << len;
  }
  std::remove(path.c_str());
}

TEST(MemoStoreFuzz, SeededGarbageNeverCrashes) {
  const std::string path = store_path("fuzz_garbage.pcms");
  const std::vector<std::uint8_t> recorded = recorded_store(path);
  util::Rng rng(0x9C35);
  auto garbage = [&](std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
    return out;
  };
  // Pure garbage, with and without the real magic and version in front.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes = garbage(rng.below(4 * recorded.size()));
    if (trial % 2 == 0 && bytes.size() >= 8) {
      std::copy(recorded.begin(), recorded.begin() + 8, bytes.begin());
    }
    (void)load_bytes(path, bytes);
  }
  // Garbage under a valid header (magic, version, matching payload hash),
  // so the entry parser itself sees it: random counts, class bytes and
  // member counts, sometimes spliced from the recorded payload. Any
  // outcome but a crash or an oversized allocation is fine; an accepted
  // store loads exactly the entries it declares.
  const std::vector<std::uint8_t> payload(recorded.begin() + 16,
                                          recorded.end());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> body;
    switch (trial % 3) {
      case 0:
        body = garbage(rng.below(512));
        break;
      case 1:  // the recorded payload with a few bytes overwritten
        body = payload;
        for (int k = 0; k < 1 + static_cast<int>(rng.below(4)); ++k) {
          body[rng.below(body.size())] =
              static_cast<std::uint8_t>(rng.below(256));
        }
        break;
      default:  // a small entry count, then garbage cells whose first
                // member count is small too (bytes 24..27 of the payload)
        body = garbage(28 + rng.below(400));
        for (int k = 0; k < 8; ++k) body[k] = 0;
        body[0] = static_cast<std::uint8_t>(rng.below(5));
        for (int k = 24; k < 28; ++k) body[k] = 0;
        body[24] = static_cast<std::uint8_t>(rng.below(4));
        break;
    }
    std::vector<std::uint8_t> bytes(recorded.begin(), recorded.begin() + 8);
    const std::uint64_t hash = util::fnv1a(body);
    for (int k = 0; k < 8; ++k) {
      bytes.push_back(static_cast<std::uint8_t>(hash >> (8 * k)));
    }
    bytes.insert(bytes.end(), body.begin(), body.end());
    const MemoStoreLoadResult load = load_bytes(path, bytes);
    if (!load.rejected) {
      std::uint64_t declared = 0;
      for (int k = 7; k >= 0; --k) declared = (declared << 8) | body[k];
      EXPECT_EQ(load.entries_loaded, declared);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcap::sched
