#include "sched/chunk_cache.hpp"

#include "sim/node.hpp"
#include "sim/smp_node.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace pcap::sched {

std::uint64_t chunk_identity(JobClass cls, std::uint64_t seed,
                             int chunk_index) {
  // Mirror of make_chunk_workload: only the phased class consumes the
  // mixed chunk seed; every other class builds the same workload for any
  // (seed, chunk_index).
  if (cls != JobClass::kPhased) return 0;
  std::uint64_t sm = seed + 0x9E37u * static_cast<std::uint64_t>(chunk_index);
  return util::splitmix64(sm);
}

CoRunMember CoRunMember::of(JobClass cls, std::uint64_t seed,
                            int chunk_index) {
  return {cls, chunk_identity(cls, seed, chunk_index), seed, chunk_index};
}

namespace {

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

void mix_double(std::uint64_t& h, double v) {
  mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t thermal_identity_bits(const sim::MachineConfig& machine) {
  std::uint64_t h = 0x7C9A0B5D2E8F1357ull;
  const thermal::RcNetworkConfig& net = machine.thermal;
  mix_double(h, net.ambient_c);
  mix_u64(h, net.nodes.size());
  for (const thermal::RcNodeConfig& n : net.nodes) {
    mix_double(h, n.heat_capacity_j_per_c);
    mix_double(h, n.r_to_ambient_c_per_w);
  }
  mix_u64(h, net.edges.size());
  for (const thermal::RcEdgeConfig& e : net.edges) {
    mix_u64(h, static_cast<std::uint64_t>(e.a));
    mix_u64(h, static_cast<std::uint64_t>(e.b));
    mix_double(h, e.r_c_per_w);
  }
  for (const int s : net.source_node) {
    mix_u64(h, static_cast<std::uint64_t>(s));
  }
  mix_u64(h, static_cast<std::uint64_t>(net.sensor_node));
  mix_u64(h, static_cast<std::uint64_t>(net.exhaust_node));
  mix_u64(h, net.legacy_tau);
  // Fan curve (a fitted fan changes both node power and exhaust R).
  mix_double(h, machine.fan.max_rpm);
  mix_double(h, machine.fan.min_rpm);
  mix_u64(h, static_cast<std::uint64_t>(machine.fan.levels));
  mix_double(h, machine.fan.max_power_w);
  mix_double(h, machine.fan.r_still_c_per_w);
  mix_double(h, machine.fan.r_max_flow_c_per_w);
  mix_double(h, machine.fan.flow_exponent);
  return h;
}

ChunkResult simulate_chunk(const sim::MachineConfig& machine,
                           const core::BmcConfig& bmc_config,
                           const ChunkKey& key, std::uint64_t seed,
                           int chunk_index,
                           std::uint64_t node_seed_material) {
  // The node seed depends on the scheduler's seed only — never the slot
  // (two slots running the same key must produce the same result, or a
  // memo hit would not be a replay) and never the key (a cap that does not
  // bite must leave the chunk bit-identical to an uncapped one, so e.g.
  // every policy degenerates to the same schedule at a generous budget).
  std::uint64_t sm = node_seed_material;
  const std::uint64_t node_seed = util::splitmix64(sm);
  // Every container built below (cache SoA arrays, TLB entries, DRAM row
  // buffers) draws from this worker's cell arena: one bump pointer reset,
  // no per-container heap traffic on the memo-miss hot path (DESIGN.md
  // §17). Declared before the node so the node destructs first.
  util::CellArenaScope arena_scope;
  sim::Node node(machine, node_seed);
  core::Bmc bmc(node, bmc_config);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  const double cap_w = std::bit_cast<double>(key.cap_bits);
  if (cap_w > 0.0) bmc.set_cap(cap_w);

  // Deterministic warm start: a job keeps its slot between chunks, so
  // chunk i re-enters with the working set chunk i-1 left in the caches
  // and the BMC's control loop already settled on the cap. The pure chunk
  // is therefore the steady-state one — run the workload once untimed to
  // warm caches, TLBs and the control state, then measure.
  const auto workload = make_chunk_workload(key.cls, seed, chunk_index);
  (void)node.run(*workload);
  const sim::RunReport report = node.run(*workload);
  return ChunkResult{report.elapsed, report.energy_j, report.avg_power_w};
}

std::vector<ChunkResult> simulate_corun_cell(
    const sim::MachineConfig& machine, const core::BmcConfig& bmc_config,
    const CoRunKey& key, std::uint64_t node_seed_material,
    util::Picoseconds quantum) {
  // Same seeding contract as the solo path: the node seed depends on the
  // scheduler's seed only — never the slot, never the key — so identical
  // cells replay bit-exactly wherever they land and a cap that does not
  // bite leaves the cell identical to an uncapped one.
  std::uint64_t sm = node_seed_material;
  const std::uint64_t node_seed = util::splitmix64(sm);

  // Same arena discipline as the solo path: the whole per-cell SmpNode
  // graph bump-allocates from this worker's arena and is released by one
  // pointer reset when the scope (declared before the node) unwinds.
  util::CellArenaScope arena_scope;
  sim::SmpConfig config;
  config.machine = machine;
  config.cores = static_cast<int>(key.members.size());
  config.quantum = quantum;
  sim::SmpNode node(config, node_seed);
  core::Bmc bmc(node, bmc_config);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  const double cap_w = std::bit_cast<double>(key.cap_bits);
  if (cap_w > 0.0) bmc.set_cap(cap_w);

  // Each member gets its OWN workload instance (SmpNode rejects duplicate
  // pointers) even when two members share an identity. Warm start mirrors
  // the solo path: one untimed co-run settles caches, TLBs and the BMC
  // ladder, then the second co-run is the measured cell — so the cell is
  // the steady-state one, with the neighbours' interference baked into the
  // warm state too.
  std::vector<std::unique_ptr<sim::Workload>> workloads;
  std::vector<sim::Workload*> raw;
  workloads.reserve(key.members.size());
  raw.reserve(key.members.size());
  for (const CoRunMember& member : key.members) {
    workloads.push_back(
        make_chunk_workload(member.cls, member.seed, member.chunk_index));
    raw.push_back(workloads.back().get());
  }
  (void)node.run(raw);
  const sim::SmpRunReport report = node.run(raw);

  std::vector<ChunkResult> results(key.members.size());
  for (std::size_t i = 0; i < key.members.size(); ++i) {
    const sim::SmpCoreReport& core_report = report.cores[i];
    const double elapsed_s = util::to_seconds(core_report.elapsed);
    results[i].elapsed = core_report.elapsed;
    results[i].energy_j = core_report.energy_share_j;
    results[i].avg_power_w =
        elapsed_s > 0.0 ? core_report.energy_share_j / elapsed_s : 0.0;
  }
  return results;
}

}  // namespace pcap::sched
