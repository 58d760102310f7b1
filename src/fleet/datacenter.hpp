// The datacenter root of the budget tree: N RackManagers, each served
// over its own IPMI link (optionally faulty/partitionable) and driven by
// a tick-based event loop — budget schedule down, telemetry up, seeded
// multi-tenant admission in between (DESIGN.md §14).
//
// Per tick, in a fixed deterministic order:
//   1. completions  — racks retire chunks due at t
//   2. control      — the root coupler polls racks, divides the scheduled
//                     budget (decreases first, increases withheld), and
//                     each rack rebalances its nodes the same way
//   3. admission    — weighted deficit round-robin across tenant queues,
//                     bounded by the power headroom per busy node (keep
//                     admitted nodes at or above the amenability knee
//                     rather than throttling everyone to the floor)
//   4. placement    — racks place queued jobs onto free lanes
//   5. chunk starts — one sched::ChunkBatch round over the whole fleet in
//                     rack/node/lane order (the scheduler's engine, ONE
//                     shared memo cache for every rack)
//   6. telemetry    — each rack folds its nodes' draws into its series;
//                     finish() left-folds the rack series
//
// The invariant records written every tick at every level are what the
// property tests assert: committed <= enforced always, committed <= target
// once converged, even across FaultyTransport loss and partitions.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bmc.hpp"
#include "core/dcm.hpp"
#include "fleet/budget.hpp"
#include "predict/phase.hpp"
#include "fleet/coupler.hpp"
#include "fleet/endpoint.hpp"
#include "fleet/rack.hpp"
#include "fleet/tenant.hpp"
#include "sched/chunk_batch.hpp"
#include "sim/machine_config.hpp"
#include "telemetry/reducer.hpp"

namespace pcap::fleet {

/// Simulated time per fleet tick.
inline constexpr double kTickS = 100e-6;
/// Admission headroom: only admit while every busy node can still be
/// granted at least this much (~ the amenability knee).
inline constexpr double kAdmissionMinNodeW = 135.0;

struct FleetConfig {
  /// Nodes per rack (uneven fan-out allowed); size = rack count.
  std::vector<std::size_t> rack_nodes = {8, 8};
  std::size_t lanes_per_node = 1;
  BudgetSchedule schedule;  // budget over time (time-of-day + DR events)
  std::vector<TenantSpec> tenants;
  std::size_t max_ticks = 200000;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;  // worker threads for memo-miss chunk simulations
  bool memo = true;
  /// Upper bound on recorded memo entries (cells, solo ones included) in
  /// the fleet-wide shared cache; LRU-evicted at serial commit points.
  /// 0 = unbounded. Pure performance/memory knob (never changes results).
  std::size_t memo_capacity = 0;
  /// Persistent chunk-memo store path (DESIGN.md §17): loaded before the
  /// run (corrupt stores rejected whole), written back by finish(). Same
  /// replay contract as SchedulerConfig::memo_store.
  std::string memo_store;
  sim::MachineConfig machine = sim::MachineConfig::romley();
  core::BmcConfig bmc;
  /// Faults on the datacenter->rack links / every rack->node link.
  std::optional<ipmi::FaultSpec> rack_faults;
  std::optional<ipmi::FaultSpec> node_faults;
  double idle_node_w = 101.0;
  double cap_grid_w = 8.0;
  core::NodeCommsConfig comms;
  /// Every rack's telemetry sampling (RackConfig::sampler).
  telemetry::SamplerConfig sampler;
  util::Picoseconds corun_quantum = util::microseconds(5);

  /// Phase prediction over each rack's demand series (DESIGN.md §16):
  /// when a rack's series shows confident periodic structure, the root
  /// coupler divides next tick's budget by the *forecast* demand instead
  /// of the last polled one — the caps move one control round ahead of a
  /// predicted phase change. Racks below a 0.5 confidence floor fall back
  /// to polled demand (the reactive path); off is bit-identical to the
  /// pre-predictor fleet.
  bool predictor = false;

  /// Scripted management-plane partition: rack `rack`'s link swallows the
  /// next `transactions` exchanges starting at the first tick >= start_s.
  struct PartitionEpisode {
    std::size_t rack = 0;
    double start_s = 0.0;
    std::uint64_t transactions = 0;
  };
  std::vector<PartitionEpisode> partitions;
};

/// Budget accounting at one tree level for one tick.
struct LevelTick {
  double t_s = 0.0;
  double target_w = 0.0;
  double enforced_w = 0.0;
  double committed_w = 0.0;
  double reserved_w = 0.0;
  /// Ground truth: sum of caps the subtree's BMCs actually enforce, read
  /// directly past the management plane (racks only; 0 at the root).
  double actual_w = 0.0;
  bool feasible = true;
  bool converged = true;
  std::size_t lost_children = 0;
  std::size_t busy_nodes = 0;
  std::size_t queued_jobs = 0;
};

struct FleetResult {
  std::vector<LevelTick> dc_ticks;
  std::vector<std::vector<LevelTick>> rack_ticks;  // [rack][tick]
  std::vector<sched::JobRecord> jobs;              // fleet-id order
  std::vector<int> job_tenant;                     // parallel to jobs
  std::vector<int> job_rack;                       // rack each job ran on
  std::vector<TenantStats> tenants;

  // Conservation violations — must be zero; counted, not asserted, so
  // tests can report how they failed.
  std::uint64_t dc_over_enforced_ticks = 0;
  std::uint64_t rack_over_enforced_ticks = 0;
  /// Ticks where ground-truth node caps exceeded the rack's enforced
  /// budget (must be zero).
  std::uint64_t actual_over_enforced_ticks = 0;
  /// Transient ticks where committed exceeded target (decrease still
  /// converging or mid-partition): informational, bounded by tests.
  std::uint64_t dc_over_target_ticks = 0;

  std::uint64_t chunks = 0;
  std::uint64_t corun_cells = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_evictions = 0;  // LRU entries dropped (capacity bound)
  std::uint64_t store_entries_loaded = 0;
  std::uint64_t store_load_rejected = 0;  // 1 = present but failed checks
  std::uint64_t store_entries_saved = 0;
  std::uint64_t admitted = 0;
  std::uint64_t admission_deferrals = 0;  // admission-limited tick-jobs
  std::uint64_t forced_admissions = 0;    // anti-livelock trickle admissions
  std::uint64_t cap_pushes = 0;
  std::uint64_t push_failures = 0;
  std::uint64_t withheld_rounds = 0;
  std::uint64_t infeasible_rounds = 0;
  std::uint64_t mgmt_retries = 0;
  std::uint64_t mgmt_failed_exchanges = 0;
  /// Control rounds where at least one rack's division weight came from a
  /// confident phase forecast vs none (always 0/0 with predictor off).
  std::uint64_t proactive_rounds = 0;
  std::uint64_t reactive_rounds = 0;

  double makespan_s = 0.0;
  double busy_energy_j = 0.0;
  double idle_energy_j = 0.0;
  double total_energy_j = 0.0;
  std::size_t ticks = 0;

  telemetry::GroupSeries fleet_series;
  std::vector<telemetry::GroupSeries> rack_series;

  /// Order-sensitive FNV-1a digest over every schedule-relevant output
  /// (job placement/timing/energy bits, per-tick committed budgets): equal
  /// digests mean bit-identical fleet schedules. The bit-identity tests
  /// compare it across `jobs` values and memo on/off.
  std::uint64_t schedule_digest() const;
};

class DatacenterManager {
 public:
  explicit DatacenterManager(const FleetConfig& config);
  ~DatacenterManager();

  std::size_t rack_count() const { return racks_.size(); }
  std::size_t node_count() const;
  RackManager& rack(std::size_t i) { return *racks_[i]->manager; }
  const BudgetCoupler& coupler() const { return coupler_; }
  /// The rack's uplink fault injector, when configured.
  ipmi::FaultyTransport* rack_fault_link(std::size_t i) {
    return racks_[i]->faulty ? racks_[i]->faulty.get() : nullptr;
  }

  /// Runs the whole fleet to completion (all tenant jobs done, or stalled
  /// with nothing in flight, or max_ticks) and returns the result.
  FleetResult run();

  /// Single-tick interface for benchmarks and incremental tests. `run()`
  /// is step() in a loop plus final accounting.
  void step();
  double now_s() const { return tick_count_ * kTickS; }
  std::size_t completed_jobs() const { return completed_jobs_; }
  bool done() const;

  /// Final accounting: tenant stats, energy, telemetry fan-in. Called by
  /// run(); exposed for step()-driven uses. Single-shot: it moves the
  /// result out, so a second call (or run() after it) throws
  /// std::logic_error.
  FleetResult finish();

 private:
  struct RackSlot {
    std::unique_ptr<RackManager> manager;
    std::unique_ptr<BudgetEndpointServer> server;
    std::unique_ptr<ipmi::FaultyTransport> faulty;
    std::unique_ptr<BudgetClient> client;
  };

  void control_round(double t);
  void admit(double t);
  /// Moves `tenant`'s queue head onto `rack`'s queue, admitted at `t`.
  void admit_head(std::size_t tenant, std::size_t rack, double t);
  void start_chunks(double t);
  void record_tick(double t, const CouplerRound& round);

  FleetConfig config_;
  std::vector<std::unique_ptr<RackSlot>> racks_;
  BudgetCoupler coupler_;
  sched::ChunkBatch batch_;
  /// Per-rack demand-series detectors (empty unless config_.predictor).
  std::vector<predict::PhasePredictor> rack_phase_;

  std::vector<FleetJob> stream_;
  std::size_t next_arrival_ = 0;
  std::vector<std::deque<int>> tenant_queues_;  // fleet job ids
  std::vector<double> tenant_deficit_;
  std::vector<double> job_admit_s_;  // admission time per fleet job, -1 unset
  std::size_t next_partition_ = 0;
  bool started_this_tick_ = false;

  FleetResult result_;
  bool finished_ = false;
  std::size_t tick_count_ = 0;
  std::size_t completed_jobs_ = 0;
  std::size_t stalled_ticks_ = 0;
  // Scratch, reused per tick.
  std::vector<ChunkEvent> completions_;
  std::vector<RackManager::StartRef> refs_;
  std::vector<std::pair<std::size_t, RackManager::StartRef>> starts_;
  std::vector<sched::CoRunMember> co_residents_;
};

/// CSV writers for the fleet sweep artifacts (CI uploads these).
void write_fleet_ticks_csv(const FleetResult& result, const std::string& path);
void write_tenant_stats_csv(const FleetResult& result,
                            const std::string& path);

}  // namespace pcap::fleet
