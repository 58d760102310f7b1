// Amenability-aware cluster power scheduler (DESIGN.md §11, §13).
//
// A rack of nodes — each a management-plane VirtualNode behind its own
// IPMI endpoint, optionally behind a lossy FaultyTransport — is managed by
// the existing DataCenterManager. The scheduler admits a seeded job
// stream, places jobs FIFO onto admitting idle LANES (lane-major: lane 0
// of every node before lane 1 of any, so one-lane racks reduce to the
// classic node-order fill), and at every event (arrival, chunk completion)
// asks its Policy how to split one group power budget into per-node caps —
// and, optionally, where each queued job should go — which it pushes
// through the DCM/IPMI plane. Job execution is real simulation: a solo
// chunk runs on a fresh Node under the cap the DCM enforced on its node,
// and co-resident chunks co-run on a fresh SmpNode sharing L3/DRAM under
// the package-level cap, so slowdown under deep caps AND under contention
// emerges from the modelled hierarchy, never from an assumed interference
// model (DESIGN.md §13). Each node's idle draw is measured once, on a
// fresh Node that is destroyed after calibration.
//
// Invariants (tests/test_scheduler.cpp, tests/test_cosched.cpp):
//  * at every scheduler tick, the summed enforced/reserved node caps never
//    exceed the group budget — including while links drop, duplicate and
//    partition (caps are applied decreases-first, and increases are
//    withheld until every decrease has landed);
//  * a run is bit-identical for a given seed regardless of the `jobs`
//    parallelism knob (worker threads only simulate independent cells)
//    and of the `memo` knob — at any lanes_per_node;
//  * with the budget at/above the rack's uncapped draw, every policy
//    degenerates to the identical unthrottled baseline schedule;
//  * lanes_per_node = 1 reproduces the classic one-job-per-node scheduler
//    bit-exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bmc.hpp"
#include "core/dcm.hpp"
#include "ipmi/transport.hpp"
#include "sched/amenability_table.hpp"
#include "sched/chunk_batch.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"
#include "sched/power_model.hpp"
#include "sched/predictor_hook.hpp"
#include "sim/machine_config.hpp"
#include "telemetry/trace_writer.hpp"

namespace pcap::sched {

struct SchedulerConfig {
  std::size_t node_count = 8;
  /// Schedulable lanes (SmpNode cores) per node. 1 = the classic
  /// one-job-per-node rack, bit-identical to the pre-lane scheduler.
  /// Lanes share the node's L3/DRAM and its package-level cap.
  std::size_t lanes_per_node = 1;
  /// Simulated-time interleave quantum for co-run cells (SmpNode).
  util::Picoseconds corun_quantum = util::microseconds(5);
  /// Group power budget (W). Must cover node_count * bmc.min_cap_w.
  double budget_w = 1360.0;
  /// One of policy_names(); ignored when `policy` is set explicitly.
  std::string policy_name = "amenability";
  std::uint64_t seed = 1;
  /// Worker threads for chunk simulation (pure performance knob: results
  /// are bit-identical for any value).
  std::size_t jobs = 1;
  /// Chunk memoization (DESIGN.md §12): chunks are pure functions of
  /// (class, workload identity, enforced cap), so repeated cells replay
  /// recorded results bit-exactly. Pure performance knob — OFF produces a
  /// bit-identical schedule, slower.
  bool memo = true;
  /// Upper bound on recorded memo entries (cells, solo ones included);
  /// least-recently-used entries are evicted at serial commit points.
  /// 0 = unbounded. Pure performance/memory knob: eviction changes which
  /// chunks re-simulate, never what any simulation returns.
  std::size_t memo_capacity = 0;
  /// Persistent chunk-memo store path (DESIGN.md §17). When set, recorded
  /// entries are loaded from this file before the run (missing file = cold
  /// start; corrupt or version-mismatched stores are rejected WHOLE) and
  /// the cache is written back after the run. A warm store replays
  /// recorded chunks bit-exactly into a run of the same study; which runs
  /// may load it is ChunkBatch::Config::memo_store's contract.
  std::string memo_store;
  sim::MachineConfig machine = sim::MachineConfig::romley();
  core::BmcConfig bmc;
  /// When set, every DCM<->BMC link goes through a FaultyTransport with
  /// this spec (seeded per node from `seed`).
  std::optional<ipmi::FaultSpec> faults;
  /// Measured slowdown curves consumed by model-driven policies; may be
  /// null (policies then fall back to power-only predictions).
  const AmenabilityTable* table = nullptr;
  /// Optional telemetry: decision instants + per-node job spans land in
  /// `trace`. Attaching it must not change scheduling results.
  telemetry::TraceWriter* trace = nullptr;
  /// Optional predictor attachment (src/predict/, DESIGN.md §16): learner
  /// feedback, phase forecasts, proactive plan adjustment. Null — or an
  /// attached-but-disabled implementation — is bit-identical to the
  /// pre-predictor scheduler.
  PredictorHook* predictor = nullptr;
};

/// One replan record: the budget invariant, sampled at every tick.
struct TickRecord {
  double t_s = 0.0;
  double cap_sum_w = 0.0;       // enforced caps + reservations, all nodes
  double reserved_w = 0.0;      // held by unreachable nodes
  double budget_w = 0.0;
  std::size_t queue_depth = 0;
  bool feasible = true;         // policy plan fit the budget
};

struct ScheduleResult {
  std::string policy;
  double budget_w = 0.0;
  std::vector<JobRecord> jobs;     // indexed by JobSpec::id
  std::vector<TickRecord> ticks;

  double makespan_s = 0.0;         // last job finish (from t = 0)
  double busy_energy_j = 0.0;      // chunk execution energy
  double idle_energy_j = 0.0;      // idle/parked node energy to makespan
  double total_energy_j = 0.0;
  int deadline_misses = 0;
  double mean_turnaround_s = 0.0;  // finish - arrival, averaged

  std::uint64_t replans = 0;
  std::uint64_t cap_updates = 0;       // IPMI set-cap exchanges that landed
  std::uint64_t cap_update_failures = 0;
  std::uint64_t infeasible_plans = 0;  // plan rejected, previous caps kept
  std::uint64_t forced_admissions = 0;
  std::uint64_t budget_violations = 0;  // ticks with cap_sum > budget (0!)
  std::uint64_t chunks = 0;
  std::uint64_t memo_hits = 0;    // chunks replayed from the memo cache
  std::uint64_t memo_misses = 0;  // chunks simulated (and recorded)
  std::uint64_t memo_evictions = 0;  // LRU entries dropped (capacity bound)
  std::uint64_t corun_chunks = 0;  // chunks that ran with >=1 co-resident
  std::uint64_t corun_cells = 0;   // distinct co-run cells simulated
  double max_cap_sum_w = 0.0;

  // Persistent memo store accounting (zero when memo_store is unset).
  std::uint64_t store_entries_loaded = 0;
  std::uint64_t store_load_rejected = 0;  // 1 = present but failed checks
  std::uint64_t store_entries_saved = 0;

  // Management-plane cost (summed over nodes).
  std::uint64_t mgmt_retries = 0;
  std::uint64_t mgmt_failed_exchanges = 0;

  /// Order-sensitive FNV-1a fingerprint of the schedule (job placements,
  /// timings, energies plus every budget-invariant tick). Two runs with
  /// equal digests produced bit-identical schedules — the equality the
  /// jobs/memo/store invariance tests assert.
  std::uint64_t schedule_digest() const;
};

class ClusterScheduler {
 public:
  explicit ClusterScheduler(const SchedulerConfig& config);
  ~ClusterScheduler();

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  /// Runs the stream to completion and returns the schedule. May be called
  /// once per scheduler instance (nodes are consumed by the run).
  ScheduleResult run(const std::vector<JobSpec>& stream);

  /// Fault decorator for slot `i` (nullptr when faults are off).
  ipmi::FaultyTransport* fault_link(std::size_t i);
  /// Per-node measured idle draw (used for idle-energy accounting).
  double idle_power_w(std::size_t i) const;

 private:
  struct Slot;

  void apply_caps(const std::vector<double>& target_w,
                  const std::vector<bool>& available, ScheduleResult& result);

  SchedulerConfig config_;
  ChunkBatch batch_;
  std::unique_ptr<Policy> policy_;
  OnlinePowerModel model_;
  core::DataCenterManager dcm_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::uint32_t trace_track_ = 0;
  std::vector<std::uint32_t> node_tracks_;
};

}  // namespace pcap::sched
