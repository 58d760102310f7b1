// Symmetric multiprocessing node: N cores, each with its own pipeline,
// private L1I/L1D/L2 and TLBs, sharing the L3 and DRAM — the substrate for
// the paper's first future-work question ("how are multi-core applications
// affected by power capping?").
//
// Each workload runs on its own core; execution is strictly serialised in
// fixed simulated-time quanta, and the core with the smallest local time
// always runs next. The interleaving over the shared L3/DRAM is therefore
// deterministic (identical seeds reproduce runs bit-for-bit), while
// contention between cores is modelled for real: co-running workloads evict
// each other's L3 lines and disturb each other's DRAM row buffers.
//
// The engine is a SINGLE-THREADED COOPERATIVE scheduler: a min-local-time
// run queue resumes each core's workload either through the Workload
// step() interface (steppable workloads) or as a stackful continuation
// (util::Fiber) for monolithic run() bodies, which can finish a lane one
// resume later than step() (sim/workload.hpp). No host threads, mutexes, or
// condvars are involved, so an N-core quantum switch costs a function call
// or a user-space stack switch, and the engine is trivially safe to run
// inside the harness's `--jobs` worker pool (one engine per cell, zero
// shared state). tests/test_smp_equivalence.cpp pins its reports to the
// frozen reports of the thread-per-core token engine it replaced.
//
// SmpNode and the single-core Node share one base (sim::PackagePlatform):
// the shared L3 and DRAM, the package, the PlatformControl face whose
// P-state/duty/gating actuations apply to every core (package-level
// control, as on the real platform, so the unmodified BMC firmware caps
// it), and the housekeeping steps. SmpNode adds the lanes' scheduling, the
// node clock and the run loop.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pmu/counters.hpp"
#include "sim/execution_context.hpp"
#include "sim/machine_config.hpp"
#include "sim/package.hpp"
#include "sim/workload.hpp"
#include "util/fiber.hpp"

namespace pcap::sim {

struct SmpConfig {
  MachineConfig machine = MachineConfig::romley();
  int cores = 2;
  /// Scheduling quantum in simulated time: a core runs at most this long
  /// before the engine resumes the laggard core.
  util::Picoseconds quantum = util::microseconds(5);
};

struct SmpCoreReport {
  std::string workload;
  util::Picoseconds elapsed = 0;
  /// This core's slice of the package energy, attributed by busy time
  /// (power metering is package-level, so an exact per-core split does not
  /// exist on this platform — same limitation as the paper's wall meter).
  /// The shares of all cores sum to SmpRunReport::energy_j.
  double energy_share_j = 0.0;
  std::array<std::uint64_t, pmu::kEventCount> counters{};

  std::uint64_t counter(pmu::Event e) const {
    return counters[pmu::index_of(e)];
  }
};

struct SmpRunReport {
  util::Picoseconds elapsed = 0;  // slowest core's finish time
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;
  util::Hertz avg_frequency = 0;
  std::vector<SmpCoreReport> cores;
  /// Aggregate counter deltas across all cores.
  std::array<std::uint64_t, pmu::kEventCount> counters{};

  std::uint64_t counter(pmu::Event e) const {
    return counters[pmu::index_of(e)];
  }
};

class SmpNode final : public PackagePlatform {
 public:
  explicit SmpNode(const SmpConfig& config, std::uint64_t seed = 1);
  ~SmpNode() override;

  /// Runs one workload per core (workloads.size() <= core_count();
  /// remaining cores stay parked). Throws std::invalid_argument on size
  /// mismatch, null or duplicate entries. Exception-safe: a throwing
  /// workload (or control hook) unwinds every suspended co-runner before
  /// the exception escapes, so no live continuation outlives the run.
  SmpRunReport run(std::span<Workload* const> workloads);

  /// Cold-start hygiene between measured runs (the single-core
  /// CappedRunner's equivalent): drops every cache/TLB on every core plus
  /// the shared levels.
  void flush_all_caches();

  util::Picoseconds now() const override { return node_now_; }

 private:
  /// One core's execution lane: a CoreLane plus its scheduling state;
  /// implements the per-op quantum check. Its ExecutionContext's bulk
  /// groups truncate at this lane's quantum horizon, so batching stays
  /// legal under co-runners (DESIGN.md §12). `live` is set while the
  /// assigned workload has not finished.
  struct Lane final : CoreLane, TickSink {
    Lane(int index, const MachineConfig& machine,
         const power::PStateTable& pstates, cache::Cache& l3, mem::Dram& dram)
        : CoreLane(machine, pstates, l3, dram), index(index) {}

    int index;
    Workload* workload = nullptr;
    util::Picoseconds quantum_end = 0;
    std::array<std::uint64_t, pmu::kEventCount> start_counters{};
    util::Picoseconds start_time = 0;

    // Per-run engine state.
    std::unique_ptr<ExecutionContext> ctx;
    std::unique_ptr<util::Fiber> fiber;  // null for steppable workloads

    void on_op() override;
    /// A lane keeps running without yielding until its quantum expires.
    util::Picoseconds op_horizon() const override { return quantum_end; }
  };

  int pick_next_lane() const;  // -1 when all finished

  /// run() prologue and epilogue.
  util::Picoseconds prepare_run(std::span<Workload* const> workloads);
  SmpRunReport finish_run(std::span<Workload* const> workloads,
                          util::Picoseconds start);
  /// Housekeeping after one lane's quantum: advance node time to the
  /// slowest unfinished core (everything before that point is final).
  void settle_quantum();
  /// Unwinds every suspended continuation and clears per-run lane state.
  void teardown_lanes() noexcept;

  /// Accounts the package up to `upto`, then the probes (before noise and
  /// control, so a sample shows the operating point the quantum ran at),
  /// OS noise and the control hook.
  void housekeeping(util::Picoseconds upto);

  util::Picoseconds quantum_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  util::Picoseconds node_now_ = 0;
};

}  // namespace pcap::sim
