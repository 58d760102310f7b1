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
// The SmpNode exposes the same PlatformControl face as the single-core
// Node, so the unmodified BMC firmware caps it; P-state/duty/gating
// actuations apply to every core (package-level control, as on the real
// platform). Power, heat and metering are the one sim::Package both nodes
// share, fed the sum of the lanes' counters.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "mem/dram.hpp"
#include "pmu/counters.hpp"
#include "power/pstate.hpp"
#include "sim/core_model.hpp"
#include "sim/execution_context.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/package.hpp"
#include "sim/platform_control.hpp"
#include "sim/workload.hpp"
#include "telemetry/probe.hpp"
#include "util/fiber.hpp"
#include "util/rng.hpp"

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

  SmpNode(const SmpNode&) = delete;
  SmpNode& operator=(const SmpNode&) = delete;

  int core_count() const { return static_cast<int>(lanes_.size()); }
  const SmpConfig& config() const { return config_; }

  /// Runs one workload per core (workloads.size() <= core_count();
  /// remaining cores stay parked). Throws std::invalid_argument on size
  /// mismatch, null or duplicate entries. Exception-safe: a throwing
  /// workload (or control hook) unwinds every suspended co-runner before
  /// the exception escapes, so no live continuation outlives the run.
  SmpRunReport run(std::span<Workload* const> workloads);

  using ControlHook = std::function<void(PlatformControl&)>;
  void set_control_hook(ControlHook hook) { control_hook_ = std::move(hook); }
  void set_os_noise(bool enabled) { os_noise_enabled_ = enabled; }

  /// Attaches a package-level telemetry probe fed every housekeeping tick
  /// (aggregate counters across cores; nullptr detaches). Read-only:
  /// results are bit-identical with or without it.
  void set_telemetry(telemetry::NodeProbe* probe) { probe_ = probe; }
  /// Attaches per-core probes (probes[i] follows core i; shorter spans
  /// leave the remaining cores unprobed, null entries skip a core). Each
  /// probe sees the package operating point (frequency/P-state/duty are
  /// package-wide) with that core's private counters, so per-core
  /// frequency and IPC series can be charted side by side.
  void set_core_telemetry(std::span<telemetry::NodeProbe* const> probes) {
    core_probes_.assign(probes.begin(), probes.end());
  }

  /// Cold-start hygiene between measured runs (the single-core
  /// CappedRunner's equivalent): drops every cache/TLB on every core plus
  /// the shared levels.
  void flush_all_caches();

  const cache::Cache& shared_l3() const { return l3_; }
  const mem::Dram& shared_dram() const { return dram_; }

  // --- PlatformControl (package-level: applies to every core) ---
  std::uint32_t pstate_count() const override {
    return static_cast<std::uint32_t>(pstates_.size());
  }
  std::uint32_t pstate() const override;
  void set_pstate(std::uint32_t index) override;
  util::Hertz frequency() const override;
  double duty() const override;
  void set_duty(double duty) override;
  double min_duty() const override { return CoreModel::kMinDuty; }
  std::uint32_t l3_ways() const override { return l3_.active_ways(); }
  std::uint32_t l3_max_ways() const override {
    return config_.machine.hierarchy.l3.ways;
  }
  void set_l3_ways(std::uint32_t n) override;
  std::uint32_t l2_ways() const override;
  std::uint32_t l2_max_ways() const override {
    return config_.machine.hierarchy.l2.ways;
  }
  void set_l2_ways(std::uint32_t n) override;
  std::uint32_t itlb_entries() const override;
  std::uint32_t itlb_max_entries() const override {
    return config_.machine.hierarchy.itlb.entries;
  }
  void set_itlb_entries(std::uint32_t n) override;
  std::uint32_t dtlb_entries() const override;
  std::uint32_t dtlb_max_entries() const override {
    return config_.machine.hierarchy.dtlb.entries;
  }
  void set_dtlb_entries(std::uint32_t n) override;
  bool dram_gated() const override { return dram_.gated(); }
  void set_dram_gated(bool gated) override { dram_.set_gated(gated); }
  util::Picoseconds now() const override { return node_now_; }

 private:
  /// One core's execution lane; implements the per-op quantum check. The
  /// lane doubles as the per-core stream context holder: its
  /// ExecutionContext carries the fast-path stream machinery (PR 2), whose
  /// bulk groups truncate at this lane's quantum horizon, so batching
  /// stays legal under co-runners (DESIGN.md §12).
  struct Lane final : TickSink {
    int index = 0;
    pmu::CounterBank bank;
    std::unique_ptr<MemoryHierarchy> hierarchy;
    std::unique_ptr<CoreModel> core;
    Workload* workload = nullptr;
    bool finished = true;  // no workload assigned yet
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

  void housekeeping(util::Picoseconds upto);
  void feed_probes(util::Picoseconds now);
  OperatingPoint operating_point() const;

  SmpConfig config_;
  power::PStateTable pstates_;
  cache::Cache l3_;
  mem::Dram dram_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  util::Rng rng_;
  ControlHook control_hook_;
  telemetry::NodeProbe* probe_ = nullptr;
  std::vector<telemetry::NodeProbe*> core_probes_;
  bool os_noise_enabled_ = true;
  bool running_ = false;

  util::Picoseconds node_now_ = 0;
  util::Picoseconds next_control_ = 0;
  util::Picoseconds next_noise_ = 0;
};

}  // namespace pcap::sim
