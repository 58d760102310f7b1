// Differential tests for the cooperative single-threaded SMP engine
// (DESIGN.md §12): the engine may change how fast the simulator runs,
// never what it computes.
//
//  * Frozen legacy reports: the thread-per-core token engine the
//    cooperative engine replaced produced the reports pinned below (an
//    FNV-1a digest over every field expect_identical compares, plus the
//    elapsed time and energy in readable form) for steppable, mixed
//    fiber+steppable and BMC-capped cells; the cooperative engine must
//    still reproduce them bit for bit.
//  * Native stepping vs forced-fiber execution of the same workload:
//    identical resume points, identical reports.
//  * Quantum-boundary batching legality: the PR 2 stream fast paths
//    truncate bulk groups at the lane's quantum horizon, so a stream-API
//    workload co-running with an antagonist matches its per-op twin
//    bit for bit.
//  * `--jobs` invariance: independent SMP cells return bit-identical
//    reports whether run serially or on a worker pool.
//  * Exception safety: a throwing workload or control hook unwinds every
//    suspended co-runner (destructors run) and leaves the engine reusable.
//  * Telemetry neutrality: attaching package/per-core probes never
//    perturbs the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "sim/execution_context.hpp"
#include "sim/smp_node.hpp"
#include "telemetry/probe.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace pcap::sim {
namespace {

using pmu::Event;

void expect_identical(const SmpRunReport& a, const SmpRunReport& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.avg_frequency, b.avg_frequency);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].workload, b.cores[i].workload) << "core " << i;
    EXPECT_EQ(a.cores[i].elapsed, b.cores[i].elapsed) << "core " << i;
    EXPECT_EQ(a.cores[i].counters, b.cores[i].counters) << "core " << i;
  }
}

/// FNV-1a digest over every field expect_identical compares (doubles by
/// bit pattern, the workload names byte by byte).
std::uint64_t report_digest(const SmpRunReport& r) {
  using util::fnv_mix;
  std::uint64_t h = util::kFnvOffset;
  h = fnv_mix(h, r.elapsed);
  h = fnv_mix(h, r.energy_j);
  h = fnv_mix(h, r.avg_power_w);
  h = fnv_mix(h, r.peak_power_w);
  h = fnv_mix(h, r.avg_frequency);
  for (const std::uint64_t c : r.counters) h = fnv_mix(h, c);
  h = fnv_mix(h, static_cast<std::uint64_t>(r.cores.size()));
  for (const SmpCoreReport& core : r.cores) {
    h = fnv_mix(h, static_cast<std::uint64_t>(core.workload.size()));
    for (const char ch : core.workload) {
      h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
    }
    h = fnv_mix(h, core.elapsed);
    for (const std::uint64_t c : core.counters) h = fnv_mix(h, c);
  }
  return h;
}

SmpConfig make_config(int cores) {
  SmpConfig config;
  config.cores = cores;
  return config;
}

/// Runs one capped cell on a fresh node: workloads are rebuilt per run so
/// no run sees state left behind by another.
template <typename MakeWorkloads>
SmpRunReport run_cell(MakeWorkloads make, std::uint64_t seed,
                      double cap_w = 0.0) {
  auto workloads = make();
  std::vector<Workload*> ptrs;
  for (auto& w : workloads) ptrs.push_back(w.get());
  SmpNode node(make_config(static_cast<int>(ptrs.size())), seed);
  core::Bmc bmc(node);
  if (cap_w > 0.0) {
    node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
    bmc.set_cap(cap_w);
  }
  return node.run(ptrs);
}

std::vector<std::unique_ptr<Workload>> steppable_mix() {
  std::vector<std::unique_ptr<Workload>> ws;
  ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(12ull << 20,
                                                           140000));
  ws.push_back(std::make_unique<apps::ComputeBoundWorkload>(400000));
  return ws;
}

std::vector<std::unique_ptr<Workload>> mixed_mix() {
  // A fiber-driven monolithic workload co-running with steppables.
  std::vector<std::unique_ptr<Workload>> ws;
  ws.push_back(std::make_unique<apps::PhasedWorkload>());
  ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(8ull << 20,
                                                           120000));
  ws.push_back(std::make_unique<apps::ComputeBoundWorkload>(300000));
  return ws;
}

// --- frozen reports of the removed thread-per-core engine ------------------

/// One cell's report as the thread-per-core token engine produced it.
struct FrozenReport {
  std::uint64_t digest;
  util::Picoseconds elapsed;
  double energy_j;
};

void expect_frozen(const SmpRunReport& r, const FrozenReport& frozen) {
  EXPECT_EQ(r.elapsed, frozen.elapsed);
  EXPECT_EQ(r.energy_j, frozen.energy_j);
  EXPECT_EQ(report_digest(r), frozen.digest)
      << std::hex << "digest 0x" << report_digest(r);
}

TEST(SmpEquivalence, CooperativeMatchesFrozenLegacySteppable) {
  expect_frozen(run_cell(steppable_mix, 17),
                {0x057bf969cbda5e69ull, 8086646300ull, 1.2722775589496564});
}

TEST(SmpEquivalence, CooperativeMatchesFrozenLegacyMixedFiberSteppable) {
  expect_frozen(run_cell(mixed_mix, 23),
                {0x0c95966af584c1ecull, 11101655910ull, 2.0216297031104826});
}

TEST(SmpEquivalence, CooperativeMatchesFrozenLegacyUnderBmcCap) {
  const SmpRunReport coop = run_cell(mixed_mix, 29, 150.0);
  expect_frozen(coop,
                {0x03bb574a0d5bd759ull, 20576721937ull, 3.0720734578074231});
  // The cap actually bit (this is a real capped cell, not a no-op).
  EXPECT_LE(coop.avg_power_w, 155.0);
}

// --- native stepping vs forced continuation ---------------------------------

/// Hides supports_step() so the engine must drive the same workload through
/// a fiber; run() and step() must induce the identical priced-op sequence.
class ForceMonolithic final : public Workload {
 public:
  explicit ForceMonolithic(std::unique_ptr<Workload> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void run(ExecutionContext& ctx) override { inner_->run(ctx); }

 private:
  std::unique_ptr<Workload> inner_;
};

TEST(SmpEquivalence, NativeStepMatchesForcedFiber) {
  auto forced = [] {
    std::vector<std::unique_ptr<Workload>> ws;
    for (auto& w : steppable_mix()) {
      ws.push_back(std::make_unique<ForceMonolithic>(std::move(w)));
    }
    return ws;
  };
  const SmpRunReport stepped = run_cell(steppable_mix, 31);
  const SmpRunReport fibered = run_cell(forced, 31);
  expect_identical(stepped, fibered);
}

// --- quantum-boundary batching legality -------------------------------------

constexpr std::uint64_t kSweepBytes = 1ull << 20;
constexpr std::int64_t kSweepStride = 64;
constexpr int kSweepReps = 24;

/// Sweeps a buffer with the batched stream API. Monolithic on purpose: the
/// lane suspends it mid-stream at quantum boundaries.
class StreamSweep final : public Workload {
 public:
  std::string name() const override { return "sweep"; }
  void run(ExecutionContext& ctx) override {
    const Address base = ctx.alloc(kSweepBytes);
    for (int rep = 0; rep < kSweepReps; ++rep) {
      ctx.load_stream(base, kSweepStride, kSweepBytes / kSweepStride);
      ctx.compute(64);
    }
  }
};

/// The per-op twin: the same logical access sequence, one load at a time.
class LoopSweep final : public Workload {
 public:
  std::string name() const override { return "sweep"; }
  void run(ExecutionContext& ctx) override {
    const Address base = ctx.alloc(kSweepBytes);
    for (int rep = 0; rep < kSweepReps; ++rep) {
      Address addr = base;
      for (std::uint64_t i = 0; i < kSweepBytes / kSweepStride; ++i) {
        ctx.load(addr);
        addr += static_cast<Address>(kSweepStride);
      }
      ctx.compute(64);
    }
  }
};

TEST(SmpEquivalence, StreamBatchingLegalUnderCoRunners) {
  // The antagonist thrashes the shared L3, so the sweep's access outcomes
  // depend on the exact interleaving: any illegal batching across a quantum
  // boundary (or across an op the co-runner should have interposed) would
  // shift misses and break bit-identity.
  auto streamed = [] {
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(std::make_unique<StreamSweep>());
    ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(16ull << 20,
                                                             200000));
    return ws;
  };
  auto looped = [] {
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(std::make_unique<LoopSweep>());
    ws.push_back(std::make_unique<apps::MemoryBoundWorkload>(16ull << 20,
                                                             200000));
    return ws;
  };
  const SmpRunReport fast = run_cell(streamed, 37);
  const SmpRunReport slow = run_cell(looped, 37);
  expect_identical(fast, slow);
  // The cell is genuinely contended — the sweep saw shared-L3 misses.
  EXPECT_GT(fast.cores[0].counter(Event::kL3Tcm), 1000u);
}

// --- `--jobs` invariance for SMP cells --------------------------------------

TEST(SmpEquivalence, SmpCellsAreJobsInvariant) {
  const double kCaps[] = {170.0, 160.0, 150.0, 140.0};
  auto run_all = [&kCaps](std::size_t threads) {
    std::vector<SmpRunReport> reports(4);
    util::parallel_for(4, threads, [&](std::size_t i) {
      reports[i] = run_cell(mixed_mix, 41 + i, kCaps[i]);
    });
    return reports;
  };
  const auto serial = run_all(1);
  const auto pooled = run_all(4);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], pooled[i]);
  }
}

// --- exception safety -------------------------------------------------------

/// Holds a stack sentinel whose destructor records the unwind; the workload
/// itself never finishes within the run.
class GuardedWorkload final : public Workload {
 public:
  explicit GuardedWorkload(bool* unwound) : unwound_(unwound) {}
  std::string name() const override { return "guarded"; }
  void run(ExecutionContext& ctx) override {
    struct Sentinel {
      bool* flag;
      ~Sentinel() { *flag = true; }
    } sentinel{unwound_};
    const Address base = ctx.alloc(1ull << 20);
    for (std::uint64_t i = 0; i < 50'000'000; ++i) {
      ctx.load(base + (i * 64) % (1ull << 20));
      ctx.compute(2);
    }
  }

 private:
  bool* unwound_;
};

class ThrowingWorkload final : public Workload {
 public:
  std::string name() const override { return "throwing"; }
  void run(ExecutionContext& ctx) override {
    ctx.compute(1000);
    throw std::runtime_error("workload boom");
  }
};

TEST(SmpEquivalence, ThrowingWorkloadUnwindsSuspendedCoRunner) {
  SmpNode node(make_config(2), 43);
  bool unwound = false;
  GuardedWorkload guarded(&unwound);
  ThrowingWorkload throwing;
  std::vector<Workload*> ws{&guarded, &throwing};
  EXPECT_THROW(node.run(ws), std::runtime_error);
  // The co-runner was suspended mid-run; its stack must have unwound
  // through the sentinel's destructor before run() threw.
  EXPECT_TRUE(unwound);

  // The engine stays usable after the failed run.
  apps::ComputeBoundWorkload again(100000);
  std::vector<Workload*> retry{&again};
  const SmpRunReport r = node.run(retry);
  EXPECT_EQ(r.counter(Event::kTotIns), 100000u);
}

TEST(SmpEquivalence, ThrowingControlHookUnwindsRun) {
  SmpNode node(make_config(2), 47);
  node.set_control_hook(
      [](PlatformControl&) { throw std::runtime_error("hook boom"); });
  bool unwound = false;
  GuardedWorkload guarded(&unwound);
  apps::ComputeBoundWorkload compute(4000000);
  std::vector<Workload*> ws{&guarded, &compute};
  EXPECT_THROW(node.run(ws), std::runtime_error);
  EXPECT_TRUE(unwound);

  node.set_control_hook({});
  apps::ComputeBoundWorkload again(100000);
  std::vector<Workload*> retry{&again};
  const SmpRunReport r = node.run(retry);
  EXPECT_EQ(r.counter(Event::kTotIns), 100000u);
}

// --- telemetry neutrality ---------------------------------------------------

TEST(SmpEquivalence, TelemetryProbesAreBitNeutral) {
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();

  const SmpRunReport bare = run_cell(steppable_mix, 61, 160.0);

  telemetry::TelemetryConfig tconfig;
  tconfig.enabled = true;
  tconfig.sample_period = util::microseconds(20);
  telemetry::NodeProbe package(tconfig, nullptr, nullptr, "package");
  telemetry::NodeProbe core0(tconfig, nullptr, nullptr, "core0");
  telemetry::NodeProbe core1(tconfig, nullptr, nullptr, "core1");

  auto workloads = steppable_mix();
  std::vector<Workload*> ptrs;
  for (auto& w : workloads) ptrs.push_back(w.get());
  SmpNode node(make_config(2), 61);
  core::Bmc bmc(node);
  node.set_control_hook([&bmc](PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(160.0);
  node.set_telemetry(&package);
  std::vector<telemetry::NodeProbe*> cores{&core0, &core1};
  node.set_core_telemetry(cores);
  const SmpRunReport probed = node.run(ptrs);

  expect_identical(probed, bare);

  // The probes really sampled, and the per-core series are per-core: the
  // memory-bound lane misses L1 where the compute-bound lane cannot.
  EXPECT_GT(package.sampler().taken(), 2u);
  EXPECT_GT(core0.sampler().taken(), 2u);
  EXPECT_GT(core1.sampler().taken(), 2u);
  const auto l1_miss = [](const telemetry::NodeSample& s) {
    return s.l1_miss_rate;
  };
  EXPECT_GT(core0.sampler().aggregate(l1_miss).mean,
            core1.sampler().aggregate(l1_miss).mean);
}

}  // namespace
}  // namespace pcap::sim
