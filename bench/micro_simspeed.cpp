// google-benchmark microbenchmarks of the simulator's hot paths: cache
// lookup, TLB lookup, DRAM access, full hierarchy access, execution-context
// operations, power-model evaluation and the BMC control step. These guard
// the simulator's own throughput (accesses simulated per second).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/tlb.hpp"
#include "core/bmc.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/virtual_node.hpp"
#include "fleet/datacenter.hpp"
#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"
#include "mem/dram.hpp"
#include "power/model.hpp"
#include "predict/learner.hpp"
#include "predict/phase.hpp"
#include "predict/predictor.hpp"
#include "sched/arrivals.hpp"
#include "sched/chunk_cache.hpp"
#include "sched/job.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/execution_context.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "sim/smp_node.hpp"
#include "telemetry/probe.hpp"
#include "thermal/governor.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace pcap;

void BM_CacheHit(benchmark::State& state) {
  cache::Cache l1({.name = "L1", .size_bytes = 32 * 1024});
  l1.access(0x1000, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.access(0x1000, false).hit);
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissStream(benchmark::State& state) {
  cache::Cache l1({.name = "L1", .size_bytes = 32 * 1024});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.access(addr, false).hit);
    addr += 64;
  }
}
BENCHMARK(BM_CacheMissStream);

void BM_L3RandomAccess(benchmark::State& state) {
  cache::Cache l3({.name = "L3",
                   .size_bytes = 20 * 1024 * 1024,
                   .line_bytes = 64,
                   .ways = 20});
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l3.access(rng.below(1u << 26), false).hit);
  }
}
BENCHMARK(BM_L3RandomAccess);

void BM_TlbLookup(benchmark::State& state) {
  cache::Tlb tlb({.name = "DTLB", .entries = 64});
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(rng.below(1u << 28)));
  }
}
BENCHMARK(BM_TlbLookup);

void BM_TlbHit(benchmark::State& state) {
  cache::Tlb tlb({.name = "DTLB", .entries = 64});
  std::uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup((page & 3) << 12));
    ++page;
  }
}
BENCHMARK(BM_TlbHit);

void BM_DramAccess(benchmark::State& state) {
  mem::Dram dram(mem::DramConfig{});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dram.access(addr));
    addr += 64;
  }
}
BENCHMARK(BM_DramAccess);

void BM_HierarchySequential(benchmark::State& state) {
  const sim::HierarchyConfig config = sim::MachineConfig::romley().hierarchy;
  cache::Cache l3(config.l3);
  mem::Dram dram(config.dram);
  pmu::CounterBank bank;
  sim::MemoryHierarchy hierarchy(config, bank, l3, dram);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hierarchy.access(addr, sim::AccessType::kLoad).cycles);
    addr += 8;
  }
}
BENCHMARK(BM_HierarchySequential);

void BM_ContextLoad(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  sim::ExecutionContext ctx(node);
  const sim::Address base = ctx.alloc(64 * 1024 * 1024);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    ctx.load(base + offset);
    offset = (offset + 64) & ((64ull << 20) - 1);
  }
}
BENCHMARK(BM_ContextLoad);

// Telemetry overhead cases, gated against BM_ContextLoad by
// tools/check_bench_regression.py: a probe that is attached but disabled
// must be free (<2%), an actively sampling one must stay under 5%.
void BM_ContextLoadTelemetryIdle(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  telemetry::NodeProbe probe;  // default config: disabled
  node.set_telemetry(&probe);
  sim::ExecutionContext ctx(node);
  const sim::Address base = ctx.alloc(64 * 1024 * 1024);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    ctx.load(base + offset);
    offset = (offset + 64) & ((64ull << 20) - 1);
  }
}
BENCHMARK(BM_ContextLoadTelemetryIdle);

void BM_ContextLoadTelemetry(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  telemetry::TelemetryConfig config;
  config.enabled = true;  // default 200 us period, trace-free
  telemetry::NodeProbe probe(config);
  node.set_telemetry(&probe);
  sim::ExecutionContext ctx(node);
  const sim::Address base = ctx.alloc(64 * 1024 * 1024);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    ctx.load(base + offset);
    offset = (offset + 64) & ((64ull << 20) - 1);
  }
}
BENCHMARK(BM_ContextLoadTelemetry);

// Batched stream cases: each iteration simulates a whole regular access
// stream, so per-iteration time is comparable between the batched
// pattern_stream and the per-op loop it must stay bit-identical to.
using StreamOp = sim::ExecutionContext::StreamOp;
void BM_ContextStreamLoad(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  sim::ExecutionContext ctx(node);
  // 16 KB hot buffer: L1-resident, so the stream is hit-dominated.
  const sim::Address base = ctx.alloc(16 * 1024);
  const StreamOp load[1] = {{.kind = StreamOp::Kind::kLoad, .base = base}};
  for (auto _ : state) {
    ctx.pattern_stream(load, 8, 2048, /*uops=*/0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2048);
}
BENCHMARK(BM_ContextStreamLoad);

// Per-op baseline of BM_ContextStreamLoad: the same 2048 loads, one
// ctx.load each. Gated as a within-run ratio (stream <= 0.9x per-op).
void BM_ContextLoadPerOp(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  sim::ExecutionContext ctx(node);
  const sim::Address base = ctx.alloc(16 * 1024);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 2048; ++i) ctx.load(base + 8 * i);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2048);
}
BENCHMARK(BM_ContextLoadPerOp);

// x[i]++ as one pattern: a load then a store of the element, then 2 uops.
std::array<StreamOp, 2> rmw_ops(sim::Address base) {
  return {{{.kind = StreamOp::Kind::kLoad, .base = base},
           {.kind = StreamOp::Kind::kStore, .base = base}}};
}

void BM_ContextRmw(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  sim::ExecutionContext ctx(node);
  const auto ops = rmw_ops(ctx.alloc(16 * 1024));
  for (auto _ : state) {
    ctx.pattern_stream(ops, 8, 1024, 2);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ContextRmw);

// The stride workload's read-modify-write loop: a 1-page code footprint
// makes every warm I-fetch a provable L1I-MRU + ITLB hit, so the
// load-then-store pattern's same-line groups span fetch slots. Gated as a within-run ratio against
// the same 1024 elements issued per op (stride <= 0.9x per-op).
void BM_ContextRmwStride(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  sim::ExecutionContext ctx(node);
  ctx.set_code_footprint(1, 1);
  const auto ops = rmw_ops(ctx.alloc(16 * 1024));
  for (auto _ : state) {
    ctx.pattern_stream(ops, 8, 1024, 2);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ContextRmwStride);

void BM_ContextRmwStridePerOp(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  sim::ExecutionContext ctx(node);
  ctx.set_code_footprint(1, 1);
  const sim::Address base = ctx.alloc(16 * 1024);
  for (auto _ : state) {
    for (std::uint64_t k = 0; k < 1024; ++k) {
      ctx.load(base + 8 * k);
      ctx.store(base + 8 * k);
      ctx.compute(2);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ContextRmwStridePerOp);

void BM_PowerModel(benchmark::State& state) {
  power::NodePowerModel model{power::NodePowerConfig{}};
  power::PowerInputs in;
  in.workload_running = true;
  in.active_cores = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.total_watts(in));
  }
}
BENCHMARK(BM_PowerModel);

// Scheduler replan cases: the policy decision runs at every cluster event
// (arrival, chunk completion), so it must stay trivially cheap next to the
// chunk simulation it schedules. The amenability policy's 1 W watt-filling
// loop is the expensive one; it is gated against the uniform baseline plan
// as a within-run ratio (OVERHEAD_CASES in tools/check_bench_regression.py),
// so machine speed cancels out.
sched::AmenabilityTable make_synthetic_table() {
  // Synthetic knee curves (bench-local; production tables come from
  // characterisation JSON): slowdown explodes below 135 W at a per-class
  // steepness so the watt-filling loop has real work to do.
  sched::AmenabilityTable table;
  const double steep[] = {10.5, 11.4, 3.0, 16.7};
  for (int c = 0; c < sched::kJobClassCount; ++c) {
    sched::ClassCurve curve;
    curve.cls = static_cast<sched::JobClass>(c);
    curve.baseline_power_w = 155.0;
    curve.baseline_time_s = 500e-6;
    curve.usable_floor_w = 135.0;
    for (const double cap : {115.0, 120.0, 125.0, 130.0, 135.0, 150.0}) {
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

sched::PlanInput make_plan_input(const sched::AmenabilityTable* table,
                                 const sched::OnlinePowerModel* model) {
  sched::PlanInput input;
  input.budget_w = 1080.0;
  input.now_s = 1e-3;
  input.table = table;
  input.model = model;
  for (std::size_t i = 0; i < 8; ++i) {
    sched::NodeView view;
    view.index = i;
    view.busy = i % 4 != 3;  // two idle nodes, six busy across all classes
    view.cls = static_cast<sched::JobClass>(i % sched::kJobClassCount);
    view.remaining_chunks = static_cast<int>(2 + i);
    view.applied_cap_w = 135.0;
    view.lanes.push_back(
        {0, view.busy, view.cls, view.remaining_chunks, std::nullopt});
    input.nodes.push_back(view);
  }
  input.queued.push_back({sched::JobClass::kStrideLike, 6, std::nullopt});
  input.queued.push_back({sched::JobClass::kPhased, 4, std::nullopt});
  return input;
}

void BM_SchedPlanUniform(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  sched::OnlinePowerModel model;
  model.set_table(&table);
  const sched::PlanInput input = make_plan_input(&table, &model);
  auto policy = sched::make_policy("uniform");
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->plan(input).cap_w.data());
  }
}
BENCHMARK(BM_SchedPlanUniform);

void BM_SchedPlanAmenability(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  sched::OnlinePowerModel model;
  model.set_table(&table);
  const sched::PlanInput input = make_plan_input(&table, &model);
  auto policy = sched::make_policy("amenability");
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->plan(input).cap_w.data());
  }
}
BENCHMARK(BM_SchedPlanAmenability);

// SMP co-run cells: one SIRE-like streaming chunk and one stereo-like
// cache-resident chunk per core pair (the scheduler's job classes), capped
// co-runs being the unit of work every placement study repeats. Guarded
// against the BENCH_simspeed.json baseline (tools/check_bench_regression.py).
void smp_corun_cell(benchmark::State& state, int cores) {
  sim::SmpConfig config;
  config.cores = cores;
  // Fine-grained interleave (500 ns vs the default 5 us): the engine switch
  // path is what this case measures, so switch often.
  config.quantum = util::nanoseconds(500);
  sim::SmpNode node(config, 1);
  std::vector<std::unique_ptr<sim::Workload>> instances;
  std::vector<sim::Workload*> ws;
  for (int i = 0; i < cores; ++i) {
    const sched::JobClass cls = i % 2 == 0 ? sched::JobClass::kSireLike
                                           : sched::JobClass::kStereoLike;
    instances.push_back(sched::make_chunk_workload(
        cls, static_cast<std::uint64_t>(i) + 1, 0));
    ws.push_back(instances.back().get());
  }
  for (auto _ : state) {
    node.flush_all_caches();
    benchmark::DoNotOptimize(node.run(ws).elapsed);
  }
}

void BM_SmpCoRun2(benchmark::State& state) { smp_corun_cell(state, 2); }
BENCHMARK(BM_SmpCoRun2)->MinTime(1.0);

void BM_SmpCoRun4(benchmark::State& state) { smp_corun_cell(state, 4); }
BENCHMARK(BM_SmpCoRun4)->MinTime(1.0);

// Chunk memoization (DESIGN.md §12): what one chunk start costs the
// scheduler on a cache miss (a full pure simulation) vs a hit (key build +
// lookup + replay). Gated as a within-run ratio: hits must stay >= 5x
// cheaper than misses.
void BM_SchedChunkMemoMiss(benchmark::State& state) {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const core::BmcConfig bmc;
  sched::ChunkKey key;
  key.cls = sched::JobClass::kStereoLike;
  key.identity = sched::chunk_identity(sched::JobClass::kStereoLike, 3, 0);
  key.cap_bits = sched::ChunkKey::encode_cap(150.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::simulate_chunk(machine, bmc, key, 3, 0, 1).elapsed);
  }
}
BENCHMARK(BM_SchedChunkMemoMiss);

void BM_SchedChunkMemoHit(benchmark::State& state) {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const core::BmcConfig bmc;
  const sched::CoRunMember member =
      sched::CoRunMember::of(sched::JobClass::kStereoLike, 3, 0);
  sched::ChunkKey key;
  key.cls = member.cls;
  key.identity = member.identity;
  key.cap_bits = sched::ChunkKey::encode_cap(150.0);
  // A solo start is memoised as its one-member cell.
  sched::CoRunKey probe;
  probe.cap_bits = key.cap_bits;
  probe.members = {member};
  sched::ChunkCache cache;
  cache.insert(probe, {sched::simulate_chunk(machine, bmc, key, 3, 0, 1)});
  for (auto _ : state) {
    // The scheduler's per-start hit path: rebuild the one-member key in
    // reused scratch, look it up, copy the recorded result.
    probe.cap_bits = sched::ChunkKey::encode_cap(150.0);
    probe.members.assign(
        1, sched::CoRunMember::of(sched::JobClass::kStereoLike, 3, 0));
    const std::vector<sched::ChunkResult>* found = cache.find(probe);
    benchmark::DoNotOptimize((*found)[0].elapsed);
  }
}
BENCHMARK(BM_SchedChunkMemoHit);

// Arena-backed cell construction (DESIGN.md §17): what a memo miss pays
// for its fresh per-cell Node graph (cache arrays, TLB entries, DRAM row
// buffers) — building the node and running one short chunk on it (one
// kStrideLike chunk) — on the arena-backed cell path vs the heap path.
// Off the arena the cache arrays are zero pages, so the heap case pays
// their cost where the chunk first writes each page, not at construction;
// the arena's pages stay mapped across cells. The simulation math is
// identical either way (placement and metadata init never feed it); the
// gate ratchets the arena's speedup (>= 1.3x) on the whole miss.
void run_miss_cell(const sim::MachineConfig& machine, sim::Workload& chunk) {
  sim::Node node(machine, 1);
  benchmark::DoNotOptimize(node.run(chunk).elapsed);
}

void BM_ChunkMissArena(benchmark::State& state) {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const auto chunk =
      sched::make_chunk_workload(sched::JobClass::kStrideLike, 1, 0);
  for (auto _ : state) {
    util::CellArenaScope scope;  // reset + reuse this thread's arena
    run_miss_cell(machine, *chunk);
  }
}
BENCHMARK(BM_ChunkMissArena);

void BM_ChunkMissHeap(benchmark::State& state) {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const auto chunk =
      sched::make_chunk_workload(sched::JobClass::kStrideLike, 1, 0);
  util::set_cell_arena_enabled(false);
  for (auto _ : state) {
    util::CellArenaScope scope;  // no-op while the arena is disabled
    run_miss_cell(machine, *chunk);
  }
  util::set_cell_arena_enabled(true);
}
BENCHMARK(BM_ChunkMissHeap);

// Persistent chunk-memo store (DESIGN.md §17): the same small scheduler
// study cold (store deleted first: every chunk simulates, then the store
// is written) vs warm (store loaded: zero misses, pure replay). Gated as a
// within-run ratio — the warm study must stay >= 5x cheaper.
void BM_SchedStudyColdStore(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  sched::ArrivalConfig arrivals;
  arrivals.job_count = 4;
  arrivals.min_chunks = 2;
  arrivals.max_chunks = 3;
  arrivals.class_weights = {1.0, 1.0, 0.0, 0.0};
  arrivals.seed = 11;
  const std::vector<sched::JobSpec> stream = sched::generate_stream(arrivals);
  const char* store = "bench_memo_cold.pcms";
  for (auto _ : state) {
    std::remove(store);
    sched::SchedulerConfig config;
    config.node_count = 2;
    config.budget_w = 300.0;
    config.policy_name = "amenability";
    config.seed = 11;
    config.table = &table;
    config.memo_store = store;
    sched::ClusterScheduler scheduler(config);
    benchmark::DoNotOptimize(scheduler.run(stream).makespan_s);
  }
  std::remove(store);
}
BENCHMARK(BM_SchedStudyColdStore);

void BM_SchedStudyWarmStore(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  sched::ArrivalConfig arrivals;
  arrivals.job_count = 4;
  arrivals.min_chunks = 2;
  arrivals.max_chunks = 3;
  arrivals.class_weights = {1.0, 1.0, 0.0, 0.0};
  arrivals.seed = 11;
  const std::vector<sched::JobSpec> stream = sched::generate_stream(arrivals);
  const char* store = "bench_memo_warm.pcms";
  std::remove(store);
  auto run_once = [&] {
    sched::SchedulerConfig config;
    config.node_count = 2;
    config.budget_w = 300.0;
    config.policy_name = "amenability";
    config.seed = 11;
    config.table = &table;
    config.memo_store = store;
    sched::ClusterScheduler scheduler(config);
    return scheduler.run(stream).makespan_s;
  };
  run_once();  // record the store once; every timed run replays it
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once());
  }
  std::remove(store);
}
BENCHMARK(BM_SchedStudyWarmStore);

// Whole-scheduler event loop on a classic single-job-per-node rack: the
// placement/replan/chunk-start machinery end to end, with nothing ever
// co-resident. check_bench_regression.py guards this case cross-run at a
// tight 5% threshold, so the per-lane co-scheduling machinery cannot tax
// schedules that never use it.
void BM_SchedRunLane1(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  sched::ArrivalConfig arrivals;
  arrivals.job_count = 4;
  arrivals.min_chunks = 2;
  arrivals.max_chunks = 3;
  arrivals.class_weights = {1.0, 1.0, 0.0, 0.0};
  arrivals.seed = 11;
  const std::vector<sched::JobSpec> stream = sched::generate_stream(arrivals);
  for (auto _ : state) {
    sched::SchedulerConfig config;
    config.node_count = 2;
    config.budget_w = 300.0;
    config.policy_name = "amenability";
    config.seed = 11;
    config.table = &table;
    sched::ClusterScheduler scheduler(config);
    benchmark::DoNotOptimize(scheduler.run(stream).makespan_s);
  }
}
BENCHMARK(BM_SchedRunLane1);

// The same rack with two lanes per node and enough queue pressure that
// chunks genuinely co-run: exercises the SmpNode co-run cells, the co-run
// memo, and the per-lane placement path. Not ratcheted against a baseline
// (co-run cells are real multi-core simulation, priced separately from the
// lane-1 fast path the 5% gate guards); tracked for visibility.
void BM_SchedRunLane2(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  sched::ArrivalConfig arrivals;
  arrivals.job_count = 6;
  arrivals.min_chunks = 2;
  arrivals.max_chunks = 3;
  arrivals.class_weights = {1.0, 1.0, 0.0, 0.0};
  arrivals.seed = 11;
  const std::vector<sched::JobSpec> stream = sched::generate_stream(arrivals);
  for (auto _ : state) {
    sched::SchedulerConfig config;
    config.node_count = 2;
    config.lanes_per_node = 2;
    config.budget_w = 300.0;
    config.policy_name = "contention";
    config.seed = 11;
    config.table = &table;
    sched::ClusterScheduler scheduler(config);
    benchmark::DoNotOptimize(scheduler.run(stream).makespan_s);
  }
}
BENCHMARK(BM_SchedRunLane2);

// Predict subsystem hot paths (src/predict/). BM_PredictTick is one phase
// observation including the cached-forecast recompute (the per-chunk cost
// the scheduler hook pays); BM_LearnerUpdate is one capped-sample learner
// update including the PAVA projection and table materialisation.
void BM_PredictTick(benchmark::State& state) {
  predict::PhasePredictor predictor;
  // Period-4 square wave, the detector's worst case for a confident hit:
  // every push rescans all lags over the full 64-sample window.
  const double levels[] = {420e-6, 420e-6, 420e-6, 910e-6};
  std::size_t i = 0;
  for (auto _ : state) {
    predictor.observe(levels[i++ & 3]);
    benchmark::DoNotOptimize(predictor.forecast().confidence);
  }
}
BENCHMARK(BM_PredictTick);

void BM_LearnerUpdate(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  predict::OnlineAmenabilityLearner learner;
  learner.bootstrap(table);
  sched::CoRunObservation obs;
  obs.cls = sched::JobClass::kSireLike;
  obs.elapsed_s = 900e-6;
  const double caps[] = {115.0, 125.0, 135.0, 150.0};
  std::size_t i = 0;
  for (auto _ : state) {
    obs.cap_w = caps[i++ & 3];
    learner.observe(obs, *obs.cap_w);
    benchmark::DoNotOptimize(learner.table().size());
  }
}
BENCHMARK(BM_LearnerUpdate);

// Predictor overhead on the whole scheduler event loop, gated as
// within-run ratios (OVERHEAD_CASES in tools/check_bench_regression.py):
// an attached-but-disabled predictor must be essentially free next to the
// no-predictor run (<= 1.02x), and a fully active one (phase detection +
// online learning + proactive planning per chunk/replan) must stay well
// under the chunk simulation it steers (<= 1.5x). MinTime(1.0) keeps the
// tight 1.02x gate out of timer noise.
sched::ScheduleResult run_predictor_case(const sched::AmenabilityTable& table,
                                         const std::vector<sched::JobSpec>& stream,
                                         predict::Predictor* predictor) {
  sched::SchedulerConfig config;
  config.node_count = 2;
  config.budget_w = 300.0;
  config.policy_name = "amenability";
  config.seed = 11;
  config.table = &table;
  config.predictor = predictor;
  sched::ClusterScheduler scheduler(config);
  return scheduler.run(stream);
}

std::vector<sched::JobSpec> predictor_case_stream() {
  sched::ArrivalConfig arrivals;
  arrivals.job_count = 4;
  arrivals.min_chunks = 2;
  arrivals.max_chunks = 3;
  arrivals.class_weights = {1.0, 1.0, 0.0, 0.0};
  arrivals.seed = 11;
  return sched::generate_stream(arrivals);
}

void BM_SchedRunPredictorNone(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  const auto stream = predictor_case_stream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_predictor_case(table, stream, nullptr).makespan_s);
  }
}
BENCHMARK(BM_SchedRunPredictorNone)->MinTime(1.0);

void BM_SchedRunPredictorOff(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  const auto stream = predictor_case_stream();
  predict::Predictor predictor;  // attached, enabled == false
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_predictor_case(table, stream, &predictor).makespan_s);
  }
}
BENCHMARK(BM_SchedRunPredictorOff)->MinTime(1.0);

void BM_SchedRunPredictorOn(benchmark::State& state) {
  const sched::AmenabilityTable table = make_synthetic_table();
  const auto stream = predictor_case_stream();
  predict::PredictorConfig pc;
  pc.enabled = true;
  pc.learn_online = true;
  pc.phase.window = 16;
  for (auto _ : state) {
    predict::Predictor predictor(pc);  // fresh learned state per run
    predictor.bootstrap(table);
    benchmark::DoNotOptimize(
        run_predictor_case(table, stream, &predictor).makespan_s);
  }
}
BENCHMARK(BM_SchedRunPredictorOn)->MinTime(1.0);

// One datacenter control tick over an idle 1024-node fleet (32 racks x 32
// nodes): the root coupler round, every rack rebalancing its nodes over
// the in-process IPMI links, and the per-tick invariant accounting. This is
// the fleet planner's fixed per-tick overhead, guarded by the ratchet in
// tools/check_bench_regression.py.
void BM_FleetPlan1k(benchmark::State& state) {
  fleet::FleetConfig config;
  config.rack_nodes.assign(32, 32);
  config.seed = 3;
  fleet::DatacenterManager dc(config);
  for (auto _ : state) {
    dc.step();
    benchmark::DoNotOptimize(dc.now_s());
  }
}
BENCHMARK(BM_FleetPlan1k);

// 10k-node smoke (100 x 100): tracked for visibility, not ratcheted — it
// prices the same per-tick loop at ten times the fan-out.
void BM_FleetPlan10k(benchmark::State& state) {
  fleet::FleetConfig config;
  config.rack_nodes.assign(100, 100);
  config.seed = 3;
  fleet::DatacenterManager dc(config);
  for (auto _ : state) {
    dc.step();
    benchmark::DoNotOptimize(dc.now_s());
  }
}
BENCHMARK(BM_FleetPlan10k)->MinTime(0.5);

// One GetPowerReading exchange through the stack every fleet node link
// uses: Session -> FaultyTransport (fault rates zero, so every exchange
// completes) -> NodeIpmiServer<VirtualNode>. Prices the codec, the fault
// decorator and the server dispatch; tracked, not gated.
void BM_IpmiExchange(benchmark::State& state) {
  core::VirtualNode node(110.0, 400.0, 101.0);
  core::NodeIpmiServer<core::VirtualNode> server(node);
  ipmi::FaultyTransport faulty(server, ipmi::FaultSpec{}, 7);
  ipmi::Session session(faulty);
  const ipmi::Request request = ipmi::make_get_power_reading();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.transact(request).payload.size());
  }
}
BENCHMARK(BM_IpmiExchange);

// One fleet node poll as a rack pays it every tick: ManagedNode::
// power_reading() (retry with backoff, decode) over a link that drops 2 %,
// duplicates 1 % and corrupts 1 % of exchanges (perfbench's fleet_warm
// faults) into a VirtualNode. Tracked, not gated: the per-exchange layer
// number behind fleet_warm's wall time.
void BM_FleetNodePoll(benchmark::State& state) {
  core::VirtualNode node(110.0, 400.0, 101.0);
  core::NodeIpmiServer<core::VirtualNode> server(node);
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.01;
  faults.corrupt_rate = 0.01;
  ipmi::FaultyTransport faulty(server, faults, 7);
  core::ManagedNode client("n0", faulty);
  for (auto _ : state) {
    const std::optional<ipmi::PowerReading> reading = client.power_reading();
    benchmark::DoNotOptimize(reading);
  }
}
BENCHMARK(BM_FleetNodePoll);

void BM_BmcControlTick(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  core::Bmc bmc(node);
  bmc.set_cap(130.0);
  for (auto _ : state) {
    bmc.on_control_tick();
  }
}
BENCHMARK(BM_BmcControlTick);

// Thermal subsystem overhead, gated by tools/check_bench_regression.py.
// The promise studies depend on is the governor-OFF one: a node carrying
// the full RC network and fan as an observe-only shadow (the study
// default) must stay within 5% of the plain single-RC node on the same
// idle advance (one BMC control period of simulated time per iteration).
// The governor-enabled case is a second, looser ceiling: the extra
// control plane may cost, but never blow up.
void BM_ThermalTickOff(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley());
  core::Bmc bmc(node);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(130.0);
  for (auto _ : state) {
    node.idle_for(util::microseconds(20.0));
  }
  node.set_control_hook(nullptr);
}
BENCHMARK(BM_ThermalTickOff);

// RC network + fan present, governor absent: the bit-identical shadow
// configuration every study runs with.
void BM_ThermalTickShadow(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley_thermal());
  core::Bmc bmc(node);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  bmc.set_cap(130.0);
  for (auto _ : state) {
    node.idle_for(util::microseconds(20.0));
  }
  node.set_control_hook(nullptr);
}
BENCHMARK(BM_ThermalTickShadow);

void BM_ThermalTick(benchmark::State& state) {
  sim::Node node(sim::MachineConfig::romley_thermal());
  core::Bmc bmc(node);
  thermal::ThermalGovernor governor(node);
  node.set_control_hook([&](sim::PlatformControl&) {
    bmc.on_control_tick();
    governor.on_control_tick();
  });
  bmc.set_cap(130.0);
  for (auto _ : state) {
    node.idle_for(util::microseconds(20.0));
  }
  node.set_control_hook(nullptr);
}
BENCHMARK(BM_ThermalTick);

}  // namespace

int main(int argc, char** argv) {
  // Provenance stamp for tools/check_bench_regression.py: the build type of
  // the code under test. google-benchmark's own library_build_type context
  // key describes how the (system) benchmark LIBRARY was built, which says
  // nothing about this repo's optimisation level — distro packages report
  // "debug" forever. A baseline captured from a debug build of the
  // simulator must never be ratcheted against.
#ifdef NDEBUG
  benchmark::AddCustomContext("repo_build_type", "release");
#else
  benchmark::AddCustomContext("repo_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
