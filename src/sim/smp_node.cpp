#include "sim/smp_node.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/units.hpp"

namespace pcap::sim {

SmpNode::SmpNode(const SmpConfig& config, std::uint64_t seed)
    : PackagePlatform(config.machine, seed), quantum_(config.quantum) {
  if (config.cores < 1) throw std::invalid_argument("SmpNode: cores < 1");
  if (config.cores > config.machine.power.cores) {
    throw std::invalid_argument("SmpNode: more cores than the platform has");
  }
  lanes_.reserve(static_cast<std::size_t>(config.cores));
  for (int i = 0; i < config.cores; ++i) {
    lanes_.push_back(
        std::make_unique<Lane>(i, config.machine, pstates_, l3_, dram_));
    add_lane(*lanes_.back());
  }
  power_on();
}

SmpNode::~SmpNode() { teardown_lanes(); }

void SmpNode::flush_all_caches() {
  for (auto& lane : lanes_) {
    lane->hierarchy.flush_private();
    lane->hierarchy.flush_tlbs();
  }
  l3_.flush_all();
  dram_.close_rows();
}

// --- package housekeeping ---

void SmpNode::housekeeping(util::Picoseconds upto) {
  if (!account(upto)) return;
  node_now_ = upto;
  probe_step(upto);
  noise_step(upto);
  control_step(upto);
}

// --- quantum scheduling ---

void SmpNode::Lane::on_op() {
  // A fiber lane suspends back to the run queue; a steppable lane's step()
  // observes the clock and returns on its own.
  if (core.now() >= quantum_end && fiber != nullptr) util::Fiber::yield();
}

int SmpNode::pick_next_lane() const {
  int best = -1;
  for (const auto& lane : lanes_) {
    if (!lane->live) continue;
    if (best < 0 || lane->core.now() <
                        lanes_[static_cast<std::size_t>(best)]->core.now()) {
      best = lane->index;
    }
  }
  return best;
}

void SmpNode::settle_quantum() {
  // Housekeeping runs up to the slowest unfinished core (everything before
  // that point is final).
  util::Picoseconds horizon = 0;
  bool any_unfinished = false;
  for (const auto& lane : lanes_) {
    if (lane->live) {
      horizon = any_unfinished ? std::min(horizon, lane->core.now())
                               : lane->core.now();
      any_unfinished = true;
    }
  }
  if (any_unfinished) housekeeping(horizon);
}

// --- run prologue / epilogue ---

util::Picoseconds SmpNode::prepare_run(std::span<Workload* const> workloads) {
  if (workloads.empty() ||
      workloads.size() > static_cast<std::size_t>(core_count())) {
    throw std::invalid_argument("SmpNode::run: bad workload count");
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (workloads[i] == nullptr) {
      throw std::invalid_argument("SmpNode::run: null workload");
    }
    for (std::size_t j = i + 1; j < workloads.size(); ++j) {
      if (workloads[i] == workloads[j]) {
        // One workload object carries one instruction-stream state; two
        // lanes advancing it would interleave that state incoherently.
        throw std::invalid_argument("SmpNode::run: duplicate workload");
      }
    }
  }

  // Align every core to a common start time.
  util::Picoseconds start = node_now_;
  for (const auto& lane : lanes_) start = std::max(start, lane->core.now());
  for (const auto& lane : lanes_) {
    if (lane->core.now() < start) {
      lane->core.idle_advance(start - lane->core.now());
    }
  }

  begin_run(start);
  node_now_ = start;

  for (auto& lane : lanes_) {
    lane->workload = nullptr;
    lane->live = false;
    lane->start_time = start;
    lane->start_counters = lane->bank.snapshot();
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    lanes_[i]->workload = workloads[i];
    lanes_[i]->live = true;
  }

  // Seed the aggregate-rate baselines.
  CounterTotals totals;
  for (const auto& lane : lanes_) totals.add(lane->bank);
  package_.rebase(totals);
  return start;
}

SmpRunReport SmpNode::finish_run(std::span<Workload* const> workloads,
                                 util::Picoseconds start) {
  // Close out the run at the slowest core's finish time.
  util::Picoseconds end = start;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    end = std::max(end, lanes_[i]->core.now());
  }
  housekeeping(end);
  running_ = false;

  SmpRunReport report;
  report.elapsed = end - start;
  const PackageTotals totals = package_.end_run(report.elapsed);
  report.energy_j = totals.energy_j;
  report.avg_power_w = totals.avg_power_w;
  report.peak_power_w = totals.peak_power_w;
  report.avg_frequency = totals.avg_frequency;
  double busy_s_total = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Lane& lane = *lanes_[i];
    SmpCoreReport core_report;
    core_report.workload = workloads[i]->name();
    core_report.elapsed = lane.core.now() - lane.start_time;
    busy_s_total += util::to_seconds(core_report.elapsed);
    const auto after = lane.bank.snapshot();
    for (std::size_t e = 0; e < pmu::kEventCount; ++e) {
      core_report.counters[e] = after[e] - lane.start_counters[e];
      report.counters[e] += core_report.counters[e];
    }
    report.cores.push_back(std::move(core_report));
  }
  // Package energy attributed per core by busy time (there is no per-core
  // meter on this platform); shares sum to the metered total.
  for (SmpCoreReport& core_report : report.cores) {
    core_report.energy_share_j =
        busy_s_total > 0.0
            ? report.energy_j *
                  (util::to_seconds(core_report.elapsed) / busy_s_total)
            : 0.0;
  }
  return report;
}

void SmpNode::teardown_lanes() noexcept {
  for (auto& lane : lanes_) {
    if (lane->fiber != nullptr && !lane->fiber->done()) {
      // Unwind the suspended workload stack through its destructors.
      lane->fiber->cancel();
    }
    lane->fiber.reset();
    lane->ctx.reset();
  }
}

// --- cooperative engine ---

SmpRunReport SmpNode::run(std::span<Workload* const> workloads) {
  const util::Picoseconds start = prepare_run(workloads);

  // Per-core contexts: each lane gets its own ExecutionContext whose sink
  // horizon is that lane's quantum end, so pattern_stream elides per-op sink
  // calls inside a quantum and truncates bulk groups exactly at the quantum
  // boundary.
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    Lane* lane = lanes_[i].get();
    lane->ctx = std::make_unique<ExecutionContext>(
        lane->hierarchy, lane->core, *lane, machine_,
        static_cast<std::uint32_t>(lane->index));
    if (lane->workload->supports_step()) {
      lane->workload->begin_steps();
      lane->fiber = nullptr;
    } else {
      lane->fiber = std::make_unique<util::Fiber>(
          [lane] { lane->workload->run(*lane->ctx); });
    }
  }

  try {
    // Min-local-time run queue: always resume the laggard core for one
    // quantum, then settle node housekeeping behind the pack.
    for (;;) {
      const int next = pick_next_lane();
      if (next < 0) break;
      Lane& lane = *lanes_[static_cast<std::size_t>(next)];
      lane.quantum_end = lane.core.now() + quantum_;
      if (lane.fiber != nullptr) {
        lane.fiber->resume();
        if (lane.fiber->done()) {
          lane.live = false;
          if (auto error = lane.fiber->exception()) {
            std::rethrow_exception(error);
          }
        }
      } else {
        if (lane.workload->step(*lane.ctx, lane.quantum_end)) {
          lane.live = false;
        }
      }
      settle_quantum();
    }
  } catch (...) {
    // A workload or control hook threw: unwind every suspended co-runner
    // before the exception escapes so no continuation outlives the run.
    teardown_lanes();
    running_ = false;
    throw;
  }

  teardown_lanes();
  return finish_run(workloads, start);
}

}  // namespace pcap::sim
