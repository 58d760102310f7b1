#include "sim/smp_node.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/units.hpp"

namespace pcap::sim {

SmpNode::SmpNode(const SmpConfig& config, std::uint64_t seed)
    : PackagePlatform(config.machine),
      config_(config),
      pstates_(power::PStateTable::romley_e5_2680()),
      l3_(config.machine.hierarchy.l3),
      dram_(config.machine.hierarchy.dram),
      rng_(seed) {
  if (config.cores < 1) throw std::invalid_argument("SmpNode: cores < 1");
  if (config.cores > config.machine.power.cores) {
    throw std::invalid_argument("SmpNode: more cores than the platform has");
  }
  lanes_.reserve(static_cast<std::size_t>(config.cores));
  for (int i = 0; i < config.cores; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->index = i;
    lane->hierarchy = std::make_unique<MemoryHierarchy>(
        config.machine.hierarchy, lane->bank, l3_, dram_);
    lane->core = std::make_unique<CoreModel>(config.machine.core, pstates_,
                                             lane->bank);
    lanes_.push_back(std::move(lane));
  }
  package_.power_on(operating_point());
}

SmpNode::~SmpNode() { teardown_lanes(); }

// --- PlatformControl: package-level actuation ---

std::uint32_t SmpNode::pstate() const { return lanes_.front()->core->pstate(); }

void SmpNode::set_pstate(std::uint32_t index) {
  for (auto& lane : lanes_) lane->core->set_pstate(index);
}

util::Hertz SmpNode::frequency() const {
  return lanes_.front()->core->frequency();
}

double SmpNode::duty() const { return lanes_.front()->core->duty(); }

void SmpNode::set_duty(double duty) {
  for (auto& lane : lanes_) lane->core->set_duty(duty);
}

void SmpNode::set_l3_ways(std::uint32_t n) {
  const bool shrinking = n < l3_.active_ways();
  l3_.set_active_ways(n);
  if (shrinking) {
    // Inclusive-L3 reconfiguration disrupts every core's private levels.
    for (auto& lane : lanes_) lane->hierarchy->flush_private();
  }
}

std::uint32_t SmpNode::l2_ways() const {
  return lanes_.front()->hierarchy->l2_ways();
}

void SmpNode::set_l2_ways(std::uint32_t n) {
  for (auto& lane : lanes_) lane->hierarchy->set_l2_ways(n);
}

std::uint32_t SmpNode::itlb_entries() const {
  return lanes_.front()->hierarchy->itlb_entries();
}

void SmpNode::set_itlb_entries(std::uint32_t n) {
  for (auto& lane : lanes_) lane->hierarchy->set_itlb_entries(n);
}

std::uint32_t SmpNode::dtlb_entries() const {
  return lanes_.front()->hierarchy->dtlb_entries();
}

void SmpNode::set_dtlb_entries(std::uint32_t n) {
  for (auto& lane : lanes_) lane->hierarchy->set_dtlb_entries(n);
}

void SmpNode::flush_all_caches() {
  for (auto& lane : lanes_) {
    lane->hierarchy->flush_private();
    lane->hierarchy->flush_tlbs();
  }
  l3_.flush_all();
  dram_.close_rows();
}

// --- package housekeeping ---

OperatingPoint SmpNode::operating_point() const {
  const CoreModel& core = *lanes_.front()->core;
  OperatingPoint op;
  for (const auto& lane : lanes_) op.active_cores += lane->finished ? 0 : 1;
  op.pstate = core.pstate();
  op.frequency = core.frequency();
  op.voltage = core.voltage();
  op.duty = core.duty();
  op.l3_active_ways = static_cast<int>(l3_.active_ways());
  op.dram_gated = dram_.gated();
  return op;
}

void SmpNode::housekeeping(util::Picoseconds upto) {
  CounterTotals totals;
  for (const auto& lane : lanes_) totals.add(lane->bank);
  // running_ stays set through finish_run's closing step, when no lane is
  // live any more: the package then prices an idle node but keeps the last
  // stall fraction.
  if (!package_.account(upto, totals, operating_point(), running_)) return;
  node_now_ = upto;

  // Telemetry before noise and control, so a sample shows the operating
  // point the quantum ran at.
  if constexpr (telemetry::kCompiledIn) feed_probes(upto);

  if (os_noise_enabled_ && running_ && upto >= next_noise_) {
    for (auto& lane : lanes_) {
      lane->hierarchy->flush_tlbs();
      if (!lane->finished) lane->core->external_drain();
    }
    const double jitter = 0.8 + 0.4 * rng_.uniform();
    next_noise_ = upto + static_cast<util::Picoseconds>(
                             static_cast<double>(
                                 config_.machine.ticks.os_noise_period) *
                             jitter);
  }
  if (control_hook_ && upto >= next_control_) {
    control_hook_(*this);
    next_control_ = upto + config_.machine.ticks.bmc_period;
  }
}

void SmpNode::feed_probes(util::Picoseconds now) {
  // Probes only read simulator state; feeding them cannot perturb the run.
  const auto package_due =
      probe_ != nullptr && probe_->wants_sample(now);
  bool any_core_due = false;
  for (std::size_t i = 0; i < core_probes_.size() && i < lanes_.size(); ++i) {
    if (core_probes_[i] != nullptr && core_probes_[i]->wants_sample(now)) {
      any_core_due = true;
      break;
    }
  }
  if (!package_due && !any_core_due) return;

  const telemetry::ProbeInput in =
      package_.probe_input(now, operating_point());
  if (package_due) {
    telemetry::ProbeInput agg = in;
    for (const auto& lane : lanes_) add_probe_counters(agg, lane->bank);
    probe_->on_tick(agg);
  }
  for (std::size_t i = 0; i < core_probes_.size() && i < lanes_.size(); ++i) {
    telemetry::NodeProbe* probe = core_probes_[i];
    if (probe == nullptr || !probe->wants_sample(now)) continue;
    telemetry::ProbeInput per = in;  // package operating point ...
    add_probe_counters(per, lanes_[i]->bank);  // ... per-core counters
    probe->on_tick(per);
  }
}

// --- quantum scheduling ---

void SmpNode::Lane::on_op() {
  // A fiber lane suspends back to the run queue; a steppable lane's step()
  // observes the clock and returns on its own.
  if (core->now() >= quantum_end && fiber != nullptr) util::Fiber::yield();
}

int SmpNode::pick_next_lane() const {
  int best = -1;
  for (const auto& lane : lanes_) {
    if (lane->finished) continue;
    if (best < 0 || lane->core->now() < lanes_[static_cast<std::size_t>(best)]
                                            ->core->now()) {
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
    if (!lane->finished) {
      horizon = any_unfinished ? std::min(horizon, lane->core->now())
                               : lane->core->now();
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
  for (const auto& lane : lanes_) start = std::max(start, lane->core->now());
  for (const auto& lane : lanes_) {
    if (lane->core->now() < start) {
      lane->core->idle_advance(start - lane->core->now());
    }
  }

  running_ = true;
  package_.begin_run(start);
  node_now_ = start;
  next_control_ = start + config_.machine.ticks.bmc_period;
  next_noise_ = start + config_.machine.ticks.os_noise_period;

  for (auto& lane : lanes_) {
    lane->workload = nullptr;
    lane->finished = true;
    lane->start_time = start;
    lane->start_counters = lane->bank.snapshot();
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    lanes_[i]->workload = workloads[i];
    lanes_[i]->finished = false;
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
    end = std::max(end, lanes_[i]->core->now());
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
    core_report.elapsed = lane.core->now() - lane.start_time;
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

  // Per-core stream contexts: each lane gets its own ExecutionContext whose
  // sink horizon is that lane's quantum end, so the PR 2 batched streams
  // (load/store/rmw/pattern) elide per-op sink calls inside a quantum and
  // truncate bulk groups exactly at the quantum boundary.
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    Lane* lane = lanes_[i].get();
    lane->ctx = std::make_unique<ExecutionContext>(
        *lane->hierarchy, *lane->core, *lane, config_.machine,
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
      lane.quantum_end = lane.core->now() + config_.quantum;
      if (lane.fiber != nullptr) {
        lane.fiber->resume();
        if (lane.fiber->done()) {
          lane.finished = true;
          if (auto error = lane.fiber->exception()) {
            std::rethrow_exception(error);
          }
        }
      } else {
        if (lane.workload->step(*lane.ctx, lane.quantum_end)) {
          lane.finished = true;
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
