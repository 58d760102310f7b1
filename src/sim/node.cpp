#include "sim/node.hpp"

#include <algorithm>

#include "sim/execution_context.hpp"

namespace pcap::sim {

Node::Node(const MachineConfig& config, std::uint64_t seed)
    : PackagePlatform(config, seed),
      lane_(config, pstates_, l3_, dram_),
      next_tick_(config.ticks.node_tick) {
  add_lane(lane_);
  power_on();
}

void Node::tick() {
  const util::Picoseconds now = lane_.core.now();
  next_tick_ = now + machine_.ticks.node_tick;
  if (!account(now)) return;
  noise_step(now);
  control_step(now);
  probe_step(now);
}

RunReport Node::run(Workload& workload) {
  const util::Picoseconds start = lane_.core.now();
  const auto before = lane_.bank.snapshot();

  begin_run(start);
  lane_.live = true;
  next_tick_ = start + machine_.ticks.node_tick;

  ExecutionContext ctx(*this);
  workload.run(ctx);
  tick();  // capture the tail of the run
  running_ = false;
  lane_.live = false;

  RunReport report;
  report.workload = workload.name();
  report.elapsed = lane_.core.now() - start;
  const PackageTotals totals = package_.end_run(report.elapsed);
  report.energy_j = totals.energy_j;
  report.avg_power_w = totals.avg_power_w;
  report.peak_power_w = totals.peak_power_w;
  report.avg_frequency = totals.avg_frequency;
  report.avg_duty = totals.avg_duty;
  report.final_temperature_c = totals.final_temperature_c;
  const auto after = lane_.bank.snapshot();
  for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
    report.counters[i] = after[i] - before[i];
  }
  return report;
}

void Node::idle_for(util::Picoseconds duration) {
  const util::Picoseconds end = lane_.core.now() + duration;
  while (lane_.core.now() < end) {
    const util::Picoseconds step =
        std::min(machine_.ticks.node_tick, end - lane_.core.now());
    lane_.core.idle_advance(step);
    tick();
  }
}

}  // namespace pcap::sim
