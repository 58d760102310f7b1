// SMP co-run quickstart: two workloads sharing one Romley node's L3 and
// DRAM — a SIRE-like streaming chunk on core 0 and a stereo-like
// cache-resident chunk on core 1 — run uncapped and under a 130 W BMC cap.
//
// The cell runs on the single-threaded cooperative engine (the default):
// cores interleave deterministically in fixed simulated-time quanta, so
// repeated runs are bit-for-bit identical while L3/DRAM contention between
// the co-runners is modelled for real. Per-core telemetry probes chart each
// core's IPC and L1 behaviour side by side without disturbing the results.
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/bmc.hpp"
#include "sched/job.hpp"
#include "sim/smp_node.hpp"
#include "telemetry/probe.hpp"
#include "util/units.hpp"

namespace {

constexpr const char* kCoreLabels[] = {"core0 (sire-like)  ",
                                       "core1 (stereo-like)"};

void print_report(const char* label, const pcap::sim::SmpRunReport& report) {
  using namespace pcap;
  std::printf("%s\n", label);
  std::printf("  makespan           : %8.3f ms\n",
              1e3 * util::to_seconds(report.elapsed));
  std::printf("  avg node power     : %6.1f W\n", report.avg_power_w);
  std::printf("  energy             : %8.2f J\n", report.energy_j);
  std::printf("  avg frequency      : %s\n",
              util::format_hertz(report.avg_frequency).c_str());
  for (std::size_t i = 0; i < report.cores.size(); ++i) {
    const sim::SmpCoreReport& core = report.cores[i];
    std::printf("  %s: %8.3f ms, %llu L3 misses\n", kCoreLabels[i],
                1e3 * util::to_seconds(core.elapsed),
                static_cast<unsigned long long>(
                    core.counter(pmu::Event::kL3Tcm)));
  }
}

}  // namespace

int main() {
  using namespace pcap;

  // 1. A two-core node (private L1/L2/TLBs per core, shared L3 + DRAM).
  sim::SmpConfig config;
  config.cores = 2;
  sim::SmpNode node(config, /*seed=*/1);

  // 2. The co-runners: the scheduler's SIRE-like (24 MiB streaming) and
  //    stereo-like (2 MiB cache-resident) chunk classes.
  const auto sire = sched::make_chunk_workload(sched::JobClass::kSireLike,
                                               /*seed=*/1, /*chunk=*/0);
  const auto stereo = sched::make_chunk_workload(sched::JobClass::kStereoLike,
                                                 /*seed=*/2, /*chunk=*/0);
  const std::array<sim::Workload*, 2> cell = {sire.get(), stereo.get()};

  // 3. Per-core telemetry: one probe per core, sampling every 50 us of
  //    simulated time. Probes only read — reports stay bit-identical.
  telemetry::TelemetryConfig tconfig;
  tconfig.enabled = true;
  tconfig.sample_period = util::microseconds(50);
  telemetry::NodeProbe probe0(tconfig, nullptr, "core0");
  telemetry::NodeProbe probe1(tconfig, nullptr, "core1");
  const std::array<telemetry::NodeProbe*, 2> probes = {&probe0, &probe1};
  node.set_core_telemetry(probes);

  // 4. The unmodified single-core BMC firmware caps the package.
  core::Bmc bmc(node);
  node.set_control_hook([&bmc](sim::PlatformControl&) {
    bmc.on_control_tick();
  });

  const sim::SmpRunReport base = node.run(cell);
  print_report("co-run (no cap)", base);

  node.flush_all_caches();
  probe0.reset();
  probe1.reset();
  bmc.set_cap(130.0);
  const sim::SmpRunReport capped = node.run(cell);
  std::printf("\n");
  print_report("co-run capped at 130 W", capped);
  std::printf("  slowdown           : %.2fx baseline makespan\n",
              util::to_seconds(capped.elapsed) /
                  util::to_seconds(base.elapsed));

  // 5. What the per-core instruments saw under the cap: both cores run at
  //    the same package frequency (capping is package-level), and the
  //    contention is visible — solo, the stereo-like core's 2 MiB working
  //    set would sit in the 20 MiB L3, but the streaming co-runner keeps
  //    evicting it, so even the cache-resident core misses L3.
  const auto ipc = [](const telemetry::NodeSample& s) { return s.ipc; };
  const auto l3 = [](const telemetry::NodeSample& s) {
    return s.l3_miss_rate;
  };
  const auto mhz = [](const telemetry::NodeSample& s) {
    return s.frequency_mhz;
  };
  std::printf("\nper-core telemetry under the cap (%zu + %zu samples)\n",
              probe0.sampler().taken(), probe1.sampler().taken());
  const std::array<const telemetry::NodeProbe*, 2> ps = {&probe0, &probe1};
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::printf("  %s: IPC %.3f, L3 miss rate %.3f, %.0f MHz\n",
                kCoreLabels[i], ps[i]->sampler().aggregate(ipc).mean,
                ps[i]->sampler().aggregate(l3).mean,
                ps[i]->sampler().aggregate(mhz).mean);
  }
  return 0;
}
