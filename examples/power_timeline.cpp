// Telemetry showcase: two capped nodes under a DCM, walked down a
// 160 -> 120 W cap staircase over a lossy management network, with the full
// observability stack attached — per-node probes sampling power/frequency,
// BMC and governor trace events, IPMI exchange spans with retries and
// backoff, DCM health transitions, and a hierarchical group reduction.
//
// The rendered timeline shows the two behaviours the paper measured:
//   * the cap-settling transient — after each set-cap the BMC walks its
//     throttle ladder over several control periods before power converges;
//   * the 1200 MHz floor — at 120 W the cap is below the platform's
//     throttling floor, so frequency pins at the slowest P-state and the
//     cap is missed (the DCM raises a "cap missed" alert).
//
// Outputs (under --csv-dir, default "results"):
//   power_timeline_<node>.csv   per-node sample series
//   power_timeline_group.csv    reduced group series (min/mean/max/sum)
//   power_timeline_trace.json   Chrome trace; open in ui.perfetto.dev
//     (override with --trace-out=PATH)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/dcm.hpp"
#include "harness/cli.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "telemetry/telemetry.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace pcap;
  const harness::CliOptions cli = harness::parse_cli(argc, argv);
  constexpr int kNodes = 2;
  const std::vector<double> kStaircase = {160.0, 150.0, 140.0, 130.0, 120.0};

  // Sampling defaults to 5 us simulated (25 ms real) — fine enough to
  // resolve the BMC's 20 us control period during cap settling.
  telemetry::TelemetryConfig probe_config = cli.telemetry_config(5.0);
  probe_config.enabled = true;  // the example IS the telemetry showcase
  probe_config.ring_capacity = 1 << 16;
  telemetry::TraceWriter trace;

  struct Slot {
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<core::Bmc> bmc;
    std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
    std::unique_ptr<ipmi::FaultyTransport> faulty;
    std::unique_ptr<telemetry::NodeProbe> probe;
  };
  ipmi::FaultSpec spec;
  spec.drop_rate = 0.10;
  spec.base_latency_ms = 2.0;
  spec.latency_jitter_ms = 3.0;
  std::vector<Slot> rack(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    Slot& s = rack[static_cast<std::size_t>(i)];
    const std::string name = "node-" + std::to_string(i);
    s.node = std::make_unique<sim::Node>(sim::MachineConfig::romley(),
                                         cli.seed + static_cast<std::uint64_t>(i));
    s.bmc = std::make_unique<core::Bmc>(*s.node);
    s.server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*s.bmc);
    s.node->set_control_hook(
        [bmc = s.bmc.get()](sim::PlatformControl&) { bmc->on_control_tick(); });
    s.faulty = std::make_unique<ipmi::FaultyTransport>(
        *s.server, spec, static_cast<std::uint64_t>(i) * 31 + 5);
    s.probe =
        std::make_unique<telemetry::NodeProbe>(probe_config, &trace, name);
    s.node->set_telemetry(s.probe.get());
    s.bmc->set_telemetry(&trace, s.probe.get(), "bmc:" + name);
  }

  // Wire the DCM into the same trace before discovery so even the first
  // exchanges (device-id/capabilities probes over the lossy link) show up.
  core::DataCenterManager dcm;
  dcm.set_telemetry(&trace);
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = "node-" + std::to_string(i);
    bool added = false;
    for (int tries = 0; tries < 10 && !added; ++tries) {
      added = dcm.add_node(name, *rack[static_cast<std::size_t>(i)].faulty);
    }
    if (!added) {
      std::printf("failed to discover %s\n", name.c_str());
      return 1;
    }
    dcm.attach_probe(name, rack[static_cast<std::size_t>(i)].probe.get());
  }

  // The staircase: cap both nodes, run a work segment, poll telemetry.
  // During the 130 W step node-1's management link partitions long enough
  // for the health FSM to walk degraded -> lost, then heals (recovered).
  auto drive_all = [&](std::uint64_t uops) {
    for (auto& s : rack) {
      apps::ComputeBoundWorkload work(uops);
      s.node->run(work);
    }
  };
  drive_all(400000);  // uncapped warm-up segment
  dcm.poll();
  for (double cap : kStaircase) {
    for (int i = 0; i < kNodes; ++i) {
      const std::string name = "node-" + std::to_string(i);
      bool ok = false;
      for (int tries = 0; tries < 10 && !ok; ++tries) {
        ok = dcm.apply_node_cap(name, cap);
      }
      if (!ok) std::printf("warning: failed to cap %s\n", name.c_str());
    }
    if (cap == 130.0) rack[1].faulty->partition_for(60);
    for (int seg = 0; seg < 4; ++seg) {
      drive_all(200000);
      dcm.poll();
    }
    rack[1].faulty->heal();
  }
  drive_all(200000);  // tail segment so recovery lands in the trace
  dcm.poll();

  // --- ascii timeline: node-0 power + cap, then frequency ---
  util::TimeSeries power{"node-0 W", {}, {}};
  util::TimeSeries cap_series{"cap W", {}, {}};
  util::TimeSeries freq{"node-0 MHz", {}, {}};
  const telemetry::Sampler& sampler = rack[0].probe->sampler();
  for (std::size_t i = 0; i < sampler.size(); ++i) {
    const telemetry::NodeSample& s = sampler.series().at(i);
    const double t = util::to_seconds(s.time);
    power.times_s.push_back(t);
    power.values.push_back(s.watts);
    if (s.cap_w > 0.0) {
      cap_series.times_s.push_back(t);
      cap_series.values.push_back(s.cap_w);
    }
    freq.times_s.push_back(t);
    freq.values.push_back(s.frequency_mhz);
  }
  util::TimeSeriesChart power_chart(100, 22);
  power_chart.set_title(
      "node-0 wall power vs cap staircase (settling transient after each "
      "set-cap; 120 W is below the ~123 W floor and is missed)");
  power_chart.set_y_label("watts");
  power_chart.add_series(std::move(power));
  power_chart.add_series(std::move(cap_series));
  std::printf("%s\n", power_chart.render().c_str());

  util::TimeSeriesChart freq_chart(100, 14);
  freq_chart.set_title(
      "node-0 core frequency (pins at the 1200 MHz floor once DVFS is "
      "exhausted)");
  freq_chart.set_y_label("MHz");
  freq_chart.add_series(std::move(freq));
  std::printf("%s\n", freq_chart.render().c_str());

  // Windowed aggregates over the final (120 W) segment.
  const telemetry::Aggregate watts_tail = sampler.aggregate(
      [](const telemetry::NodeSample& s) { return s.watts; }, 200);
  const telemetry::Aggregate freq_tail = sampler.aggregate(
      [](const telemetry::NodeSample& s) { return s.frequency_mhz; }, 200);
  std::printf("final segment: power min/mean/max/p95 = "
              "%.1f/%.1f/%.1f/%.1f W, mean freq %.0f MHz\n",
              watts_tail.min, watts_tail.mean, watts_tail.max, watts_tail.p95,
              freq_tail.mean);

  // --- group reduction + file outputs ---
  std::vector<const telemetry::Sampler*> samplers;
  for (const auto& s : rack) samplers.push_back(&s.probe->sampler());
  telemetry::Reducer reducer(probe_config.sample_period * 4);
  const telemetry::GroupSeries group = reducer.reduce(samplers, "rack");
  if (!group.bins.empty()) {
    const telemetry::GroupSample& last = group.bins.back();
    std::printf("rack series: %zu bins; final bin %zu nodes "
                "min/mean/max/sum = %.1f/%.1f/%.1f/%.1f W\n",
                group.bins.size(), last.nodes, last.min_w, last.mean_w,
                last.max_w, last.sum_w);
  }
  for (int i = 0; i < kNodes; ++i) {
    rack[static_cast<std::size_t>(i)].probe->sampler().write_csv_file(
        cli.csv_dir + "/power_timeline_node-" + std::to_string(i) + ".csv");
  }
  telemetry::Reducer::write_csv_file(group,
                                     cli.csv_dir + "/power_timeline_group.csv");
  const std::string trace_path = cli.trace_out.empty()
                                     ? cli.csv_dir + "/power_timeline_trace.json"
                                     : cli.trace_out;
  trace.write_file(trace_path);
  std::printf("\nwrote per-node CSVs + group CSV under %s/\n",
              cli.csv_dir.c_str());
  std::printf("wrote %zu trace events on %zu tracks to %s "
              "(open in ui.perfetto.dev)\n",
              trace.event_count(), trace.track_count(), trace_path.c_str());

  // Health + alert recap so the trace's management story is visible here too.
  std::printf("\nDCM health:");
  for (const auto& name : dcm.node_names()) {
    std::printf(" %s=%s", name.c_str(),
                core::node_health_name(*dcm.node_health(name)).c_str());
  }
  std::printf("  (mgmt clock %.1f ms)\nalerts:\n", dcm.mgmt_clock_ms());
  for (const auto& alert : dcm.alerts()) {
    std::printf("  [poll %llu] %s: %s\n",
                static_cast<unsigned long long>(alert.poll_seq),
                alert.node.c_str(), alert.message.c_str());
  }
  // Per-probe sample counts, then each probe's newest sampled draw.
  std::printf("\ntelemetry registry:\n");
  for (const Slot& s : rack) {
    std::printf("%s.samples %zu\n", s.probe->name().c_str(),
                s.probe->sampler().taken());
  }
  for (const Slot& s : rack) {
    const auto& series = s.probe->sampler().series();
    std::printf("%s.watts %g\n", s.probe->name().c_str(),
                series.size() > 0 ? series.at(series.size() - 1).watts : 0.0);
  }
  return 0;
}
