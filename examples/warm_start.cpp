// Warm-start study (DESIGN.md §17): run the same small scheduler study
// twice through a persistent chunk-memo store and verify the warm run is
// a pure replay — zero chunk misses, bit-identical schedule digest.
//
//   ./warm_start [--memo-store=PATH] [--arrivals=N] [--budget=W] [--jobs=N]
//                [--lanes=N]
//
// With --lanes > 1 jobs co-run on a node, so the store also carries co-run
// cells; the cold run must then simulate at least one. Exit code is
// non-zero when a warm-start guarantee is violated, so CI can gate on it
// directly.
#include <cstdio>
#include <string>

#include "harness/cli.hpp"
#include "sched/arrivals.hpp"
#include "sched/scheduler.hpp"

using namespace pcap;

namespace {

sched::ScheduleResult run_once(const harness::CliOptions& cli,
                               const std::string& store_path) {
  sched::SchedulerConfig config;
  config.node_count = 4;
  config.budget_w = cli.budget_w > 0.0 ? cli.budget_w : 560.0;
  config.policy_name = "uniform";
  config.seed = cli.seed;
  config.jobs = cli.jobs;
  config.lanes_per_node = cli.lanes > 0 ? cli.lanes : 1;
  config.memo_store = store_path;
  config.memo_capacity = cli.memo_capacity;

  sched::ArrivalConfig arrivals;
  arrivals.job_count = cli.arrivals > 0 ? cli.arrivals : 8;
  arrivals.seed = cli.seed;
  const std::vector<sched::JobSpec> stream = sched::generate_stream(arrivals);

  sched::ClusterScheduler scheduler(config);
  return scheduler.run(stream);
}

}  // namespace

int main(int argc, char** argv) {
  const harness::CliOptions cli = harness::parse_cli(argc, argv);
  const std::string store_path =
      cli.memo_store.empty() ? std::string("warm_start.pcms")
                             : cli.memo_store;
  // Start cold even when a stale store file is lying around.
  std::remove(store_path.c_str());

  std::printf("cold run (store: %s)...\n", store_path.c_str());
  const sched::ScheduleResult cold = run_once(cli, store_path);
  std::printf(
      "  misses %llu, hits %llu, co-run cells %llu, saved %llu entries, "
      "digest %016llx\n",
      static_cast<unsigned long long>(cold.memo_misses),
      static_cast<unsigned long long>(cold.memo_hits),
      static_cast<unsigned long long>(cold.corun_cells),
      static_cast<unsigned long long>(cold.store_entries_saved),
      static_cast<unsigned long long>(cold.schedule_digest()));

  std::printf("warm run (same study, loaded store)...\n");
  const sched::ScheduleResult warm = run_once(cli, store_path);
  std::printf(
      "  misses %llu, hits %llu, loaded %llu entries, digest %016llx\n",
      static_cast<unsigned long long>(warm.memo_misses),
      static_cast<unsigned long long>(warm.memo_hits),
      static_cast<unsigned long long>(warm.store_entries_loaded),
      static_cast<unsigned long long>(warm.schedule_digest()));

  bool ok = true;
  if (cli.lanes > 1 && cold.corun_cells == 0) {
    std::printf("FAIL: --lanes=%zu but the cold run simulated no co-run "
                "cell\n",
                cli.lanes);
    ok = false;
  }
  if (warm.store_load_rejected != 0) {
    std::printf("FAIL: store rejected on reload\n");
    ok = false;
  }
  if (warm.memo_misses != 0) {
    std::printf("FAIL: warm run re-simulated %llu chunks (expected 0)\n",
                static_cast<unsigned long long>(warm.memo_misses));
    ok = false;
  }
  if (warm.schedule_digest() != cold.schedule_digest()) {
    std::printf("FAIL: warm schedule digest differs from cold\n");
    ok = false;
  }
  if (ok) {
    std::printf("warm start OK: zero misses, bit-identical schedule\n");
  }
  return ok ? 0 : 1;
}
