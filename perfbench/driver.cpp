// End-to-end benchmark driver: runs one named workload against the public
// APIs of the simulator's layers and prints one JSON document of raw facts
// (setup and iteration wall times, per-op outcomes and digests, layer
// counts) as its last stdout line. perfbench/run.py builds this binary,
// judges the facts against the golden digests and prints the metrics.
//
//   perfbench_driver --workload node_study|rack_corun|fleet_warm
//                    --seed N --seconds S --trace 0|1 --out-dir DIR
//
// With --trace 1 the measured phase alternates untraced and traced
// iterations; spans recorded around each layer call are held in memory
// and written once, at exit, as Chrome trace JSON (DIR/trace-*.json).
// Nothing here changes what the simulator computes: spans wrap calls, and
// the control-hook wrapper calls the same Bmc::on_control_tick the
// CappedRunner installs.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/sar/workload.hpp"
#include "apps/stereo/workload.hpp"
#include "apps/stride/stride.hpp"
#include "core/capped_runner.hpp"
#include "fleet/datacenter.hpp"
#include "harness/paper_reference.hpp"
#include "sched/amenability_table.hpp"
#include "sched/arrivals.hpp"
#include "sched/chunk_cache.hpp"
#include "sched/job.hpp"
#include "sched/predictor_hook.hpp"
#include "sched/scheduler.hpp"
#include "sim/node.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace pcap;
using Clock = std::chrono::steady_clock;
using telemetry::TraceArg;
using util::JsonValue;

constexpr std::uint64_t kDefaultSeed = 1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

JsonValue num(double v) { return JsonValue(v); }
JsonValue str(std::string s) { return JsonValue(std::move(s)); }

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------------ spans

/// Span recorder over telemetry::TraceWriter, which holds the events in
/// memory until write(). Each span carries its own `id` and its `parent`
/// (the innermost span open when it began) as numeric args. Spans too
/// numerous to keep one by one (the BMC control tick runs ~10^5 times per
/// capped cell) are summed into one aggregate on their parent instead:
/// args `agg` (the name), `agg_count` and `agg_ns`.
/// Off, every call is a no-op.
class Tracer {
 public:
  struct Agg {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };

  Tracer(bool enabled, const std::string& track)
      : writer_(enabled), track_(writer_.track(track)), origin_(Clock::now()) {}

  bool enabled() const { return writer_.enabled(); }

  int begin(const std::string& name) {
    if (!enabled()) return -1;
    const int parent = open_.empty() ? -1 : open_.back().id;
    open_.push_back({name, ns_now(), next_id_, parent});
    return next_id_++;
  }

  /// Closes span `id`, the innermost open one, with `args` and, if given,
  /// the aggregate of its children.
  void end(int id, std::vector<TraceArg> args = {}, const Agg* agg = nullptr) {
    if (!enabled() || id < 0) return;
    const Open s = open_.back();
    if (s.id != id) throw std::logic_error("span " + s.name + " closed out of order");
    open_.pop_back();
    args.push_back(TraceArg::num("id", s.id));
    args.push_back(TraceArg::num("parent", s.parent));
    if (agg != nullptr) {
      args.push_back(TraceArg::str("agg", agg->name));
      args.push_back(TraceArg::num("agg_count", static_cast<double>(agg->count)));
      args.push_back(TraceArg::num("agg_ns", static_cast<double>(agg->ns)));
    }
    writer_.span(track_, "layer", s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(ns_now() - s.start_ns) / 1e3, std::move(args));
  }

  std::uint64_t ns_now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  /// Writes the Chrome trace JSON (loads in Perfetto). The writer keeps six
  /// significant digits per number, so ids stay exact below 10^6 spans.
  void write(const std::string& path) const {
    if (next_id_ >= 1000000) throw std::runtime_error("too many spans for exact ids");
    writer_.write_file(path);
  }

 private:
  struct Open {
    std::string name;
    std::uint64_t start_ns = 0;
    int id = -1;
    int parent = -1;
  };

  telemetry::TraceWriter writer_;
  std::uint32_t track_;
  Clock::time_point origin_;
  std::vector<Open> open_;
  int next_id_ = 0;
};

// ------------------------------------------------------------- run record

/// One batch of ops with a shared outcome: a node_study cell (1 op) or a
/// scheduler/fleet run (one op per job). run.py fails every op of a group
/// whose digest differs from the golden one or that broke an invariant,
/// plus each unfinished op.
struct Group {
  std::string key;
  std::uint64_t ops = 0;
  std::uint64_t unfinished = 0;
  std::string digest;
  std::vector<std::string> violations;

  JsonValue json() const {
    util::JsonArray v;
    for (const auto& s : violations) v.push_back(str(s));
    return JsonValue(util::JsonObject{
        {"key", str(key)},
        {"ops", num(static_cast<double>(ops))},
        {"unfinished", num(static_cast<double>(unfinished))},
        {"digest", str(digest)},
        {"violations", JsonValue(std::move(v))}});
  }
};

/// One timed set-up or measured iteration, in laps (see LapClock).
struct Sample {
  bool traced = false;
  std::vector<double> lap_s;
  /// Mean reference kernel time just before and just after each lap.
  std::vector<double> lap_ref_s;

  JsonValue json() const {
    util::JsonArray laps, refs;
    for (double v : lap_s) laps.push_back(num(v));
    for (double v : lap_ref_s) refs.push_back(num(v));
    return JsonValue(util::JsonObject{{"traced", num(traced ? 1.0 : 0.0)},
                                      {"lap_s", JsonValue(std::move(laps))},
                                      {"lap_ref_s", JsonValue(std::move(refs))}});
  }
};

struct Record {
  util::JsonObject params;
  std::vector<Sample> setups;
  std::vector<Sample> iterations;
  std::vector<Group> groups;
  /// Exact layer counts read from the public stats (same on every
  /// iteration of a seed) plus derived model figures.
  std::map<std::string, double> counts;
  double peak_rss_mb = 0.0;
};

/// Resident-set high-water mark of this process in MiB (Linux VmHWM).
double read_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Returns set-up's freed heap to the OS and restarts the high-water mark,
/// so a peak read later belongs to the measured phase alone.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Host seconds of a fixed reference kernel (~3-4 ms): a branchy
/// set-associative LRU lookup loop over 256 KiB of tags, core- and
/// L2-bound like much of the simulator but sharing none of its code. Timed
/// next to every measured interval so run.py can express host times at a
/// fixed reference speed: on a shared host, the simulator and this kernel
/// slow down together.
double reference_seconds() {
  constexpr std::uint32_t kSets = 4096;
  constexpr std::uint32_t kWays = 8;
  static std::vector<std::uint32_t> tags(kSets * kWays);
  static std::vector<std::uint32_t> stamps(kSets * kWays);
  std::fill(tags.begin(), tags.end(), 0u);
  std::fill(stamps.begin(), stamps.end(), 0u);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 12345;
  std::uint64_t hits = 0;
  for (std::uint32_t k = 0; k < 100000; ++k) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto line = static_cast<std::uint32_t>((x >> 33) % 60000);
    std::uint32_t* tag = &tags[(line % kSets) * kWays];
    std::uint32_t* stamp = &stamps[(line % kSets) * kWays];
    std::uint32_t way = kWays;
    std::uint32_t lru = 0;
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (tag[w] == line / kSets) way = w;
      if (stamp[w] < stamp[lru]) lru = w;
    }
    if (way < kWays) {
      ++hits;
    } else {
      way = lru;
      tag[way] = line / kSets;
    }
    stamp[way] = k;
  }
  const double s = seconds_since(t0);
  if (hits == 0) throw std::logic_error("reference kernel never hit");
  return s;
}

/// Times samples in laps. lap() records the host seconds since the
/// previous lap (or since start()) into the current sample, then runs the
/// reference kernel, untimed, so that every lap has a kernel reading on
/// each side; the lap's reference time is their mean. The workloads lap
/// every ~20 ms, so the readings follow the host's speed closely.
class LapClock {
 public:
  LapClock() : ref_(reference_seconds()) {}

  void start(Sample& sample) {
    sample_ = &sample;
    lap_start_ = Clock::now();
  }

  void lap() {
    sample_->lap_s.push_back(seconds_since(lap_start_));
    const double after = reference_seconds();
    sample_->lap_ref_s.push_back((ref_ + after) / 2.0);
    ref_ = after;
    lap_start_ = Clock::now();
  }

 private:
  double ref_;
  Sample* sample_ = nullptr;
  Clock::time_point lap_start_;
};

/// Runs the measured phase: whole iterations until the next one would end
/// past `seconds` (at least one; with tracing, at least one untraced and
/// one traced, alternating, untraced first). Before each iteration,
/// `setup` runs `setup_reps` times, each a one-lap sample in rec.setups,
/// so that set-up samples spread over the run as iteration samples do.
/// Then `body(traced, lap)` runs as the measured iteration; it calls
/// `lap()` after each of its parts, the last one included.
void measure(double seconds, Tracer& tracer, Record& rec, LapClock& clock,
             int setup_reps, const std::function<void()>& setup,
             const std::function<void(bool, const std::function<void()>&)>& body) {
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const std::function<void()> lap = [&clock] { clock.lap(); };
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point s0 = Clock::now();
    for (int r = 0; r < setup_reps; ++r) {
      Sample s;
      clock.start(s);
      setup();
      clock.lap();
      rec.setups.push_back(std::move(s));
    }
    Sample it;
    it.traced = tracer.enabled() && i % 2 == 1;
    clock.start(it);
    const int span = it.traced ? tracer.begin("bench.iteration") : -1;
    body(it.traced, lap);
    tracer.end(span);
    if (it.lap_s.empty()) throw std::logic_error("iteration recorded no lap");
    rec.iterations.push_back(std::move(it));
    // The first iteration's peak: later ones reuse its heap, so theirs
    // depend on how many ran, which depends on the host's speed.
    if (i == 0) rec.peak_rss_mb = read_peak_rss_mb();
    const bool need_traced = tracer.enabled() && i == 0;
    if (!need_traced && seconds_since(start) + seconds_since(s0) > seconds) break;
  }
}

/// An input's seed for benchmark seed `seed`: the repository's own default
/// at the default seed, so seed 1 runs the inputs every study binary runs.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seed) {
  std::uint64_t state = base ^ (seed << 20);
  return seed == kDefaultSeed ? base : util::splitmix64(state);
}

// ------------------------------------------------------------- node_study

struct FnvHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t report_digest(const sim::RunReport& r) {
  FnvHash f;
  f.add(static_cast<std::uint64_t>(r.elapsed));
  f.add(r.energy_j);
  f.add(r.avg_power_w);
  f.add(r.peak_power_w);
  f.add(static_cast<std::uint64_t>(r.avg_frequency));
  f.add(r.avg_duty);
  f.add(r.final_temperature_c);
  for (std::uint64_t c : r.counters) f.add(c);
  return f.h;
}

/// Adds a node's exact engine counts (its hierarchy's stats over the
/// node's lifetime) to `counts`.
void add_engine_counts(std::map<std::string, double>& counts,
                       const sim::MemoryHierarchy& h) {
  counts["cache.l1d.accesses"] += h.l1d().stats().accesses;
  counts["cache.l1d.misses"] += h.l1d().stats().misses;
  counts["cache.l2.accesses"] += h.l2().stats().accesses;
  counts["cache.l2.misses"] += h.l2().stats().misses;
  counts["cache.l3.accesses"] += h.l3().stats().accesses;
  counts["cache.l3.misses"] += h.l3().stats().misses;
  counts["cache.dtlb.misses"] += h.dtlb().stats().misses;
  counts["cache.itlb.misses"] += h.itlb().stats().misses;
  counts["mem.dram.accesses"] += h.dram().stats().accesses;
  counts["mem.dram.row_hits"] += h.dram().stats().row_hits;
}

struct Cell {
  std::string app;  // stereo | sire | stride
  std::optional<double> cap_w;
  std::unique_ptr<sim::Workload> workload;

  std::string label() const {
    return app + "/" + (cap_w ? std::to_string(static_cast<int>(*cap_w)) + "W"
                              : std::string("uncapped"));
  }
};

constexpr double kNodeStudyCapW = 120.0;
// Half the paper's Stereo width and height: the cost volume (2.4 MB)
// still sits between L2 and L3, as the paper's 9.4 MB one does.
constexpr int kStereoWidth = 192;
constexpr int kStereoHeight = 144;
// Half the paper's SIRE image height and one RSM iteration instead of
// three: the 3840 x 864 images (13 MB each) still stream past the 20 MB L3
// together, and image streaming is most of SIRE's cost.
constexpr int kSireCoarseHeight = 48;
constexpr int kSireRsmIterations = 1;
// Stride up to 16 MiB: the largest arrays far exceed the TLB reach and the
// L2, and at 120 W the BMC gates cache ways and DRAM. The warm-up pass of
// every (array, stride) cell dominates its cost, so cost scales with the
// largest array, not with the touches.
constexpr std::uint64_t kStrideMaxArrayBytes = 8ull << 20;
constexpr std::uint64_t kStrideTouchesPerCell = 8000;

std::vector<Cell> build_node_study(std::uint64_t seed) {
  apps::stereo::StereoParams stereo = apps::stereo::StereoParams::paper();
  stereo.scene.width = kStereoWidth;
  stereo.scene.height = kStereoHeight;
  stereo.scene.seed = mix_seed(stereo.scene.seed, seed);
  stereo.anneal.seed = mix_seed(stereo.anneal.seed, seed);
  apps::sar::SireParams sire = apps::sar::SireParams::paper();
  sire.coarse_height = kSireCoarseHeight;
  sire.rsm_iterations = kSireRsmIterations;
  sire.scene.seed = mix_seed(sire.scene.seed, seed);
  sire.radar.seed = mix_seed(sire.radar.seed, seed);
  sire.seed = mix_seed(sire.seed, seed);
  apps::stride::StrideConfig stride = apps::stride::StrideConfig::paper();
  stride.max_array_bytes = kStrideMaxArrayBytes;
  stride.touches_per_cell = kStrideTouchesPerCell;

  std::vector<Cell> cells;
  for (std::optional<double> cap : {std::optional<double>(), std::optional<double>(kNodeStudyCapW)}) {
    cells.push_back(
        {"stereo", cap, std::make_unique<apps::stereo::StereoWorkload>(stereo)});
  }
  for (std::optional<double> cap : {std::optional<double>(), std::optional<double>(kNodeStudyCapW)}) {
    cells.push_back({"sire", cap, std::make_unique<apps::sar::SireWorkload>(sire)});
  }
  cells.push_back({"stride", kNodeStudyCapW,
                   std::make_unique<apps::stride::StrideWorkload>(stride)});
  return cells;
}

/// Mean |ln(sim slowdown / paper slowdown)| over both paper apps at the
/// study's cap, against the published Table II rows.
double paper_error(const std::map<std::string, double>& time_s) {
  auto paper_slowdown = [](std::span<const harness::PaperRow> rows) {
    double base = 0.0, capped = 0.0;
    for (const auto& row : rows) {
      if (!row.cap_w) base = row.time_s;
      if (row.cap_w && *row.cap_w == kNodeStudyCapW) capped = row.time_s;
    }
    return capped / base;
  };
  const std::string cap = std::to_string(static_cast<int>(kNodeStudyCapW)) + "W";
  const double stereo = time_s.at("stereo/" + cap) / time_s.at("stereo/uncapped");
  const double sire = time_s.at("sire/" + cap) / time_s.at("sire/uncapped");
  return (std::abs(std::log(stereo / paper_slowdown(harness::paper_stereo_rows()))) +
          std::abs(std::log(sire / paper_slowdown(harness::paper_sire_rows())))) /
         2.0;
}

// BMC control ticks per measured lap inside a cell (~20 ms). The host's
// speed changes faster than a cell runs: with one reference reading per
// cell, a run's iterations at the reference speed differed by ~12 %.
// Traced iterations lap per cell only, so that no kernel run falls inside
// a cell's span.
constexpr std::uint64_t kNodeLapTicks = 2000;

void run_node_study(std::uint64_t seed, double seconds, Tracer& tracer,
                    Record& rec) {
  // Scene construction takes ~15 ms, so each iteration rebuilds the cells
  // several times.
  constexpr int kSetupReps = 3;
  std::vector<Cell> cells;
  std::map<std::string, std::uint64_t> first_digest;
  std::map<std::string, sim::RunReport> reports;
  LapClock clock;
  measure(seconds, tracer, rec, clock, kSetupReps, [&] { cells = build_node_study(seed); },
          [&](bool traced, const std::function<void()>& lap) {
    for (Cell& cell : cells) {
      sim::Node node(sim::MachineConfig::romley(), seed);
      core::CappedRunner runner(node);
      Tracer::Agg bmc_ticks{"core.Bmc.on_control_tick"};
      // Same call the CappedRunner installed: timed when traced, else
      // counted, closing a lap every kNodeLapTicks ticks.
      core::Bmc& bmc = runner.bmc();
      if (traced) {
        node.set_control_hook([&tracer, &bmc, &bmc_ticks](sim::PlatformControl&) {
          const std::uint64_t t0 = tracer.ns_now();
          bmc.on_control_tick();
          ++bmc_ticks.count;
          bmc_ticks.ns += tracer.ns_now() - t0;
        });
      } else {
        node.set_control_hook(
            [&bmc, &lap, ticks = std::uint64_t{0}](sim::PlatformControl&) mutable {
              bmc.on_control_tick();
              if (++ticks % kNodeLapTicks == 0) lap();
            });
      }
      const int span = traced ? tracer.begin("core.CappedRunner.run") : -1;
      const sim::RunReport report = runner.run(*cell.workload, cell.cap_w);
      const auto& h = node.hierarchy();
      tracer.end(span,
                 {TraceArg::str("cell", cell.label()), TraceArg::str("app", cell.app),
                  TraceArg::num("l1_accesses",
                                static_cast<double>(h.l1i().stats().accesses +
                                                    h.l1d().stats().accesses))},
                 &bmc_ticks);

      Group g;
      g.key = "node_study/" + cell.label();
      g.ops = 1;
      const std::uint64_t digest = report_digest(report);
      g.digest = hex64(digest);
      const auto [it, fresh] = first_digest.emplace(cell.label(), digest);
      if (!fresh && it->second != digest) {
        g.violations.push_back("digest differs between iterations");
      }
      if (fresh) {
        reports[cell.label()] = report;
        add_engine_counts(rec.counts, h);
        rec.counts["sim.instructions"] += report.counter(pmu::Event::kTotIns);
        rec.counts["core.bmc.ticks"] += runner.bmc().control_ticks();
      }
      rec.groups.push_back(std::move(g));
      lap();
    }
  });
  const apps::sar::SireParams& sire =
      static_cast<const apps::sar::SireWorkload&>(*cells[2].workload).params();
  rec.params = {
      {"cells", num(static_cast<double>(cells.size()))},
      {"cap_w", num(kNodeStudyCapW)},
      {"stereo", str(std::to_string(kStereoWidth) + "x" +
                     std::to_string(kStereoHeight) + ", 24 disparities")},
      {"sire", str(std::to_string(sire.full_width()) + "x" +
                   std::to_string(sire.full_height()))},
      {"sire_rsm_iterations", num(kSireRsmIterations)},
      {"stride_max_array_bytes", num(static_cast<double>(kStrideMaxArrayBytes))},
      {"stride_touches_per_cell", num(static_cast<double>(kStrideTouchesPerCell))}};

  // Cross-cap invariant: one app retires the same instructions at every cap.
  std::map<std::string, std::uint64_t> ins_by_app;
  for (const Cell& cell : cells) {
    const std::uint64_t ins =
        reports.at(cell.label()).counter(pmu::Event::kTotIns);
    const auto [it, fresh] = ins_by_app.emplace(cell.app, ins);
    if (!fresh && it->second != ins) {
      for (Group& g : rec.groups) {
        if (g.key == "node_study/" + cell.label()) {
          g.violations.push_back("instruction count differs across caps");
        }
      }
    }
  }

  std::map<std::string, double> time_s;
  for (const auto& [label, r] : reports) time_s[label] = util::to_seconds(r.elapsed);
  rec.counts["paper_err"] = paper_error(time_s);
}

// ------------------------------------------------------------- rack_corun

constexpr std::size_t kRackNodes = 8;
constexpr std::size_t kRackLanes = 2;
// How much a run simulates (memo misses, co-run cells) depends on the
// seed, through the fault pattern and the phased jobs' inputs. Over five
// seeds it ranged +-9 % at 24 jobs and +-5 % at 48.
constexpr int kRackJobs = 48;
constexpr double kRackBudgetW = 1080.0;
constexpr double kRackDropRate = 0.02;
// Measured serially: two workers bought no speed here (few misses per
// tick), and each worker's core adds its own contention noise. An
// unmeasured run with kRackCheckWorkers must reproduce the schedule.
constexpr std::size_t kRackWorkers = 1;
constexpr std::size_t kRackCheckWorkers = 2;

/// A predictor attachment that predicts nothing, which the scheduler's
/// contract makes bit-identical to none (the unhooked jobs=2 run checks
/// it), and closes a measured lap at its callbacks (every chunk completion
/// and replan) once kRackLapSeconds have passed since the last lap.
class LapHook final : public sched::PredictorHook {
 public:
  explicit LapHook(const std::function<void()>& lap) : lap_(lap) {}

  void on_chunk(std::size_t, const sched::CoRunObservation&, double) override {
    lap_if_due();
  }
  void forecasts(double, std::size_t, std::vector<sched::NodeForecast>*) override {
    lap_if_due();
  }
  void adjust_plan(const sched::PlanInput&, sched::Plan*) override {}

 private:
  // ~20 ms, as the other workloads' laps: the host's speed changes faster
  // than a rack run, and with one reference reading per run a run's
  // iterations at the reference speed differed by ~13 %.
  static constexpr double kRackLapSeconds = 0.02;

  void lap_if_due() {
    if (seconds_since(last_) < kRackLapSeconds) return;
    lap_();
    last_ = Clock::now();
  }

  const std::function<void()>& lap_;
  Clock::time_point last_ = Clock::now();
};

sched::SchedulerConfig rack_config(std::uint64_t seed,
                                   const sched::AmenabilityTable& table,
                                   std::size_t jobs,
                                   sched::PredictorHook* hook = nullptr) {
  sched::SchedulerConfig cfg;
  cfg.predictor = hook;
  cfg.node_count = kRackNodes;
  cfg.lanes_per_node = kRackLanes;
  cfg.budget_w = kRackBudgetW;
  cfg.policy_name = "amenability";
  cfg.seed = seed;
  cfg.jobs = jobs;
  ipmi::FaultSpec faults;
  faults.drop_rate = kRackDropRate;
  cfg.faults = faults;
  cfg.table = &table;
  return cfg;
}

Group rack_group(const std::string& key, const sched::ScheduleResult& r) {
  Group g;
  g.key = key;
  g.ops = r.jobs.size();
  g.unfinished = static_cast<std::uint64_t>(
      std::count_if(r.jobs.begin(), r.jobs.end(),
                    [](const sched::JobRecord& j) { return !j.done(); }));
  g.digest = hex64(r.schedule_digest());
  if (r.budget_violations != 0) {
    g.violations.push_back("budget_violations = " +
                           std::to_string(r.budget_violations));
  }
  return g;
}

/// The solo chunk simulate_chunk runs for `cls` at `cap` (same node seed,
/// BMC, cap, workload and warm start), on a Node this function owns so
/// that its engine counts can be read. Returns the measured run's report.
sim::RunReport mirror_chunk(const sim::MachineConfig& machine,
                            const core::BmcConfig& bmc_config, sched::JobClass cls,
                            std::uint64_t job_seed, std::optional<double> cap,
                            std::uint64_t seed, Record& rec) {
  std::uint64_t sm = seed;
  sim::Node node(machine, util::splitmix64(sm));
  core::Bmc bmc(node, bmc_config);
  node.set_control_hook([&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  if (cap) bmc.set_cap(*cap);
  const auto workload = sched::make_chunk_workload(cls, job_seed, 0);
  const sim::RunReport warm = node.run(*workload);
  const sim::RunReport report = node.run(*workload);
  add_engine_counts(rec.counts, node.hierarchy());
  rec.counts["sim.instructions"] += warm.counter(pmu::Event::kTotIns) +
                                    report.counter(pmu::Event::kTotIns);
  return report;
}

/// Calls the chunk simulators directly on the run's class x cap set
/// (every class in the stream, uncapped and at the per-node budget share;
/// co-run cells for every class pair at the share), one span per call.
/// Each solo cell is also run by mirror_chunk, whose hierarchy gives the
/// workload's engine counts; a mirror that does not reproduce
/// simulate_chunk's result is a violation in `check`.
void probe_chunk_simulators(std::uint64_t seed,
                            const std::vector<sched::JobSpec>& stream,
                            Tracer& tracer, Record& rec, Group& check) {
  std::map<sched::JobClass, std::uint64_t> first_seed;
  for (const sched::JobSpec& job : stream) first_seed.emplace(job.cls, job.seed);
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const core::BmcConfig bmc;
  const std::uint64_t thermal = sched::thermal_identity_bits(machine);
  const double share_w = kRackBudgetW / static_cast<double>(kRackNodes);
  const int root = tracer.begin("bench.probe");
  for (const auto& [cls, job_seed] : first_seed) {
    for (std::optional<double> cap : {std::optional<double>(), std::optional<double>(share_w)}) {
      sched::ChunkKey key;
      key.cls = cls;
      key.identity = sched::chunk_identity(cls, job_seed, 0);
      key.cap_bits = sched::ChunkKey::encode_cap(cap);
      key.thermal_bits = thermal;
      const int span = tracer.begin("sched.simulate_chunk");
      const sched::ChunkResult result =
          sched::simulate_chunk(machine, bmc, key, job_seed, 0, seed);
      tracer.end(span, {TraceArg::str("class", sched::job_class_name(cls))});
      const sim::RunReport mirror =
          mirror_chunk(machine, bmc, cls, job_seed, cap, seed, rec);
      if (mirror.elapsed != result.elapsed || mirror.energy_j != result.energy_j) {
        check.violations.push_back(std::string("probe mirror of ") +
                                   sched::job_class_name(cls) +
                                   " differs from simulate_chunk");
      }
    }
  }
  for (auto a = first_seed.begin(); a != first_seed.end(); ++a) {
    for (auto b = a; b != first_seed.end(); ++b) {
      sched::CoRunKey key;
      key.cap_bits = sched::ChunkKey::encode_cap(share_w);
      key.thermal_bits = thermal;
      for (const auto& [cls, job_seed] : {*a, *b}) {
        sched::CoRunMember m;
        m.cls = cls;
        m.identity = sched::chunk_identity(cls, job_seed, 0);
        m.seed = job_seed;
        key.members.push_back(m);
      }
      std::sort(key.members.begin(), key.members.end(),
                [](const sched::CoRunMember& x, const sched::CoRunMember& y) {
                  return key_less(x, y);
                });
      const int span = tracer.begin("sched.simulate_corun_cell");
      sched::simulate_corun_cell(machine, bmc, key, seed,
                                 sched::SchedulerConfig{}.corun_quantum);
      tracer.end(span);
    }
  }
  tracer.end(root);
}

/// The job stream for benchmark seed `seed`: the default seeded arrival
/// stream with its class mix, chunk counts and deadlines balanced (exact
/// class counts in the default 2:2:1:1 weights, each class's chunk counts
/// spread evenly over [min, max] chunks, exactly half the jobs with
/// deadlines, all shuffled), then each job's input seed mixed with `seed`.
/// The arrival pattern is the same at every seed, so every seed simulates
/// the same amount of work: with seeded arrivals, which cells co-ran and
/// missed the memo changed with the seed, and an iteration's cost by up to
/// 1.6x. The seed changes the phased jobs' chunk inputs (the other classes'
/// chunks do not depend on the job seed) and so every downstream result.
std::vector<sched::JobSpec> rack_stream(const sched::ArrivalConfig& arrivals,
                                        std::uint64_t seed) {
  std::vector<sched::JobSpec> stream = sched::generate_stream(arrivals);
  util::Rng rng(arrivals.seed ^ 0xB4A1A9CEull);
  const int n = static_cast<int>(stream.size());
  double weight_total = 0.0;
  for (double w : arrivals.class_weights) weight_total += w;
  std::vector<std::pair<sched::JobClass, int>> slots;  // (class, chunks)
  for (int c = 0; c < sched::kJobClassCount; ++c) {
    const int count = c + 1 == sched::kJobClassCount
                          ? n - static_cast<int>(slots.size())
                          : static_cast<int>(std::lround(
                                n * arrivals.class_weights[static_cast<std::size_t>(c)] /
                                weight_total));
    const int span = arrivals.max_chunks - arrivals.min_chunks + 1;
    for (int k = 0; k < count; ++k) {
      slots.emplace_back(static_cast<sched::JobClass>(c),
                         arrivals.min_chunks + k * span / count);
    }
  }
  std::shuffle(slots.begin(), slots.end(), rng);
  std::vector<bool> deadline(stream.size(), false);
  std::fill(deadline.begin(), deadline.begin() + n / 2, true);
  std::shuffle(deadline.begin(), deadline.end(), rng);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    sched::JobSpec& job = stream[i];
    job.cls = slots[i].first;
    job.chunks = slots[i].second;
    job.seed = mix_seed(job.seed, seed);
    job.deadline_s.reset();
    if (deadline[i]) {
      job.deadline_s = job.arrival_s + arrivals.deadline_factor *
                                           static_cast<double>(job.chunks) *
                                           arrivals.chunk_time_hint_s;
    }
  }
  return stream;
}

void run_rack_corun(std::uint64_t seed, double seconds, Tracer& tracer,
                    Record& rec) {
  // Set-up (characterisation, ~0.2 s) runs twice before every iteration.
  constexpr int kSetupReps = 2;
  sched::AmenabilityTable table;
  std::vector<sched::JobSpec> stream;
  sched::ArrivalConfig arrivals;
  arrivals.job_count = kRackJobs;
  rec.params = {{"nodes", num(kRackNodes)},
                {"lanes_per_node", num(kRackLanes)},
                {"jobs", num(kRackJobs)},
                {"deadline_fraction", num(0.5)},
                {"policy", str("amenability")},
                {"budget_w", num(kRackBudgetW)},
                {"drop_rate", num(kRackDropRate)},
                {"workers", num(kRackWorkers)},
                {"check_workers", num(kRackCheckWorkers)}};

  std::optional<std::uint64_t> first_digest;
  sched::ScheduleResult last;
  std::vector<double> characterize_s;
  const auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    // The table describes the machine, not the job stream: it is built
    // with the default options at every seed, so set-up does the same
    // work at every seed (its cost varied ~2x with the seed).
    const sched::CharacterizeOptions options;
    const int span = tracer.begin("sched.characterize_job_classes");
    table = sched::characterize_job_classes(options);
    tracer.end(span);
    characterize_s.push_back(seconds_since(t0));
    stream = rack_stream(arrivals, seed);
  };
  LapClock clock;
  measure(seconds, tracer, rec, clock, kSetupReps, setup,
          [&](bool traced, const std::function<void()>& lap) {
    LapHook hook(lap);
    int span = traced ? tracer.begin("sched.ClusterScheduler.ctor") : -1;
    sched::ClusterScheduler scheduler(
        rack_config(seed, table, kRackWorkers, traced ? nullptr : &hook));
    tracer.end(span);
    span = traced ? tracer.begin("sched.ClusterScheduler.run") : -1;
    last = scheduler.run(stream);
    tracer.end(span);
    Group g = rack_group("rack_corun", last);
    if (!first_digest) first_digest = last.schedule_digest();
    if (*first_digest != last.schedule_digest()) {
      g.violations.push_back("digest differs between iterations");
    }
    rec.groups.push_back(std::move(g));
    lap();
  });

  // Unmeasured: the same run with parallel chunk simulation must produce
  // the same schedule.
  sched::ClusterScheduler parallel(rack_config(seed, table, kRackCheckWorkers));
  Group g = rack_group("rack_corun", parallel.run(stream));
  if (g.digest != hex64(*first_digest)) {
    g.violations.push_back("jobs=" + std::to_string(kRackCheckWorkers) +
                           " digest differs from jobs=" +
                           std::to_string(kRackWorkers));
  }
  if (tracer.enabled()) probe_chunk_simulators(seed, stream, tracer, rec, g);
  rec.groups.push_back(std::move(g));

  auto& c = rec.counts;
  c["sched.characterize_s"] = median(characterize_s);
  c["sched.chunks"] = static_cast<double>(last.chunks);
  c["sched.memo_hits"] = static_cast<double>(last.memo_hits);
  c["sched.memo_misses"] = static_cast<double>(last.memo_misses);
  c["sched.corun_cells"] = static_cast<double>(last.corun_cells);
  c["sched.replans"] = static_cast<double>(last.replans);
  c["core.dcm.cap_updates"] = static_cast<double>(last.cap_updates);
  c["core.dcm.cap_update_failures"] = static_cast<double>(last.cap_update_failures);
  c["ipmi.retries"] = static_cast<double>(last.mgmt_retries);
  c["ipmi.failed_exchanges"] = static_cast<double>(last.mgmt_failed_exchanges);
}

// ------------------------------------------------------------- fleet_warm

constexpr std::size_t kFleetRacks = 16;
// 256 nodes. At 64 nodes per rack (~240 MiB resident) one run's
// iterations differed by up to 40 % on a shared 4-vCPU host; at 16
// (~80 MiB) they differ by ~10 %.
constexpr std::size_t kFleetRackNodes = 16;
constexpr int kFleetTenants = 4;
constexpr int kFleetJobsPerTenant = 2500;
// Serial, as rack_corun. With two workers, every tick that starts two or
// more chunks built and joined a two-thread pool, even when every chunk
// was a memo hit: thousands of thread start-ups per iteration, whose cost
// follows the host's scheduler more than the fleet's code.
constexpr std::size_t kFleetWorkers = 1;

fleet::FleetConfig fleet_config(std::uint64_t seed, const std::string& store) {
  fleet::FleetConfig config;
  config.rack_nodes.assign(kFleetRacks, kFleetRackNodes);
  config.seed = seed;
  config.jobs = kFleetWorkers;
  config.memo_store = store;
  // Time-of-day budget repeating every 120 ms: generous, then shrunk to
  // the amenability knee, with a demand-response dip below it.
  const double n = static_cast<double>(kFleetRacks * kFleetRackNodes);
  config.schedule = fleet::BudgetSchedule(n * 160.0);
  config.schedule.add_phase(0.0, n * 160.0);
  config.schedule.add_phase(60e-3, n * 124.0);
  config.schedule.set_period(120e-3);
  config.schedule.add_event(80e-3, 100e-3, n * 118.0);
  ipmi::FaultSpec faults;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.01;
  faults.corrupt_rate = 0.01;
  config.rack_faults = faults;
  config.node_faults = faults;
  for (int t = 0; t < kFleetTenants; ++t) {
    fleet::TenantSpec tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.weight = t == 0 ? 2.0 : 1.0;
    tenant.arrivals.job_count = kFleetJobsPerTenant;
    tenant.arrivals.mean_interarrival_s = 100e-6;
    tenant.arrivals.min_chunks = 3;
    tenant.arrivals.max_chunks = 6;
    tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
    tenant.arrivals.seed = seed * 100 + static_cast<std::uint64_t>(t);
    config.tenants.push_back(tenant);
  }
  return config;
}

// Ticks per measured lap (~20 ms). The host's speed changes faster than
// an iteration: with one reference reading per 1000 ticks, iterations at
// the reference speed still differed by ~11 % within a run; with one per
// 100 ticks, by ~5 %.
constexpr std::size_t kFleetLapTicks = 100;

/// One whole fleet run through the public step interface, with spans
/// around construction, every tick and the final accounting. When `lap` is
/// given, it is called every kFleetLapTicks ticks and at the end.
fleet::FleetResult run_fleet(const fleet::FleetConfig& config, Tracer& tracer,
                             bool traced, const std::function<void()>* lap) {
  int span = traced ? tracer.begin("fleet.DatacenterManager.ctor") : -1;
  fleet::DatacenterManager dc(config);
  tracer.end(span);
  for (std::size_t ticks = 0; !dc.done() && ticks < config.max_ticks; ++ticks) {
    span = traced ? tracer.begin("fleet.DatacenterManager.step") : -1;
    dc.step();
    tracer.end(span);
    if (lap && (ticks + 1) % kFleetLapTicks == 0) (*lap)();
  }
  span = traced ? tracer.begin("fleet.DatacenterManager.finish") : -1;
  fleet::FleetResult result = dc.finish();
  tracer.end(span);
  if (lap) (*lap)();
  return result;
}

Group fleet_group(const fleet::FleetResult& r) {
  Group g;
  g.key = "fleet_warm";
  g.ops = r.jobs.size();
  g.unfinished = static_cast<std::uint64_t>(
      std::count_if(r.jobs.begin(), r.jobs.end(),
                    [](const sched::JobRecord& j) { return !j.done(); }));
  g.digest = hex64(r.schedule_digest());
  const std::pair<const char*, std::uint64_t> conservation[] = {
      {"dc_over_enforced_ticks", r.dc_over_enforced_ticks},
      {"rack_over_enforced_ticks", r.rack_over_enforced_ticks},
      {"actual_over_enforced_ticks", r.actual_over_enforced_ticks},
      {"store_load_rejected", r.store_load_rejected}};
  for (const auto& [name, value] : conservation) {
    if (value != 0) g.violations.push_back(std::string(name) + " = " + std::to_string(value));
  }
  return g;
}

void run_fleet_warm(std::uint64_t seed, double seconds,
                    const std::string& out_dir, Tracer& tracer, Record& rec) {
  // Five cold runs (~1.5 s each) up front, inside the run's `seconds`.
  constexpr int kSetupReps = 5;
  const Clock::time_point start = Clock::now();
  // Never shared across seeds, workloads or processes: store keys omit the
  // scheduler seed, so a stale store would replay another run's answer.
  const std::string store = out_dir + "/fleet_warm-seed" + std::to_string(seed) +
                            "-pid" + std::to_string(::getpid()) + ".pcms";
  const fleet::FleetConfig config = fleet_config(seed, store);
  fleet::FleetResult cold;
  LapClock clock;
  const std::function<void()> lap = [&clock] { clock.lap(); };
  for (int r = 0; r < kSetupReps; ++r) {
    std::remove(store.c_str());
    Sample s;
    clock.start(s);
    cold = run_fleet(config, tracer, false, &lap);
    rec.setups.push_back(std::move(s));
  }
  Group cold_group = fleet_group(cold);
  cold_group.key = "fleet_warm/cold";
  rec.groups.push_back(cold_group);
  rec.params = {{"racks", num(kFleetRacks)},
                {"rack_nodes", num(kFleetRackNodes)},
                {"tenants", num(kFleetTenants)},
                {"jobs_per_tenant", num(kFleetJobsPerTenant)},
                {"workers", num(kFleetWorkers)}};

  fleet::FleetResult last;
  measure(seconds - seconds_since(start), tracer, rec, clock, 0, {},
          [&](bool traced, const std::function<void()>& lap) {
    last = run_fleet(config, tracer, traced, &lap);
    Group g = fleet_group(last);
    if (last.memo_misses != 0) {
      g.violations.push_back("warm run simulated " +
                             std::to_string(last.memo_misses) + " chunks");
    }
    if (g.digest != cold_group.digest) {
      g.violations.push_back("warm digest differs from cold digest");
    }
    rec.groups.push_back(std::move(g));
  });
  std::remove(store.c_str());

  auto& c = rec.counts;
  c["fleet.ticks"] = static_cast<double>(last.ticks);
  c["fleet.nodes"] = static_cast<double>(kFleetRacks * kFleetRackNodes);
  c["fleet.cap_pushes"] = static_cast<double>(last.cap_pushes);
  c["fleet.withheld_rounds"] = static_cast<double>(last.withheld_rounds);
  c["fleet.admission_deferrals"] = static_cast<double>(last.admission_deferrals);
  c["sched.store_entries_loaded"] = static_cast<double>(last.store_entries_loaded);
  c["sched.chunks"] = static_cast<double>(last.chunks);
  c["sched.memo_hits"] = static_cast<double>(last.memo_hits);
  c["sched.memo_misses"] = static_cast<double>(last.memo_misses);
  c["sched.corun_cells"] = static_cast<double>(last.corun_cells);
  c["ipmi.retries"] = static_cast<double>(last.mgmt_retries);
  c["ipmi.failed_exchanges"] = static_cast<double>(last.mgmt_failed_exchanges);
}

// ------------------------------------------------------------------- main

JsonValue build_json() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(undefined_behavior_sanitizer)
  sanitizers += "undefined ";
#endif
#endif
  return JsonValue(util::JsonObject{{"type", str(PERFBENCH_BUILD_TYPE)},
                                    {"compiler", str(PERFBENCH_CXX_ID)},
                                    {"optimized", num(optimized ? 1.0 : 0.0)},
                                    {"ndebug", num(ndebug ? 1.0 : 0.0)},
                                    {"sanitizers", str(sanitizers)}});
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Tracer tracer(args.trace, "perfbench " + args.workload + " seed " +
                                  std::to_string(args.seed));
    Record rec;
    if (args.workload == "node_study") {
      run_node_study(args.seed, args.seconds, tracer, rec);
    } else if (args.workload == "rack_corun") {
      run_rack_corun(args.seed, args.seconds, tracer, rec);
    } else if (args.workload == "fleet_warm") {
      run_fleet_warm(args.seed, args.seconds, args.out_dir, tracer, rec);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }

    util::JsonObject counts;
    for (const auto& [k, v] : rec.counts) counts[k] = num(v);
    util::JsonArray setups, iterations, groups;
    for (const Sample& s : rec.setups) setups.push_back(s.json());
    for (const Sample& it : rec.iterations) iterations.push_back(it.json());
    for (const Group& g : rec.groups) groups.push_back(g.json());

    std::string trace_file;
    if (tracer.enabled()) {
      trace_file = args.out_dir + "/trace-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".json";
      tracer.write(trace_file);
    }
    const JsonValue doc(util::JsonObject{
        {"workload", str(args.workload)},
        {"seed", num(static_cast<double>(args.seed))},
        {"build", build_json()},
        {"params", JsonValue(rec.params)},
        {"setups", JsonValue(std::move(setups))},
        {"iterations", JsonValue(std::move(iterations))},
        {"groups", JsonValue(std::move(groups))},
        {"counts", JsonValue(std::move(counts))},
        {"peak_rss_mb", num(rec.peak_rss_mb)},
        {"trace_file", str(trace_file)}});
    std::printf("%s\n", util::json_to_string(doc).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
