#include "fleet/datacenter.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/units.hpp"

namespace pcap::fleet {

namespace {
constexpr double kTimeEps = 1e-12;
constexpr double kTolW = 1e-3;
// A rack's forecast replaces its polled demand only at or above this
// confidence (stricter than the phase detector's own floor, which only
// decides whether a series counts as periodic at all).
constexpr double kForecastMinConfidence = 0.5;
}  // namespace

std::uint64_t FleetResult::schedule_digest() const {
  using util::fnv_mix;
  std::uint64_t h = util::kFnvOffset;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sched::JobRecord& r = jobs[i];
    h = fnv_mix(h, static_cast<std::uint64_t>(r.node));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.lane));
    h = fnv_mix(h, static_cast<std::uint64_t>(job_rack[i]));
    h = fnv_mix(h, r.start_s);
    h = fnv_mix(h, r.finish_s);
    h = fnv_mix(h, r.energy_j);
    h = fnv_mix(h, static_cast<std::uint64_t>(r.chunks_done));
  }
  for (const LevelTick& tick : dc_ticks) {
    h = fnv_mix(h, tick.committed_w);
    h = fnv_mix(h, tick.enforced_w);
  }
  for (const std::vector<LevelTick>& ticks : rack_ticks) {
    for (const LevelTick& tick : ticks) {
      h = fnv_mix(h, tick.committed_w);
      h = fnv_mix(h, tick.actual_w);
    }
  }
  return h;
}

DatacenterManager::DatacenterManager(const FleetConfig& config)
    : config_(config),
      batch_(sched::ChunkBatch::Config::from(config)) {
  for (std::size_t i = 0; i < config_.rack_nodes.size(); ++i) {
    auto slot = std::make_unique<RackSlot>();
    RackConfig rack;
    rack.name = std::string("r").append(std::to_string(i));
    rack.node_count = config_.rack_nodes[i];
    rack.lanes_per_node = config_.lanes_per_node;
    rack.bmc = config_.bmc;
    rack.idle_node_w = config_.idle_node_w;
    rack.cap_grid_w = config_.cap_grid_w;
    rack.node_faults = config_.node_faults;
    rack.comms = config_.comms;
    rack.sampler = config_.sampler;
    rack.seed = config_.seed * 65599 + static_cast<std::uint64_t>(i) * 43 + 3;
    slot->manager = std::make_unique<RackManager>(rack);
    slot->server = std::make_unique<BudgetEndpointServer>(*slot->manager);
    if (config_.rack_faults) {
      slot->faulty = std::make_unique<ipmi::FaultyTransport>(
          *slot->server, *config_.rack_faults,
          config_.seed * 197 + static_cast<std::uint64_t>(i) * 29 + 11);
    }
    ipmi::Transport& link =
        slot->faulty ? static_cast<ipmi::Transport&>(*slot->faulty)
                     : static_cast<ipmi::Transport&>(*slot->server);
    slot->client = std::make_unique<BudgetClient>(link, config_.comms.backoff);
    // Discovery: keep probing until the (possibly lossy) link answers.
    bool attached = false;
    for (int attempt = 0; attempt < 50 && !attached; ++attempt) {
      attached = slot->client->attach();
    }
    if (!attached) {
      throw std::runtime_error("fleet: rack " + rack.name +
                               " never answered discovery");
    }
    coupler_.add_child(slot->client.get(), slot->client->floor_w());
    racks_.push_back(std::move(slot));
  }

  if (config_.predictor) {
    rack_phase_.reserve(racks_.size());
    for (std::size_t i = 0; i < racks_.size(); ++i) {
      rack_phase_.emplace_back();
    }
  }

  stream_ = generate_tenant_streams(config_.tenants);
  tenant_queues_.resize(config_.tenants.size());
  tenant_deficit_.assign(config_.tenants.size(), 0.0);
  result_.jobs.resize(stream_.size());
  result_.job_tenant.resize(stream_.size());
  result_.job_rack.assign(stream_.size(), -1);
  job_admit_s_.assign(stream_.size(), -1.0);
  for (std::size_t i = 0; i < stream_.size(); ++i) {
    result_.jobs[i].spec = stream_[i].spec;
    result_.job_tenant[i] = stream_[i].tenant;
  }
  result_.rack_ticks.resize(racks_.size());
  // Keep scripted partitions in start order so step() applies them with
  // one cursor.
  std::stable_sort(config_.partitions.begin(), config_.partitions.end(),
                   [](const FleetConfig::PartitionEpisode& a,
                      const FleetConfig::PartitionEpisode& b) {
                     return a.start_s < b.start_s;
                   });
}

DatacenterManager::~DatacenterManager() = default;

std::size_t DatacenterManager::node_count() const {
  std::size_t n = 0;
  for (const auto& slot : racks_) n += slot->manager->node_count();
  return n;
}

bool DatacenterManager::done() const {
  if (completed_jobs_ >= stream_.size()) return true;
  return stalled_ticks_ > 16;  // stranded: nothing can make progress
}

void DatacenterManager::control_round(double t) {
  const double target = config_.schedule.at(t);
  // Forecast-informed division: racks with confident periodic demand are
  // weighted by next tick's forecast, the rest by their last polled
  // demand (per-rack reactive fallback). With no confident rack the
  // weights override is skipped entirely — that *is* the reactive path.
  const std::vector<double>* weights = nullptr;
  std::vector<double> forecast_w;
  if (!rack_phase_.empty()) {
    forecast_w.resize(racks_.size(), 0.0);
    bool any_forecast = false;
    for (std::size_t i = 0; i < racks_.size(); ++i) {
      const predict::PhaseForecast& f = rack_phase_[i].forecast();
      if (f.periodic && f.confidence >= kForecastMinConfidence) {
        forecast_w[i] = std::max(f.next_value, 0.0);
        any_forecast = true;
      } else {
        forecast_w[i] = coupler_.demand_w(i);
      }
    }
    if (any_forecast) {
      weights = &forecast_w;
      ++result_.proactive_rounds;
    } else {
      ++result_.reactive_rounds;
    }
  }
  const CouplerRound round = coupler_.run_round(target, weights);
  for (std::size_t i = 0; i < rack_phase_.size(); ++i) {
    rack_phase_[i].observe(coupler_.demand_w(i));  // freshly polled
  }
  for (auto& slot : racks_) slot->manager->rebalance();
  record_tick(t, round);
}

void DatacenterManager::admit(double t) {
  std::size_t queued = 0;
  for (const auto& queue : tenant_queues_) queued += queue.size();
  if (queued > 0) {
    // Power headroom: admit only while every busy node can still be granted
    // at least kAdmissionMinNodeW (idle nodes park at the floor, so the
    // busy-node surplus is what admission spends).
    const CouplerRound& round = coupler_.last_round();
    const double avail = std::max(0.0, round.enforced_w - round.reserved_w);
    const double idle_floor_w = config_.bmc.min_cap_w;
    std::size_t busy = 0;
    std::size_t total_nodes = 0;
    std::vector<std::size_t> free_lanes(racks_.size(), 0);
    for (std::size_t i = 0; i < racks_.size(); ++i) {
      // Management view: the cached status from the last successful poll.
      const ipmi::RackStatus& status = racks_[i]->client->last_status();
      busy += status.busy_nodes;
      total_nodes += status.nodes;
      if (coupler_.health(i) != core::NodeHealth::kLost) {
        free_lanes[i] = status.free_lanes;
      }
    }
    // Nodes the budget can hold at/above the knee once idle floors are
    // paid for: busy_max * knee + (total - busy_max) * floor <= avail.
    const double spread = kAdmissionMinNodeW - idle_floor_w;
    std::size_t busy_max = total_nodes;
    if (spread > 0.0) {
      const double surplus =
          avail - static_cast<double>(total_nodes) * idle_floor_w;
      busy_max = surplus <= 0.0
                     ? 0
                     : static_cast<std::size_t>(surplus / spread);
    }
    std::size_t budget_slots = busy_max > busy ? busy_max - busy : 0;

    // Weighted deficit round-robin over the backlogged tenants.
    for (std::size_t ten = 0; ten < tenant_queues_.size(); ++ten) {
      if (tenant_queues_[ten].empty()) {
        tenant_deficit_[ten] = 0.0;  // no banking while idle
      } else {
        tenant_deficit_[ten] += config_.tenants[ten].weight;
      }
    }
    while (budget_slots > 0) {
      std::size_t best = tenant_queues_.size();
      for (std::size_t ten = 0; ten < tenant_queues_.size(); ++ten) {
        if (tenant_queues_[ten].empty() || tenant_deficit_[ten] < 1.0) {
          continue;
        }
        if (best == tenant_queues_.size() ||
            tenant_deficit_[ten] > tenant_deficit_[best]) {
          best = ten;
        }
      }
      if (best == tenant_queues_.size()) break;
      // Least-loaded reachable rack (most free lanes, ties to the lowest
      // index).
      std::size_t rack = racks_.size();
      for (std::size_t i = 0; i < racks_.size(); ++i) {
        if (free_lanes[i] == 0) continue;
        if (rack == racks_.size() || free_lanes[i] > free_lanes[rack]) {
          rack = i;
        }
      }
      if (rack == racks_.size()) break;  // no lane capacity anywhere
      tenant_deficit_[best] -= 1.0;
      admit_head(best, rack, t);
      --free_lanes[rack];
      --budget_slots;
    }
    std::size_t still_queued = 0;
    for (const auto& queue : tenant_queues_) still_queued += queue.size();
    result_.admission_deferrals += still_queued;
  }
}

void DatacenterManager::admit_head(std::size_t tenant, std::size_t rack,
                                   double t) {
  const int job_id = tenant_queues_[tenant].front();
  tenant_queues_[tenant].pop_front();
  const FleetJob& job = stream_[static_cast<std::size_t>(job_id)];
  racks_[rack]->manager->enqueue({job.id, job.tenant, job.spec.cls,
                                  job.spec.seed, job.spec.chunks,
                                  job.spec.deadline_s});
  result_.job_rack[static_cast<std::size_t>(job_id)] = static_cast<int>(rack);
  job_admit_s_[static_cast<std::size_t>(job_id)] = t;
  ++result_.admitted;
}

void DatacenterManager::start_chunks(double t) {
  // One ChunkBatch round in (rack, node, lane) order, one cache for the
  // whole fleet.
  const auto member_of = [](const RackManager::Lane& lane) {
    return sched::CoRunMember::of(lane.job.cls, lane.job.seed,
                                  lane.chunks_done);
  };
  starts_.clear();
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    RackManager& rack = *racks_[r]->manager;
    refs_.clear();
    rack.pending_starts(refs_);
    for (const RackManager::StartRef& ref : refs_) {
      co_residents_.clear();
      for (std::size_t o = 0; o < rack.lanes_per_node(); ++o) {
        const RackManager::Lane& other = rack.lane(ref.node, o);
        if (o != ref.lane && other.busy()) {
          co_residents_.push_back(member_of(other));
        }
      }
      batch_.add_start(member_of(rack.lane(ref.node, ref.lane)),
                       co_residents_, rack.node_granted_w(ref.node));
      starts_.push_back({r, ref});
    }
  }
  const std::span<const sched::ChunkBatch::Outcome> outcomes =
      batch_.run_round();
  for (std::size_t k = 0; k < starts_.size(); ++k) {
    const auto& [r, ref] = starts_[k];
    RackManager& rack = *racks_[r]->manager;
    sched::JobRecord& record = result_.jobs[static_cast<std::size_t>(
        rack.lane(ref.node, ref.lane).job.job_id)];
    rack.begin_chunk(ref.node, ref.lane, outcomes[k].result, t);
    if (record.start_s < 0.0) {
      record.start_s = t;
      std::size_t flat = 0;
      for (std::size_t before = 0; before < r; ++before) {
        flat += racks_[before]->manager->node_count();
      }
      record.node = static_cast<int>(flat + ref.node);
      record.lane = static_cast<int>(ref.lane);
    }
    if (outcomes[k].corun) ++record.corun_chunks;
  }
  started_this_tick_ = !starts_.empty();
}

void DatacenterManager::record_tick(double t, const CouplerRound& round) {
  LevelTick tick;
  tick.t_s = t;
  tick.target_w = round.target_w;
  tick.enforced_w = round.enforced_w;
  tick.committed_w = round.committed_w;
  tick.reserved_w = round.reserved_w;
  tick.feasible = round.feasible;
  tick.converged = round.converged;
  tick.lost_children = round.lost_children;
  double actual = 0.0;
  std::size_t busy = 0;
  std::size_t queued = 0;
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    RackManager& rack = *racks_[i]->manager;
    busy += rack.busy_nodes();
    queued += rack.queue_depth();

    LevelTick rt;
    rt.t_s = t;
    rt.target_w = rack.target_w();
    rt.enforced_w = rack.enforced_w();
    rt.committed_w = rack.committed_w();
    rt.reserved_w = rack.reserved_w();
    rt.actual_w = rack.actual_cap_sum_w();
    actual += rt.actual_w;
    const CouplerRound& rack_round = rack.coupler().last_round();
    rt.feasible = rack_round.feasible;
    rt.converged = rt.committed_w <= rt.target_w + kTolW;
    rt.lost_children = rack.lost_nodes();
    rt.busy_nodes = rack.busy_nodes();
    rt.queued_jobs = rack.queue_depth();
    if (rt.committed_w > rt.enforced_w + kTolW) {
      ++result_.rack_over_enforced_ticks;
    }
    if (rt.actual_w > rt.enforced_w + kTolW) {
      ++result_.actual_over_enforced_ticks;
    }
    result_.rack_ticks[i].push_back(rt);
  }
  tick.actual_w = actual;
  tick.busy_nodes = busy;
  for (const auto& queue : tenant_queues_) queued += queue.size();
  tick.queued_jobs = queued;
  if (tick.committed_w > tick.enforced_w + kTolW) {
    ++result_.dc_over_enforced_ticks;
  }
  if (tick.committed_w > tick.target_w + kTolW) {
    ++result_.dc_over_target_ticks;
  }
  result_.dc_ticks.push_back(tick);
}

void DatacenterManager::step() {
  const double t = now_s();

  // Scripted partition episodes.
  while (next_partition_ < config_.partitions.size() &&
         config_.partitions[next_partition_].start_s <= t + kTimeEps) {
    const FleetConfig::PartitionEpisode& episode =
        config_.partitions[next_partition_];
    if (ipmi::FaultyTransport* link = rack_fault_link(episode.rack)) {
      link->partition_for(episode.transactions);
    }
    ++next_partition_;
  }

  // Arrivals into the tenant queues.
  while (next_arrival_ < stream_.size() &&
         stream_[next_arrival_].spec.arrival_s <= t + kTimeEps) {
    const FleetJob& job = stream_[next_arrival_];
    tenant_queues_[static_cast<std::size_t>(job.tenant)].push_back(job.id);
    ++next_arrival_;
  }

  // Completions.
  completions_.clear();
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    const std::size_t before = completions_.size();
    racks_[r]->manager->begin_tick(t, completions_);
    for (std::size_t k = before; k < completions_.size(); ++k) {
      const ChunkEvent& event = completions_[k];
      sched::JobRecord& record =
          result_.jobs[static_cast<std::size_t>(event.job_id)];
      record.chunks_done = event.chunks_done;
      record.energy_j += event.result.energy_j;
      ++result_.chunks;
      if (event.job_done) {
        record.finish_s = event.finish_s;
        if (record.spec.deadline_s.has_value() &&
            record.finish_s > *record.spec.deadline_s) {
          record.missed_deadline = true;
        }
        ++completed_jobs_;
      }
    }
  }

  control_round(t);
  admit(t);
  for (auto& slot : racks_) slot->manager->place(t);
  start_chunks(t);
  for (auto& slot : racks_) slot->manager->sample(t);

  // Anti-livelock: an idle fleet with a backlog (admission gated below the
  // knee, or every rack management-lost) must trickle work — mirror the
  // scheduler's forced admission.
  const bool in_flight =
      started_this_tick_ ||
      std::any_of(racks_.begin(), racks_.end(), [](const auto& slot) {
        return slot->manager->anything_in_flight();
      });
  std::size_t backlog = 0;
  for (const auto& queue : tenant_queues_) backlog += queue.size();
  for (const auto& slot : racks_) backlog += slot->manager->queue_depth();
  if (!in_flight && next_arrival_ >= stream_.size() && backlog > 0) {
    for (std::size_t ten = 0; ten < tenant_queues_.size(); ++ten) {
      if (tenant_queues_[ten].empty()) continue;
      admit_head(ten, 0, t);
      ++result_.forced_admissions;
      break;
    }
  }
  if (!in_flight && next_arrival_ >= stream_.size()) {
    ++stalled_ticks_;
  } else {
    stalled_ticks_ = 0;
  }

  ++tick_count_;
}

FleetResult DatacenterManager::run() {
  while (!done() && tick_count_ < config_.max_ticks) step();
  return finish();
}

FleetResult DatacenterManager::finish() {
  if (finished_) {
    throw std::logic_error("DatacenterManager::finish: already called");
  }
  finished_ = true;
  result_.ticks = tick_count_;

  double makespan = 0.0;
  for (const sched::JobRecord& record : result_.jobs) {
    result_.busy_energy_j += record.energy_j;
    if (record.finish_s >= 0.0) makespan = std::max(makespan, record.finish_s);
  }
  result_.makespan_s = makespan;
  for (const auto& slot : racks_) {
    RackManager& rack = *slot->manager;
    for (std::size_t n = 0; n < rack.node_count(); ++n) {
      const double idle_s = std::max(0.0, makespan - rack.node_busy_s(n));
      result_.idle_energy_j += idle_s * config_.idle_node_w;
    }
    result_.mgmt_retries += rack.mgmt_retries();
    result_.mgmt_failed_exchanges += rack.mgmt_failed_exchanges();
    result_.cap_pushes += rack.coupler().pushes();
    result_.push_failures += rack.coupler().push_failures();
    result_.withheld_rounds += rack.coupler().withheld_rounds();
    result_.infeasible_rounds += rack.coupler().infeasible_rounds();
  }
  result_.total_energy_j = result_.busy_energy_j + result_.idle_energy_j;
  result_.cap_pushes += coupler_.pushes();
  result_.push_failures += coupler_.push_failures();
  result_.withheld_rounds += coupler_.withheld_rounds();
  result_.infeasible_rounds += coupler_.infeasible_rounds();
  for (const auto& slot : racks_) {
    result_.mgmt_retries += slot->client->retries();
    result_.mgmt_failed_exchanges += slot->client->failed_exchanges();
  }

  // Per-tenant fairness accounting.
  result_.tenants.clear();
  result_.tenants.resize(config_.tenants.size());
  std::vector<double> wait_sum(config_.tenants.size(), 0.0);
  std::vector<double> turnaround_sum(config_.tenants.size(), 0.0);
  for (std::size_t i = 0; i < result_.jobs.size(); ++i) {
    const sched::JobRecord& record = result_.jobs[i];
    const std::size_t ten = static_cast<std::size_t>(result_.job_tenant[i]);
    TenantStats& stats = result_.tenants[ten];
    ++stats.jobs;
    stats.chunks += static_cast<std::uint64_t>(record.chunks_done);
    stats.energy_j += record.energy_j;
    if (job_admit_s_[i] >= 0.0) {
      ++stats.admitted;
      wait_sum[ten] += job_admit_s_[i] - record.spec.arrival_s;
    }
    if (record.finish_s >= 0.0) {
      ++stats.completed;
      turnaround_sum[ten] += record.finish_s - record.spec.arrival_s;
    }
  }
  for (std::size_t ten = 0; ten < result_.tenants.size(); ++ten) {
    TenantStats& stats = result_.tenants[ten];
    stats.name = config_.tenants[ten].name;
    stats.weight = config_.tenants[ten].weight;
    if (stats.admitted > 0) wait_sum[ten] /= stats.admitted;
    if (stats.completed > 0) turnaround_sum[ten] /= stats.completed;
    stats.mean_wait_s = wait_sum[ten];
    stats.mean_turnaround_s = turnaround_sum[ten];
    stats.admitted_share =
        result_.admitted > 0
            ? static_cast<double>(stats.admitted) /
                  static_cast<double>(result_.admitted)
            : 0.0;
  }

  // Telemetry fan-in: each rack streamed its nodes' draws into its series
  // as they were sampled; the fleet series left-folds the racks in order.
  result_.rack_series.clear();
  for (const auto& slot : racks_) {
    result_.rack_series.push_back(slot->manager->take_series());
  }
  telemetry::GroupSeries fleet;
  for (const telemetry::GroupSeries& series : result_.rack_series) {
    fleet = telemetry::Reducer::merge(fleet, series);
  }
  fleet.name = "fleet";
  result_.fleet_series = std::move(fleet);

  const sched::ChunkBatch::Stats memo = batch_.stats();
  result_.memo_hits = memo.hits;
  result_.memo_misses = memo.misses;
  result_.memo_evictions = memo.evictions;
  result_.corun_cells = memo.corun_cells;
  result_.store_entries_loaded = memo.store_entries_loaded;
  result_.store_load_rejected = memo.store_load_rejected;
  result_.store_entries_saved = batch_.save_store();
  return std::move(result_);
}

void write_fleet_ticks_csv(const FleetResult& result,
                           const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("fleet: cannot open " + path);
  out << "t_s,target_w,enforced_w,committed_w,reserved_w,actual_w,"
         "busy_nodes,queued_jobs,lost_racks,feasible,converged\n";
  for (const LevelTick& tick : result.dc_ticks) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%.9f,%.1f,%.1f,%.1f,%.1f,%.1f,%zu,%zu,%zu,%d,%d\n",
                  tick.t_s, tick.target_w, tick.enforced_w, tick.committed_w,
                  tick.reserved_w, tick.actual_w, tick.busy_nodes,
                  tick.queued_jobs, tick.lost_children, tick.feasible ? 1 : 0,
                  tick.converged ? 1 : 0);
    out << buf;
  }
}

void write_tenant_stats_csv(const FleetResult& result,
                            const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("fleet: cannot open " + path);
  out << "tenant,weight,jobs,admitted,completed,chunks,admitted_share,"
         "mean_wait_s,mean_turnaround_s,energy_j\n";
  for (const TenantStats& stats : result.tenants) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s,%.2f,%d,%d,%d,%llu,%.4f,%.6f,%.6f,%.3f\n",
                  stats.name.c_str(), stats.weight, stats.jobs, stats.admitted,
                  stats.completed,
                  static_cast<unsigned long long>(stats.chunks),
                  stats.admitted_share, stats.mean_wait_s,
                  stats.mean_turnaround_s, stats.energy_j);
    out << buf;
  }
}

}  // namespace pcap::fleet
