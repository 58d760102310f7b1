#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "core/budget.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/virtual_node.hpp"
#include "sim/node.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

namespace pcap::sched {

namespace {

constexpr double kTimeEps = 1e-12;   // event-time comparison slack (seconds)
constexpr double kCapEpsW = 1e-6;    // caps differing by less are "equal"
constexpr double kBudgetTolW = 1e-3; // invariant tolerance

/// A node's idle draw, measured on a fresh node (`seed`) idling 600 us
/// under an uncapped BMC. The simulated time spent here precedes the run's
/// t = 0, and the node is gone once the draw is known.
double calibrate_idle_w(const sim::MachineConfig& machine,
                        const core::BmcConfig& bmc_config,
                        std::uint64_t seed) {
  sim::Node node(machine, seed);
  core::Bmc bmc(node, bmc_config);
  node.set_control_hook(
      [&bmc](sim::PlatformControl&) { bmc.on_control_tick(); });
  node.start_metering();
  node.idle_for(util::microseconds(600));
  return node.meter().average_watts();
}

}  // namespace

std::uint64_t ScheduleResult::schedule_digest() const {
  using util::fnv_mix;
  std::uint64_t h = util::kFnvOffset;
  for (const JobRecord& r : jobs) {
    h = fnv_mix(h, static_cast<std::uint64_t>(r.node));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.lane));
    h = fnv_mix(h, r.start_s);
    h = fnv_mix(h, r.finish_s);
    h = fnv_mix(h, r.energy_j);
    h = fnv_mix(h, static_cast<std::uint64_t>(r.chunks_done));
  }
  for (const TickRecord& tick : ticks) {
    h = fnv_mix(h, tick.t_s);
    h = fnv_mix(h, tick.cap_sum_w);
    h = fnv_mix(h, tick.reserved_w);
    h = fnv_mix(h, static_cast<std::uint64_t>(tick.queue_depth));
    h = fnv_mix(h, static_cast<std::uint64_t>(tick.feasible ? 1 : 0));
  }
  return h;
}

/// One node of the rack. Its management plane is a VirtualNode reached
/// over IPMI: chunks run on fresh simulated nodes (ChunkBatch), so the
/// slot keeps no resident node. The VirtualNode's draw stays at the
/// calibrated idle draw (chunk energy is accounted from chunk results).
struct ClusterScheduler::Slot {
  Slot(const core::BmcConfig& bmc, double idle_w)
      : vnode(bmc.min_cap_w, bmc.max_cap_w, idle_w), server(vnode) {
    // The node boots uncapped, like the BMC its idle draw was measured
    // under; the first replan caps it.
    vnode.set_cap(std::nullopt);
  }

  std::string name;
  core::VirtualNode vnode;
  core::NodeIpmiServer<core::VirtualNode> server;
  std::unique_ptr<ipmi::FaultyTransport> faulty;

  /// One schedulable lane (DESIGN.md §13). Lanes share the node's
  /// management plane and its package-level cap; execution state is per
  /// lane. A one-lane slot is exactly the pre-lane scheduler's slot.
  struct Lane {
    int job = -1;               // index into the run's JobRecord vector
    bool in_flight = false;     // a chunk is executing
    double chunk_end_s = 0.0;
    std::optional<double> cap_at_chunk_start;
    ChunkResult last_chunk;
    /// Classes co-resident when the in-flight chunk started (frozen
    /// interference context; empty == ran solo).
    std::vector<JobClass> corun_classes;
  };

  std::vector<Lane> lanes;
  double idle_since_s = 0.0;  // when the slot last went fully idle

  double idle_power_w() const { return vnode.draw_w(); }
  bool occupied() const {
    return std::any_of(lanes.begin(), lanes.end(),
                       [](const Lane& l) { return l.job >= 0; });
  }
};

ClusterScheduler::ClusterScheduler(const SchedulerConfig& config)
    : config_(config),
      batch_(ChunkBatch::Config::from(config)),
      policy_(make_policy(config.policy_name)) {
  config_.lanes_per_node = std::max<std::size_t>(1, config_.lanes_per_node);
  model_.set_table(config_.table);
  if (config_.trace != nullptr) {
    dcm_.set_telemetry(config_.trace);
    trace_track_ = config_.trace->track("sched");
  }

  slots_.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    auto slot = std::make_unique<Slot>(
        config_.bmc,
        calibrate_idle_w(config_.machine, config_.bmc,
                         config_.seed + static_cast<std::uint64_t>(i) + 1));
    slot->name = "node-" + std::to_string(i);
    slot->lanes.resize(config_.lanes_per_node);
    if (config_.faults) {
      slot->faulty = std::make_unique<ipmi::FaultyTransport>(
          slot->server, *config_.faults,
          config_.seed * 131 + static_cast<std::uint64_t>(i) * 31 + 5);
    }

    ipmi::Transport& link =
        slot->faulty ? static_cast<ipmi::Transport&>(*slot->faulty)
                     : static_cast<ipmi::Transport&>(slot->server);
    bool added = false;
    for (int attempt = 0; attempt < 20 && !added; ++attempt) {
      added = dcm_.add_node(slot->name, link);
    }
    if (config_.trace != nullptr) {
      node_tracks_.push_back(config_.trace->track("sched:" + slot->name));
    } else {
      node_tracks_.push_back(0);
    }
    slots_.push_back(std::move(slot));
  }
}

ClusterScheduler::~ClusterScheduler() = default;

ipmi::FaultyTransport* ClusterScheduler::fault_link(std::size_t i) {
  return i < slots_.size() ? slots_[i]->faulty.get() : nullptr;
}

double ClusterScheduler::idle_power_w(std::size_t i) const {
  return i < slots_.size() ? slots_[i]->idle_power_w() : 0.0;
}

void ClusterScheduler::apply_caps(const std::vector<double>& target_w,
                                  const std::vector<bool>& available,
                                  ScheduleResult& result) {
  // The shared decreases-first push, so a half-landed replan can only
  // undershoot. An uncapped node is granted +inf (any cap is a decrease);
  // an unavailable node is left alone (its target is its grant).
  std::vector<double> granted(slots_.size());
  std::vector<double> targets(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    granted[i] = dcm_.node_applied_cap(slots_[i]->name)
                     .value_or(std::numeric_limits<double>::infinity());
    targets[i] = available[i] ? target_w[i] : granted[i];
  }
  const core::PushOutcome outcome = core::push_decreases_first(
      targets, granted, kCapEpsW, 0.0,
      [this](std::size_t i, double watts) -> std::optional<double> {
        if (!dcm_.apply_node_cap(slots_[i]->name, watts)) return std::nullopt;
        return watts;
      });
  const std::uint64_t landed = outcome.pushes - outcome.failures;
  result.cap_updates += landed;
  result.cap_update_failures += outcome.failures;
}

ScheduleResult ClusterScheduler::run(const std::vector<JobSpec>& stream) {
  ScheduleResult result;
  result.policy = policy_ != nullptr ? policy_->name() : "<none>";
  result.budget_w = config_.budget_w;
  if (policy_ == nullptr || slots_.empty()) return result;
  // Below the enforceable floor no plan can be feasible; refuse the run.
  if (config_.budget_w <
      config_.bmc.min_cap_w * static_cast<double>(slots_.size())) {
    result.infeasible_plans = 1;
    return result;
  }

  std::vector<JobRecord> records(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) records[i].spec = stream[i];

  const std::size_t lanes_per_node = config_.lanes_per_node;
  std::size_t next_arrival = 0;
  std::deque<int> ready;  // indices into records, FIFO
  std::size_t remaining = stream.size();
  double t = 0.0;
  int stalled_rounds = 0;

  // Predicted solo elapsed for one chunk of `cls` at `cap` — the
  // denominator of a CoRunObservation's slowdown sample (0 == no curve).
  auto predicted_solo_s = [&](JobClass cls, std::optional<double> cap_w) {
    const ClassCurve* curve =
        config_.table != nullptr ? config_.table->curve(cls) : nullptr;
    if (curve == nullptr || curve->baseline_time_s <= 0.0) return 0.0;
    const double slowdown =
        cap_w && *cap_w > 0.0 ? curve->slowdown_at(*cap_w) : 1.0;
    return curve->baseline_time_s * slowdown;
  };

  while (remaining > 0) {
    // --- next event ---
    double t_next = std::numeric_limits<double>::infinity();
    for (const auto& slot : slots_) {
      for (const Slot::Lane& lane : slot->lanes) {
        if (lane.in_flight) t_next = std::min(t_next, lane.chunk_end_s);
      }
    }
    if (next_arrival < stream.size()) {
      t_next = std::min(t_next, stream[next_arrival].arrival_s);
    }
    if (std::isinf(t_next)) {
      t_next = t;  // queue stalled on a fully parked rack: replan in place
    }
    t = t_next;

    // --- arrivals ---
    while (next_arrival < stream.size() &&
           stream[next_arrival].arrival_s <= t + kTimeEps) {
      ready.push_back(static_cast<int>(next_arrival));
      ++next_arrival;
    }

    // --- chunk completions ((slot, lane) order: deterministic) ---
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = *slots_[i];
      for (std::size_t l = 0; l < slot.lanes.size(); ++l) {
        Slot::Lane& lane = slot.lanes[l];
        if (!lane.in_flight || lane.chunk_end_s > t + kTimeEps) continue;
        lane.in_flight = false;
        JobRecord& record = records[static_cast<std::size_t>(lane.job)];
        record.energy_j += lane.last_chunk.energy_j;
        ++record.chunks_done;
        ++result.chunks;
        if (lane.corun_classes.empty()) {
          // Only solo chunks feed the power model: a co-run share is an
          // attribution of the package draw, not a node draw.
          model_.observe(record.spec.cls, lane.cap_at_chunk_start,
                         lane.last_chunk.avg_power_w);
        } else {
          ++record.corun_chunks;
        }
        // Every completion feeds the policy's contention learning; solo
        // chunks arrive with an empty co_resident list.
        CoRunObservation obs;
        obs.cls = record.spec.cls;
        obs.co_resident = lane.corun_classes;
        obs.cap_w = lane.cap_at_chunk_start;
        obs.elapsed_s = util::to_seconds(lane.last_chunk.elapsed);
        obs.predicted_solo_s =
            predicted_solo_s(record.spec.cls, lane.cap_at_chunk_start);
        if (config_.predictor != nullptr) {
          // Same serial (slot, lane) completion order the policy sees, so
          // the learner's state is invariant under `--jobs`.
          config_.predictor->on_chunk(i, obs, lane.last_chunk.avg_power_w);
        }
        policy_->observe_corun(obs);
        if (record.done()) {
          record.finish_s = lane.chunk_end_s;
          const double busy_s = record.finish_s - record.start_s;
          record.avg_power_w =
              busy_s > 0.0 ? record.energy_j / busy_s : 0.0;
          if (record.spec.deadline_s &&
              record.finish_s > *record.spec.deadline_s + kTimeEps) {
            record.missed_deadline = true;
            ++result.deadline_misses;
          }
          if (config_.trace != nullptr) {
            config_.trace->span(
                node_tracks_[i], "sched", job_class_name(record.spec.cls),
                record.start_s * 1e6,
                (record.finish_s - record.start_s) * 1e6,
                {telemetry::TraceArg::num("job", record.spec.id),
                 telemetry::TraceArg::num("chunks", record.spec.chunks),
                 telemetry::TraceArg::num("lane",
                                          static_cast<double>(l)),
                 telemetry::TraceArg::num("corun_chunks",
                                          record.corun_chunks),
                 telemetry::TraceArg::num("missed_deadline",
                                          record.missed_deadline ? 1 : 0)});
          }
          lane.job = -1;
          if (!slot.occupied()) slot.idle_since_s = lane.chunk_end_s;
          --remaining;
        }
      }
    }

    // --- monitoring sweep: health, power history, alerts ---
    dcm_.poll();

    // --- replan ---
    PlanInput input;
    input.budget_w = config_.budget_w;
    input.min_cap_w = config_.bmc.min_cap_w;
    input.max_cap_w = config_.bmc.max_cap_w;
    input.now_s = t;
    input.lanes_per_node = lanes_per_node;
    input.table = config_.table;
    input.model = &model_;
    if (config_.predictor != nullptr) {
      // Learned curves supersede the static table once the learner is
      // active (null until then); forecasts stay empty while disabled.
      if (const AmenabilityTable* learned = config_.predictor->learned_table();
          learned != nullptr) {
        input.table = learned;
      }
      config_.predictor->forecasts(t, slots_.size(), &input.forecasts);
    }
    std::vector<bool> available(slots_.size(), true);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = *slots_[i];
      NodeView view;
      view.index = i;
      const auto health = dcm_.node_health(slot.name);
      view.available = !health || *health != core::NodeHealth::kLost;
      available[i] = view.available;
      view.lanes.reserve(slot.lanes.size());
      for (std::size_t l = 0; l < slot.lanes.size(); ++l) {
        const Slot::Lane& lane = slot.lanes[l];
        LaneView lane_view;
        lane_view.lane = l;
        lane_view.busy = lane.job >= 0;
        if (lane_view.busy) {
          const JobRecord& record =
              records[static_cast<std::size_t>(lane.job)];
          lane_view.cls = record.spec.cls;
          lane_view.remaining_chunks =
              record.spec.chunks - record.chunks_done;
          lane_view.deadline_s = record.spec.deadline_s;
          // Aggregates for lane-blind policies: first busy lane's class,
          // lane-max remaining work, earliest deadline.
          if (!view.busy) {
            view.busy = true;
            view.cls = lane_view.cls;
          }
          view.remaining_chunks =
              std::max(view.remaining_chunks, lane_view.remaining_chunks);
          if (lane_view.deadline_s &&
              (!view.deadline_s || *lane_view.deadline_s < *view.deadline_s)) {
            view.deadline_s = lane_view.deadline_s;
          }
        }
        view.lanes.push_back(std::move(lane_view));
      }
      view.applied_cap_w = dcm_.node_applied_cap(slot.name);
      input.nodes.push_back(std::move(view));
    }
    for (const int job : ready) {
      const JobSpec& spec = records[static_cast<std::size_t>(job)].spec;
      input.queued.push_back({spec.cls, spec.chunks, spec.deadline_s});
    }

    Plan plan = policy_->plan(input);
    if (config_.predictor != nullptr) {
      // Proactive adjustment runs before the clamp + feasibility check
      // below, so it cannot break the budget invariant any more than a
      // policy can.
      config_.predictor->adjust_plan(input, &plan);
    }
    plan.cap_w.resize(slots_.size(), config_.bmc.min_cap_w);
    plan.admit.resize(slots_.size(), false);
    double plan_sum = 0.0;
    double reserved = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!available[i]) {
        reserved +=
            dcm_.node_applied_cap(slots_[i]->name).value_or(config_.bmc.min_cap_w);
        continue;
      }
      plan.cap_w[i] = std::clamp(plan.cap_w[i], config_.bmc.min_cap_w,
                                 config_.bmc.max_cap_w);
      plan_sum += plan.cap_w[i];
    }
    const bool feasible = plan_sum + reserved <= config_.budget_w + kBudgetTolW;
    if (feasible) {
      apply_caps(plan.cap_w, available, result);
    } else {
      ++result.infeasible_plans;  // previous caps stay enforced
    }
    ++result.replans;

    // --- budget-invariant tick ---
    TickRecord tick;
    tick.t_s = t;
    tick.cap_sum_w = dcm_.committed_w();
    tick.reserved_w = dcm_.reserved_w();
    tick.budget_w = config_.budget_w;
    tick.queue_depth = ready.size();
    tick.feasible = feasible;
    if (tick.cap_sum_w > config_.budget_w + kBudgetTolW) {
      ++result.budget_violations;
    }
    result.max_cap_sum_w = std::max(result.max_cap_sum_w, tick.cap_sum_w);
    result.ticks.push_back(tick);
    if (config_.trace != nullptr) {
      config_.trace->instant(
          trace_track_, "sched", "replan", t * 1e6,
          {telemetry::TraceArg::str("policy", result.policy),
           telemetry::TraceArg::num("cap_sum_w", tick.cap_sum_w),
           telemetry::TraceArg::num("queue", static_cast<double>(ready.size())),
           telemetry::TraceArg::num("feasible", feasible ? 1 : 0)});
    }

    // --- placement ---
    // Policy placements first (entries naming a lane that is not idle,
    // admitted and reachable fall back to FIFO), then the default FIFO
    // fill in lane-major order: lane 0 of every node before lane 1 of any,
    // so co-runs only happen once every node is carrying work — and a
    // one-lane rack reduces to the classic slot-order fill.
    auto lane_free = [&](std::size_t i, std::size_t l) {
      return available[i] && plan.admit[i] &&
             slots_[i]->lanes[l].job < 0 && !slots_[i]->lanes[l].in_flight;
    };
    auto place = [&](std::size_t i, std::size_t l, int job) {
      Slot& slot = *slots_[i];
      JobRecord& record = records[static_cast<std::size_t>(job)];
      if (!slot.occupied()) {
        result.idle_energy_j +=
            slot.idle_power_w() * std::max(0.0, t - slot.idle_since_s);
      }
      slot.lanes[l].job = job;
      record.node = static_cast<int>(i);
      record.lane = static_cast<int>(l);
      record.start_s = t;
    };
    {
      std::vector<int> queue(ready.begin(), ready.end());
      std::vector<bool> taken(queue.size(), false);
      for (std::size_t q = 0;
           q < plan.placement.size() && q < queue.size(); ++q) {
        const int flat = plan.placement[q];
        if (flat < 0) continue;
        const std::size_t i =
            static_cast<std::size_t>(flat) / lanes_per_node;
        const std::size_t l =
            static_cast<std::size_t>(flat) % lanes_per_node;
        if (i >= slots_.size() || !lane_free(i, l)) continue;
        place(i, l, queue[q]);
        taken[q] = true;
      }
      std::size_t next_q = 0;
      for (std::size_t l = 0; l < lanes_per_node; ++l) {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
          while (next_q < queue.size() && taken[next_q]) ++next_q;
          if (next_q >= queue.size()) break;
          if (!lane_free(i, l)) continue;
          place(i, l, queue[next_q]);
          taken[next_q] = true;
        }
      }
      ready.clear();
      for (std::size_t q = 0; q < queue.size(); ++q) {
        if (!taken[q]) ready.push_back(queue[q]);
      }
    }
    // A fully parked, fully idle rack must not deadlock the queue: force
    // the head job onto the first reachable idle node.
    const bool anything_running =
        std::any_of(slots_.begin(), slots_.end(), [](const auto& s) {
          return s->occupied();
        });
    if (!anything_running && !ready.empty() && next_arrival >= stream.size()) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (available[i] && slots_[i]->lanes[0].job < 0) {
          const int job = ready.front();
          ready.pop_front();
          place(i, 0, job);
          ++result.forced_admissions;
          break;
        }
      }
    }

    // --- start chunks: one ChunkBatch round in (slot, lane) order ---
    std::vector<std::pair<std::size_t, std::size_t>> started;
    std::vector<CoRunMember> co_residents;
    auto member_of = [&](const Slot::Lane& lane) {
      const JobRecord& record = records[static_cast<std::size_t>(lane.job)];
      return CoRunMember::of(record.spec.cls, record.spec.seed,
                             record.chunks_done);
    };
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = *slots_[i];
      for (std::size_t l = 0; l < slot.lanes.size(); ++l) {
        Slot::Lane& lane = slot.lanes[l];
        if (lane.job < 0 || lane.in_flight) continue;
        lane.cap_at_chunk_start = dcm_.node_applied_cap(slot.name);
        lane.corun_classes.clear();
        co_residents.clear();
        for (std::size_t o = 0; o < slot.lanes.size(); ++o) {
          if (o == l || slot.lanes[o].job < 0) continue;
          co_residents.push_back(member_of(slot.lanes[o]));
          lane.corun_classes.push_back(co_residents.back().cls);
        }
        batch_.add_start(member_of(lane), co_residents,
                         lane.cap_at_chunk_start);
        started.emplace_back(i, l);
      }
    }
    const std::span<const ChunkBatch::Outcome> outcomes = batch_.run_round();
    for (std::size_t k = 0; k < started.size(); ++k) {
      Slot::Lane& lane = slots_[started[k].first]->lanes[started[k].second];
      lane.last_chunk = outcomes[k].result;
      if (outcomes[k].corun) ++result.corun_chunks;
      lane.chunk_end_s = t + util::to_seconds(lane.last_chunk.elapsed);
      lane.in_flight = true;
    }

    // --- stall guard: a wedged rack (every node lost) must terminate ---
    const bool in_flight =
        !started.empty() ||
        std::any_of(slots_.begin(), slots_.end(), [](const auto& s) {
          return std::any_of(
              s->lanes.begin(), s->lanes.end(),
              [](const Slot::Lane& l) { return l.in_flight; });
        });
    if (!in_flight && next_arrival >= stream.size()) {
      if (++stalled_rounds > 2) break;  // stranded jobs keep finish_s = -1
    } else {
      stalled_rounds = 0;
    }
  }

  // --- final accounting ---
  double makespan = 0.0;
  double turnaround = 0.0;
  std::size_t finished = 0;
  for (const JobRecord& record : records) {
    result.busy_energy_j += record.energy_j;
    if (record.finish_s >= 0.0) {
      makespan = std::max(makespan, record.finish_s);
      turnaround += record.finish_s - record.spec.arrival_s;
      ++finished;
    }
  }
  result.makespan_s = makespan;
  result.mean_turnaround_s =
      finished > 0 ? turnaround / static_cast<double>(finished) : 0.0;
  for (const auto& slot : slots_) {
    if (!slot->occupied()) {
      result.idle_energy_j +=
          slot->idle_power_w() * std::max(0.0, makespan - slot->idle_since_s);
    }
  }
  result.total_energy_j = result.busy_energy_j + result.idle_energy_j;
  for (const auto& slot : slots_) {
    if (const core::ManagedNode* node = dcm_.node(slot->name)) {
      result.mgmt_retries += node->retries();
      result.mgmt_failed_exchanges += node->failed_exchanges();
    }
  }
  const ChunkBatch::Stats memo = batch_.stats();
  result.memo_hits = memo.hits;
  result.memo_misses = memo.misses;
  result.memo_evictions = memo.evictions;
  result.corun_cells = memo.corun_cells;
  result.store_entries_loaded = memo.store_entries_loaded;
  result.store_load_rejected = memo.store_load_rejected;
  result.store_entries_saved = batch_.save_store();
  result.jobs = std::move(records);
  return result;
}

}  // namespace pcap::sched
