// One rack of the fleet tree: a BudgetHolder over N VirtualNodes, each
// reached through its own IPMI link (LoopbackTransport, optionally wrapped
// in FaultyTransport) by a core::ManagedNode client — the same
// retry/backoff/health machinery the single-rack DCM uses, adapted into
// the rack's BudgetCoupler. Downward it divides its enforced budget across
// the nodes (two-tier by default: idle nodes parked at the floor, busy
// nodes splitting the surplus on a coarse watt grid that keeps the fleet
// chunk-memo key set small); upward it reports grant/committed/reserved
// per the budget-tree discipline and folds its nodes' draws into one
// telemetry series as they are sampled (telemetry::GroupSeriesBuilder).
//
// The rack's job plane (queue, placement, chunk bookkeeping) is in-process
// state driven by the DatacenterManager's tick: management partitions cut
// the *power* plane only — a rack or node that drops off IPMI keeps
// executing its placed work and enforcing its last budget, exactly like a
// real BMC (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bmc.hpp"
#include "core/dcm.hpp"
#include "fleet/coupler.hpp"
#include "fleet/endpoint.hpp"
#include "fleet/virtual_node.hpp"
#include "ipmi/transport.hpp"
#include "sched/chunk_cache.hpp"
#include "sched/job.hpp"
#include "telemetry/reducer.hpp"
#include "telemetry/sampler.hpp"

namespace pcap::fleet {

struct RackConfig {
  std::string name = "rack";
  std::size_t node_count = 8;
  std::size_t lanes_per_node = 1;
  core::BmcConfig bmc;  // advertises each node's [min_cap, max_cap]
  double idle_node_w = 101.0;
  /// Busy-node budgets round down onto this grid (0 = exact 0.1 W wire
  /// grid). Coarse grids bound the set of distinct enforced caps — and so
  /// the set of distinct chunk-memo keys — fleet-wide.
  double cap_grid_w = 8.0;
  /// Faults injected on every node's management link (seeded per node).
  std::optional<ipmi::FaultSpec> node_faults;
  core::NodeCommsConfig comms;
  /// Sampling period (= grid) of the rack's telemetry series. Retention is
  /// the bins from the newest 4096 samples (GroupSeriesBuilder's default).
  telemetry::SamplerConfig sampler;
  std::uint64_t seed = 1;
};

/// A job as the rack holds it (already admitted by the datacenter).
struct LaneJob {
  int job_id = -1;  // fleet-wide id; -1 = lane free
  int tenant = 0;
  sched::JobClass cls = sched::JobClass::kSireLike;
  std::uint64_t seed = 1;
  int chunks = 1;
  std::optional<double> deadline_s;
};

/// One chunk completion, reported up to the datacenter.
struct ChunkEvent {
  int job_id = -1;
  int tenant = 0;
  std::size_t node = 0;
  std::size_t lane = 0;
  sched::ChunkResult result;
  double finish_s = 0.0;
  int chunks_done = 0;
  bool job_done = false;
};

class RackManager : public BudgetHolder {
 public:
  struct Lane {
    LaneJob job;
    bool in_flight = false;
    double chunk_end_s = 0.0;
    int chunks_done = 0;
    sched::ChunkResult last_chunk;
    double placed_s = -1.0;

    bool busy() const { return job.job_id >= 0; }
  };

  explicit RackManager(const RackConfig& config);

  const std::string& name() const { return config_.name; }
  std::size_t node_count() const { return slots_.size(); }
  std::size_t lanes_per_node() const { return config_.lanes_per_node; }

  // --- BudgetHolder (served over IPMI by BudgetEndpointServer) ---
  /// Adopting a lower budget converges synchronously: node cap decreases
  /// are pushed (decreases-first, over the possibly-faulty node links)
  /// before the grant is computed, so a clean-link decrease lands whole
  /// within the parent's exchange.
  double set_budget_target(double watts) override;
  ipmi::RackStatus status() override;

  double target_w() const { return target_w_; }
  double enforced_w() const;
  double committed_w() const { return coupler_.committed_w(); }
  double reserved_w() const { return coupler_.reserved_w(); }
  double floor_w() const;
  double ceiling_w() const;

  // --- tick phases, driven by the DatacenterManager in a fixed order ---
  /// Processes chunk completions due at `t` and refreshes node draws.
  void begin_tick(double t, std::vector<ChunkEvent>& completions);
  void enqueue(const LaneJob& job) { queue_.push_back(job); }
  /// FIFO queue onto free lanes, lane-major. Returns lanes filled.
  std::size_t place(double t);
  /// One rack-level coupler round (poll nodes, divide, push).
  CouplerRound rebalance();
  /// Folds every node's draw into the rack's series if a sample is due.
  void sample(double t);

  // --- chunk-start material for the fleet-wide classify/fan-out/commit ---
  struct StartRef {
    std::size_t node = 0;
    std::size_t lane = 0;
  };
  void pending_starts(std::vector<StartRef>& out) const;
  const Lane& lane(std::size_t node, std::size_t l) const {
    return slots_[node]->lanes[l];
  }
  /// Client-side view of the node's enforced cap (last acked grant).
  double node_granted_w(std::size_t node) const {
    return coupler_.granted_w(node);
  }
  void begin_chunk(std::size_t node, std::size_t l,
                   const sched::ChunkResult& result, double t);

  // --- occupancy / queue (counters kept up to date as lanes change) ---
  std::size_t free_lanes() const {
    return slots_.size() * config_.lanes_per_node - busy_lanes_;
  }
  std::size_t busy_nodes() const { return busy_nodes_; }
  std::size_t queue_depth() const { return queue_.size(); }
  bool anything_in_flight() const { return in_flight_ > 0; }

  // --- telemetry & ground truth ---
  /// Moves the rack's series out (bins on the sampler's grid); later
  /// samples start a new one.
  telemetry::GroupSeries take_series() { return series_.take(); }
  /// Sum of the caps the VirtualNodes are *actually* enforcing — read
  /// directly, bypassing the management plane. Tests assert this ground
  /// truth never exceeds the rack's enforced budget.
  double actual_cap_sum_w() const;
  double demand_w() const;
  std::size_t lost_nodes() const { return coupler_.lost_children(); }
  const BudgetCoupler& coupler() const { return coupler_; }
  /// Per-node busy-time union in seconds (for idle-energy accounting).
  double node_busy_s(std::size_t node) const {
    return slots_[node]->busy_union_s;
  }
  /// The node's fault injector, when configured (partition scripting).
  ipmi::FaultyTransport* node_fault_link(std::size_t node) {
    return slots_[node]->faulty ? slots_[node]->faulty.get() : nullptr;
  }
  std::uint64_t mgmt_retries() const;
  std::uint64_t mgmt_failed_exchanges() const;

 private:
  struct NodeSlot {
    explicit NodeSlot(const RackConfig& config);

    VirtualNode vnode;
    VirtualNodeIpmiServer server;
    ipmi::LoopbackTransport loopback;
    std::unique_ptr<ipmi::FaultyTransport> faulty;
    std::unique_ptr<core::ManagedNode> client;
    std::vector<Lane> lanes;
    std::size_t busy_lanes = 0;  // lanes holding a job
    // Busy-time union across lanes (chunk start times are non-decreasing,
    // so the incremental merge in begin_chunk is exact).
    double busy_union_s = 0.0;
    double busy_until_s = 0.0;
  };

  /// ChildLink adapter: rack -> node pushes go through the ManagedNode
  /// client (retry/backoff over the faulty link).
  class NodeLink : public ChildLink {
   public:
    NodeLink(core::ManagedNode& client, const core::BmcConfig& bmc)
        : client_(&client), min_w_(bmc.min_cap_w), max_w_(bmc.max_cap_w) {}
    std::optional<double> push_budget(double watts) override {
      // A node grants exactly what its BMC acked: caps apply atomically.
      if (!client_->set_cap(watts)) return std::nullopt;
      return watts;
    }
    std::optional<double> poll_demand() override {
      const std::optional<ipmi::PowerReading> reading =
          client_->power_reading();
      if (!reading.has_value()) return std::nullopt;
      return reading->current_w;
    }
    double floor_w() const override { return min_w_; }
    double ceiling_w() const override { return max_w_; }

   private:
    core::ManagedNode* client_;
    double min_w_;
    double max_w_;
  };

  void refresh_draw(std::size_t node);
  /// Adds (`sign` = +1) or removes (-1) one lane's share of the occupancy
  /// counters; every lane mutation is bracketed by a removal and an add.
  void count_lane(std::size_t node, const Lane& lane, int sign);

  RackConfig config_;
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  std::vector<std::unique_ptr<NodeLink>> links_;
  BudgetCoupler coupler_;
  // Occupancy, kept by count_lane so that status polls, the coupler's
  // division and the tick loop read it without rescanning lanes.
  // weights_ is the coupler's division weight per node: idle nodes sit at
  // the floor (0), busy nodes split the surplus (1).
  std::vector<double> weights_;
  std::size_t busy_nodes_ = 0;
  std::size_t busy_lanes_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t pending_ = 0;  // busy lanes with no chunk in flight
  /// No in-flight chunk ends before this (a lower bound; exact after every
  /// begin_tick scan), so begin_tick skips the lanes until it passes.
  double next_end_s_ = std::numeric_limits<double>::infinity();
  telemetry::GroupSeriesBuilder series_;
  std::vector<double> draws_;  // sample() scratch, one per node
  std::deque<LaneJob> queue_;
  double target_w_ = 0.0;
};

}  // namespace pcap::fleet
