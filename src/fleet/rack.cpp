#include "fleet/rack.hpp"

#include <algorithm>

#include "util/units.hpp"

namespace pcap::fleet {

namespace {
constexpr double kTimeEps = 1e-12;
}  // namespace

RackManager::NodeSlot::NodeSlot(const RackConfig& config)
    : vnode(config.bmc.min_cap_w, config.bmc.max_cap_w, config.idle_node_w),
      server(vnode),
      loopback([this](std::span<const std::uint8_t> frame) {
        return server.handle_frame(frame);
      }) {
  lanes.resize(config.lanes_per_node);
}

RackManager::RackManager(const RackConfig& config)
    : config_(config),
      weights_(config.node_count, 0.0),
      series_(config.name, config.node_count, config.sampler),
      draws_(config.node_count) {
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    auto slot = std::make_unique<NodeSlot>(config_);
    if (config_.node_faults) {
      slot->faulty = std::make_unique<ipmi::FaultyTransport>(
          slot->loopback, *config_.node_faults,
          config_.seed * 131 + static_cast<std::uint64_t>(i) * 31 + 5);
    }
    ipmi::Transport& link =
        slot->faulty ? static_cast<ipmi::Transport&>(*slot->faulty)
                     : static_cast<ipmi::Transport&>(slot->loopback);
    core::NodeCommsConfig comms = config_.comms;
    comms.seed = config_.seed * 977 + static_cast<std::uint64_t>(i) * 131 + 7;
    slot->client = std::make_unique<core::ManagedNode>(
        config_.name + "/n" + std::to_string(i), link, comms);
    slots_.push_back(std::move(slot));
  }
  // Every node boots capped at its floor (the BMC's safe state), which is
  // exactly the initial grant the coupler books for it.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    links_.push_back(
        std::make_unique<NodeLink>(*slots_[i]->client, config_.bmc));
    coupler_.add_child(links_.back().get(), config_.bmc.min_cap_w);
  }
  target_w_ = floor_w();
}

double RackManager::floor_w() const {
  return static_cast<double>(slots_.size()) * config_.bmc.min_cap_w;
}

double RackManager::ceiling_w() const {
  return static_cast<double>(slots_.size()) * config_.bmc.max_cap_w;
}

double RackManager::enforced_w() const {
  return std::max(target_w_, coupler_.committed_w());
}

void RackManager::count_lane(std::size_t node, const Lane& lane, int sign) {
  const auto step = [sign](std::size_t& n) {
    n = sign > 0 ? n + 1 : n - 1;
  };
  if (lane.in_flight) step(in_flight_);
  if (!lane.busy()) return;
  step(busy_lanes_);
  if (!lane.in_flight) step(pending_);
  NodeSlot& slot = *slots_[node];
  step(slot.busy_lanes);
  // The node turned busy (first lane) or idle (last lane).
  if (slot.busy_lanes == (sign > 0 ? 1u : 0u)) {
    step(busy_nodes_);
    weights_[node] = sign > 0 ? 1.0 : 0.0;
  }
}

double RackManager::set_budget_target(double watts) {
  target_w_ = watts;
  coupler_.converge_down(target_w_, &weights_, config_.cap_grid_w);
  return enforced_w();
}

CouplerRound RackManager::rebalance() {
  return coupler_.run_round(target_w_, &weights_, config_.cap_grid_w);
}

ipmi::RackStatus RackManager::status() {
  ipmi::RackStatus s;
  s.enforced_w = enforced_w();
  s.committed_w = coupler_.committed_w();
  s.reserved_w = coupler_.reserved_w();
  s.demand_w = demand_w();
  s.floor_w = floor_w();
  s.ceiling_w = ceiling_w();
  s.nodes = static_cast<std::uint16_t>(slots_.size());
  s.lost_nodes = static_cast<std::uint16_t>(coupler_.lost_children());
  s.busy_nodes = static_cast<std::uint16_t>(busy_nodes());
  s.free_lanes = static_cast<std::uint16_t>(free_lanes());
  s.queued_jobs = static_cast<std::uint16_t>(
      std::min<std::size_t>(queue_.size(), 0xFFFF));
  return s;
}

double RackManager::demand_w() const {
  double sum = 0.0;
  for (const auto& slot : slots_) sum += slot->vnode.draw_w();
  return sum;
}

void RackManager::refresh_draw(std::size_t node) {
  NodeSlot& slot = *slots_[node];
  double draw = 0.0;
  bool any = false;
  for (const Lane& lane : slot.lanes) {
    if (lane.in_flight) {
      draw += lane.last_chunk.avg_power_w;
      any = true;
    }
  }
  slot.vnode.set_draw_w(any ? draw : config_.idle_node_w);
}

void RackManager::begin_tick(double t, std::vector<ChunkEvent>& completions) {
  if (next_end_s_ > t + kTimeEps) return;  // no chunk is due yet
  next_end_s_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    NodeSlot& slot = *slots_[i];
    bool changed = false;
    for (std::size_t l = 0; l < slot.lanes.size(); ++l) {
      Lane& lane = slot.lanes[l];
      if (!lane.in_flight) continue;
      if (lane.chunk_end_s > t + kTimeEps) {
        next_end_s_ = std::min(next_end_s_, lane.chunk_end_s);
        continue;
      }
      count_lane(i, lane, -1);
      lane.in_flight = false;
      ++lane.chunks_done;
      changed = true;
      ChunkEvent event;
      event.job_id = lane.job.job_id;
      event.tenant = lane.job.tenant;
      event.node = i;
      event.lane = l;
      event.result = lane.last_chunk;
      event.finish_s = lane.chunk_end_s;
      event.chunks_done = lane.chunks_done;
      event.job_done = lane.chunks_done >= lane.job.chunks;
      completions.push_back(event);
      if (event.job_done) {
        lane.job = LaneJob{};
        lane.chunks_done = 0;
        lane.placed_s = -1.0;
      }
      count_lane(i, lane, +1);
    }
    if (changed) refresh_draw(i);
  }
}

std::size_t RackManager::place(double t) {
  std::size_t placed = 0;
  for (std::size_t l = 0; l < config_.lanes_per_node && !queue_.empty(); ++l) {
    for (std::size_t i = 0; i < slots_.size() && !queue_.empty(); ++i) {
      Lane& lane = slots_[i]->lanes[l];
      if (lane.busy()) continue;
      count_lane(i, lane, -1);
      lane.job = queue_.front();
      queue_.pop_front();
      lane.chunks_done = 0;
      lane.in_flight = false;
      lane.placed_s = t;
      count_lane(i, lane, +1);
      ++placed;
    }
  }
  return placed;
}

void RackManager::pending_starts(std::vector<StartRef>& out) const {
  if (pending_ == 0) return;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const NodeSlot& slot = *slots_[i];
    for (std::size_t l = 0; l < slot.lanes.size(); ++l) {
      const Lane& lane = slot.lanes[l];
      if (lane.busy() && !lane.in_flight) out.push_back({i, l});
    }
  }
}

void RackManager::begin_chunk(std::size_t node, std::size_t l,
                              const sched::ChunkResult& result, double t) {
  NodeSlot& slot = *slots_[node];
  Lane& lane = slot.lanes[l];
  count_lane(node, lane, -1);
  lane.last_chunk = result;
  lane.chunk_end_s = t + util::to_seconds(result.elapsed);
  lane.in_flight = true;
  count_lane(node, lane, +1);
  next_end_s_ = std::min(next_end_s_, lane.chunk_end_s);
  // Incremental busy-interval union (starts arrive in tick order).
  if (t >= slot.busy_until_s) {
    slot.busy_union_s += lane.chunk_end_s - t;
    slot.busy_until_s = lane.chunk_end_s;
  } else if (lane.chunk_end_s > slot.busy_until_s) {
    slot.busy_union_s += lane.chunk_end_s - slot.busy_until_s;
    slot.busy_until_s = lane.chunk_end_s;
  }
  refresh_draw(node);
}

void RackManager::sample(double t) {
  const util::Picoseconds now = util::seconds(t);
  if (!series_.due(now)) return;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    draws_[i] = slots_[i]->vnode.draw_w();
  }
  series_.record(now, draws_);
}

double RackManager::actual_cap_sum_w() const {
  double sum = 0.0;
  for (const auto& slot : slots_) {
    const std::optional<double> cap = slot->vnode.cap_w();
    sum += cap.value_or(config_.bmc.max_cap_w);
  }
  return sum;
}

std::uint64_t RackManager::mgmt_retries() const {
  std::uint64_t n = 0;
  for (const auto& slot : slots_) n += slot->client->retries();
  return n;
}

std::uint64_t RackManager::mgmt_failed_exchanges() const {
  std::uint64_t n = 0;
  for (const auto& slot : slots_) n += slot->client->failed_exchanges();
  return n;
}

}  // namespace pcap::fleet
