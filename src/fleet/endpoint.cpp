#include "fleet/endpoint.hpp"

#include <algorithm>

namespace pcap::fleet {

ipmi::Response BudgetEndpointServer::handle(const ipmi::Request& request) {
  using ipmi::Command;
  using ipmi::CompletionCode;
  switch (static_cast<Command>(request.command)) {
    case Command::kSetRackBudget: {
      const std::optional<double> target = ipmi::decode_set_rack_budget(request);
      if (!target.has_value()) {
        return ipmi::make_error_response(CompletionCode::kRequestDataInvalid);
      }
      const ipmi::RackStatus s = holder_->status();
      if (*target + 1e-9 < s.floor_w || *target > s.ceiling_w + 1e-9) {
        return ipmi::make_error_response(CompletionCode::kOutOfRange);
      }
      return ipmi::encode_rack_budget_grant(holder_->set_budget_target(*target));
    }
    case Command::kGetRackStatus:
      if (!request.payload.empty()) {
        return ipmi::make_error_response(CompletionCode::kRequestDataInvalid);
      }
      return ipmi::encode_rack_status(holder_->status());
    default:
      return ipmi::make_error_response(CompletionCode::kInvalidCommand);
  }
}

ipmi::Frame BudgetEndpointServer::transact(
    std::span<const std::uint8_t> frame) {
  return ipmi::serve_frame(
      frame, [this](const ipmi::Request& request) { return handle(request); });
}

ipmi::Response BudgetClient::transact_with_retry(
    const ipmi::Request& request) {
  ipmi::Response response;
  for (std::uint32_t attempt = 0; attempt < backoff_.max_attempts; ++attempt) {
    if (attempt > 0) ++retries_;
    response = session_.transact(request);
    if (session_.last_error() == ipmi::Session::Error::kNone) return response;
  }
  ++failed_exchanges_;
  return response;
}

bool BudgetClient::attach() {
  const ipmi::Response r = transact_with_retry(ipmi::make_get_rack_status());
  const std::optional<ipmi::RackStatus> status = ipmi::decode_rack_status(r);
  if (!status.has_value()) return false;
  status_ = *status;
  return true;
}

std::optional<double> BudgetClient::push_budget(double watts) {
  const ipmi::Response r = transact_with_retry(ipmi::make_set_rack_budget(watts));
  return ipmi::decode_rack_budget_grant(r);
}

std::optional<double> BudgetClient::poll_demand() {
  const ipmi::Response r = transact_with_retry(ipmi::make_get_rack_status());
  const std::optional<ipmi::RackStatus> status = ipmi::decode_rack_status(r);
  if (!status.has_value()) return std::nullopt;
  status_ = *status;
  return status_.demand_w;
}

void BudgetGroup::add_child(BudgetClient* child) {
  children_.push_back(child);
  floor_w_ += child->floor_w();
  ceiling_w_ += child->ceiling_w();
  coupler_.add_child(child, child->floor_w());
  target_w_ = std::max(target_w_, floor_w_);
}

double BudgetGroup::enforced_w() const {
  return std::max(target_w_, coupler_.committed_w());
}

double BudgetGroup::set_budget_target(double watts) {
  target_w_ = watts;
  coupler_.converge_down(target_w_);
  return enforced_w();
}

ipmi::RackStatus BudgetGroup::status() {
  ipmi::RackStatus s;
  s.enforced_w = enforced_w();
  s.committed_w = coupler_.committed_w();
  s.reserved_w = coupler_.reserved_w();
  s.floor_w = floor_w_;
  s.ceiling_w = ceiling_w_;
  double demand = 0.0;
  std::uint16_t nodes = 0, lost_nodes = 0, busy = 0, free_lanes = 0, queued = 0;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const ipmi::RackStatus& child = children_[i]->last_status();
    demand += coupler_.demand_w(i);
    nodes = static_cast<std::uint16_t>(nodes + child.nodes);
    busy = static_cast<std::uint16_t>(busy + child.busy_nodes);
    free_lanes = static_cast<std::uint16_t>(free_lanes + child.free_lanes);
    queued = static_cast<std::uint16_t>(queued + child.queued_jobs);
    if (coupler_.health(i) == core::NodeHealth::kLost) {
      lost_nodes = static_cast<std::uint16_t>(lost_nodes + child.nodes);
    } else {
      lost_nodes = static_cast<std::uint16_t>(lost_nodes + child.lost_nodes);
    }
  }
  s.demand_w = demand;
  s.nodes = nodes;
  s.lost_nodes = lost_nodes;
  s.busy_nodes = busy;
  s.free_lanes = free_lanes;
  s.queued_jobs = queued;
  return s;
}

}  // namespace pcap::fleet
