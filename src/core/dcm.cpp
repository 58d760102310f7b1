#include "core/dcm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/budget.hpp"

namespace pcap::core {

namespace {

/// Caps on the 0.1 W wire grid differ by a whole step or not at all; half
/// a step only separates a real change from floating-point noise.
constexpr double kCapEpsilonW = 0.05;
/// Power samples kept per node.
constexpr std::size_t kHistoryDepth = 256;
/// A poll reading more than this above the enforced limit violates it;
/// kViolationPolls consecutive violating polls raise an alert.
constexpr double kCapViolationToleranceW = 2.0;
constexpr std::uint32_t kViolationPolls = 3;

std::string watts_str(double w) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", w);
  return buf;
}

const char* session_error_name(ipmi::Session::Error error) {
  switch (error) {
    case ipmi::Session::Error::kNone: return "none";
    case ipmi::Session::Error::kLost: return "lost";
    case ipmi::Session::Error::kTimeout: return "timeout";
    case ipmi::Session::Error::kCorrupt: return "corrupt";
    case ipmi::Session::Error::kStale: return "stale";
  }
  return "unknown";
}

}  // namespace

void ManagedNode::set_telemetry(telemetry::TraceWriter* trace,
                                double* mgmt_clock_ms) {
  trace_ = trace;
  mgmt_clock_ms_ = mgmt_clock_ms;
  if (trace_ != nullptr) trace_track_ = trace_->track("ipmi:" + name_);
}

ipmi::Response ManagedNode::transact_with_retry(const ipmi::Request& request) {
  const std::uint32_t attempts = std::max(1u, backoff_.max_attempts);
  ipmi::Response response;
  const double start_ms = clock_ms();
  std::uint32_t attempt = 0;
  bool exhausted = false;
  for (;; ++attempt) {
    response = session_.transact(request);
    // The management clock advances by the modelled wire latency of every
    // attempt (lost frames still burn the client's timeout budget).
    advance_clock(session_.last_latency_ms());
    if (session_.last_error() == ipmi::Session::Error::kNone) break;
    if (trace_ != nullptr) {
      trace_->instant(trace_track_, "ipmi",
                      std::string("retry:") +
                          session_error_name(session_.last_error()),
                      telemetry::TraceWriter::ms_us(clock_ms()),
                      {telemetry::TraceArg::num("attempt", attempt + 1)});
    }
    if (attempt + 1 >= attempts) {
      exhausted = true;
      break;
    }
    ++retries_;
    const double delay_ms = util::backoff_delay_ms(attempt, rng_);
    backoff_ms_total_ += delay_ms;
    if (trace_ != nullptr) {
      trace_->span(trace_track_, "ipmi", "backoff",
                   telemetry::TraceWriter::ms_us(clock_ms()),
                   telemetry::TraceWriter::ms_us(delay_ms),
                   {telemetry::TraceArg::num("attempt", attempt + 1)});
    }
    advance_clock(delay_ms);
  }
  if (exhausted) ++failed_exchanges_;
  if (trace_ != nullptr) {
    trace_->span(
        trace_track_, "ipmi", ipmi::command_name(request.command),
        telemetry::TraceWriter::ms_us(start_ms),
        telemetry::TraceWriter::ms_us(clock_ms() - start_ms),
        {telemetry::TraceArg::num("attempts", attempt + 1),
         telemetry::TraceArg::str(
             "outcome", exhausted ? session_error_name(session_.last_error())
                                  : "ok")});
  }
  return response;
}

std::optional<ipmi::DeviceId> ManagedNode::device_id() {
  return ipmi::decode_device_id(
      transact_with_retry(ipmi::make_get_device_id()));
}

std::optional<ipmi::PowerReading> ManagedNode::power_reading() {
  return ipmi::decode_power_reading(
      transact_with_retry(ipmi::make_get_power_reading()));
}

std::optional<ipmi::Capabilities> ManagedNode::capabilities() {
  return ipmi::decode_capabilities(
      transact_with_retry(ipmi::make_get_capabilities()));
}

std::optional<ipmi::PowerLimit> ManagedNode::power_limit() {
  return ipmi::decode_power_limit(
      transact_with_retry(ipmi::make_get_power_limit()));
}

std::optional<ipmi::ThrottleStatus> ManagedNode::throttle_status() {
  return ipmi::decode_throttle_status(
      transact_with_retry(ipmi::make_get_throttle_status()));
}

bool ManagedNode::set_cap(std::optional<double> watts) {
  ipmi::PowerLimit limit;
  limit.enabled = watts.has_value();
  limit.limit_w = watts.value_or(0.0);
  return transact_with_retry(ipmi::make_set_power_limit(limit)).ok();
}

std::string node_health_name(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kDegraded: return "degraded";
    case NodeHealth::kLost: return "lost";
    case NodeHealth::kRecovered: return "recovered";
  }
  return "unknown";
}

DataCenterManager::Entry* DataCenterManager::find(const std::string& name) {
  for (auto& e : nodes_) {
    if (e.node->name() == name) return &e;
  }
  return nullptr;
}

const DataCenterManager::Entry* DataCenterManager::find(
    const std::string& name) const {
  for (const auto& e : nodes_) {
    if (e.node->name() == name) return &e;
  }
  return nullptr;
}

void DataCenterManager::set_telemetry(telemetry::TraceWriter* trace) {
  trace_ = trace;
  if (trace_ != nullptr) trace_track_ = trace_->track("dcm");
  for (auto& e : nodes_) e.node->set_telemetry(trace_, &mgmt_clock_ms_);
}

bool DataCenterManager::attach_probe(const std::string& name,
                                     telemetry::NodeProbe* probe) {
  Entry* e = find(name);
  if (e == nullptr) return false;
  e->probe = probe;
  if (probe != nullptr) {
    probe->note_health(static_cast<std::int32_t>(e->health));
  }
  return true;
}

HealthStep next_health(NodeHealth health, std::uint32_t consecutive_failures,
                       bool ok) {
  if (ok) {
    return {health == NodeHealth::kLost ? NodeHealth::kRecovered
                                        : NodeHealth::kHealthy,
            0};
  }
  ++consecutive_failures;
  if (consecutive_failures >= kLostAfterFailures) {
    return {NodeHealth::kLost, consecutive_failures};
  }
  if (consecutive_failures >= kDegradedAfterFailures &&
      (health == NodeHealth::kHealthy || health == NodeHealth::kRecovered)) {
    return {NodeHealth::kDegraded, consecutive_failures};
  }
  return {health, consecutive_failures};
}

void DataCenterManager::note_health_change(Entry& e) {
  if (e.probe != nullptr) {
    e.probe->note_health(static_cast<std::int32_t>(e.health));
  }
  if (trace_ != nullptr) {
    trace_->instant(trace_track_, "health",
                    e.node->name() + ":" + node_health_name(e.health),
                    telemetry::TraceWriter::ms_us(mgmt_clock_ms_),
                    {telemetry::TraceArg::num(
                        "failures", e.consecutive_failures)});
  }
}

bool DataCenterManager::add_node(const std::string& name,
                                 ipmi::Transport& transport) {
  if (find(name) != nullptr) return false;
  // Derive a per-node jitter seed so retry schedules across the fleet are
  // decorrelated but still reproducible from the configured seed.
  NodeCommsConfig comms = config_.comms;
  std::uint64_t state =
      comms.seed ^ (0x9E3779B97F4A7C15ull * (nodes_.size() + 1));
  for (unsigned char c : name) state += c;
  comms.seed = util::splitmix64(state);

  auto node = std::make_unique<ManagedNode>(name, transport, comms);
  // All sessions share the manager's clock so their spans interleave on one
  // management timeline (and mgmt_clock_ms() totals the fleet's wire time).
  node->set_telemetry(trace_, &mgmt_clock_ms_);
  if (!node->device_id()) return false;  // discovery probe
  const auto caps = node->capabilities();
  if (!caps) return false;
  Entry e;
  e.node = std::move(node);
  e.caps = *caps;
  nodes_.push_back(std::move(e));
  return true;
}

ManagedNode* DataCenterManager::node(const std::string& name) {
  Entry* e = find(name);
  return e ? e->node.get() : nullptr;
}

std::vector<std::string> DataCenterManager::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& e : nodes_) names.push_back(e.node->name());
  return names;
}

bool DataCenterManager::set_cap_recorded(Entry& e,
                                         std::optional<double> watts) {
  if (!e.node->set_cap(watts)) return false;
  e.applied_cap_w = watts;
  return true;
}

bool DataCenterManager::apply_node_cap(const std::string& name,
                                       std::optional<double> watts) {
  Entry* e = find(name);
  if (e == nullptr) return false;
  return set_cap_recorded(*e, watts);
}

DataCenterManager::GroupCapResult DataCenterManager::apply_group_cap(
    double total_w) {
  // Reachable nodes are planned from fresh telemetry (a failure aborts —
  // health bookkeeping belongs to poll()).
  for (auto& e : nodes_) {
    if (e.health == NodeHealth::kLost) continue;
    const auto reading = e.node->power_reading();
    const auto caps = e.node->capabilities();
    if (!reading || !caps) return {};
    e.caps = *caps;
    e.last_draw_w = std::max(reading->average_w, reading->current_w);
  }
  return push_group_split(total_w, /*pin_floors=*/false);
}

bool DataCenterManager::set_cap_schedule(const std::string& name,
                                         std::vector<ScheduledCap> schedule) {
  Entry* e = find(name);
  if (e == nullptr) return false;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].at_poll < schedule[i - 1].at_poll) return false;
  }
  e->schedule = std::move(schedule);
  e->schedule_next = 0;
  return true;
}

double DataCenterManager::reserved_for(const Entry& e) const {
  // Conservative: an unreachable BMC keeps enforcing its last cap, so that
  // cap is the most it can draw. Without a cap, assume the last observed
  // draw; with no observation at all, its full capability ceiling.
  if (e.applied_cap_w) return *e.applied_cap_w;
  return e.last_draw_w.value_or(e.caps.max_cap_w);
}

DataCenterManager::GroupCapResult DataCenterManager::push_group_split(
    double total_w, bool pin_floors) {
  // Lost nodes cannot be re-capped: what their BMCs may still draw is
  // reserved out of the budget, and their target is their current cap.
  std::vector<double> granted(nodes_.size());
  std::vector<double> floors, weights, ceilings;
  double reserved = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Entry& e = nodes_[i];
    // An uncapped node is granted +inf: any cap is a decrease.
    granted[i] = e.applied_cap_w.value_or(
        std::numeric_limits<double>::infinity());
    if (e.health == NodeHealth::kLost) {
      reserved += reserved_for(e);
      continue;
    }
    const double draw = e.last_draw_w.value_or(0.0);
    const double demand = draw > 0.0 ? draw : e.caps.min_cap_w;
    weights.push_back(demand);
    floors.push_back(e.caps.min_cap_w);
    ceilings.push_back(e.caps.max_cap_w);
  }
  if (floors.empty()) return {};

  // grid_w = 0: caps land on the 0.1 W wire grid, so the caps the BMCs
  // decode sum to no more than the budget.
  const double available = total_w - reserved;
  std::vector<double> division;
  const bool feasible =
      divide_budget(available, floors, weights, ceilings, 0.0, division);
  if (feasible) {
    group_budget_w_ = total_w;
  } else if (pin_floors) {
    // The remaining budget no longer covers the reachable nodes' floors.
    // Degrade gracefully: pin every reachable node at its floor (the
    // deepest enforceable point) and flag the shortfall.
    alerts_.push_back(
        {poll_seq_, "group",
         "budget infeasible: " + watts_str(available) +
             " W left for reachable nodes after reserving " +
             watts_str(reserved) + " W; pinning floors"});
    division = floors;
  } else {
    return {};
  }

  std::vector<double> targets(granted);
  for (std::size_t i = 0, k = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].health != NodeHealth::kLost) targets[i] = division[k++];
  }
  push_decreases_first(
      targets, granted, kCapEpsilonW, 0.0,
      [this](std::size_t i, double watts) -> std::optional<double> {
        if (set_cap_recorded(nodes_[i], watts)) return watts;
        alerts_.push_back({poll_seq_, nodes_[i].node->name(),
                           "failed to apply " + watts_str(watts) +
                               " W group cap"});
        return std::nullopt;
      });

  GroupCapResult result;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].health == NodeHealth::kLost) continue;
    if (std::abs(granted[i] - targets[i]) <= kCapEpsilonW) {
      result.caps.emplace_back(nodes_[i].node->name(), granted[i]);
    }
  }
  result.complete = feasible && result.caps.size() == floors.size();
  return result;
}

void DataCenterManager::note_exchange(Entry& e, bool ok) {
  const NodeHealth before = e.health;
  const HealthStep step =
      next_health(e.health, e.consecutive_failures, ok);
  e.health = step.health;
  e.consecutive_failures = step.consecutive_failures;
  if (e.health == before) return;
  if (e.health == NodeHealth::kRecovered) {
    alerts_.push_back({poll_seq_, e.node->name(),
                       "recovered: BMC reachable again; restoring group "
                       "budget share"});
  } else if (e.health == NodeHealth::kLost) {
    alerts_.push_back(
        {poll_seq_, e.node->name(),
         "lost: unreachable for " + std::to_string(e.consecutive_failures) +
             " polls; reserving " + watts_str(reserved_for(e)) +
             " W of group budget"});
  } else if (e.health == NodeHealth::kDegraded) {
    alerts_.push_back(
        {poll_seq_, e.node->name(),
         "degraded: " + std::to_string(e.consecutive_failures) +
             " consecutive failed exchanges"});
  }
  note_health_change(e);
  // Losing or regaining a node changes who shares the group budget. The
  // re-split plans from cached demand and capabilities: it runs inside
  // poll(), and fresh telemetry reads over an already-unreliable wire would
  // couple the rebalance to more failures.
  if ((e.health == NodeHealth::kLost || e.health == NodeHealth::kRecovered) &&
      group_budget_w_) {
    push_group_split(*group_budget_w_, /*pin_floors=*/true);
  }
}

void DataCenterManager::poll() {
  ++poll_seq_;
  for (auto& e : nodes_) {
    // Fire any due scheduled cap changes first.
    while (e.schedule_next < e.schedule.size() &&
           e.schedule[e.schedule_next].at_poll <= poll_seq_) {
      set_cap_recorded(e, e.schedule[e.schedule_next].cap_w);
      ++e.schedule_next;
    }
  }
  for (auto& e : nodes_) {
    const auto reading = e.node->power_reading();
    note_exchange(e, reading.has_value());
    if (!reading) continue;
    e.history.push_back({poll_seq_, reading->current_w, reading->average_w});
    e.last_draw_w = std::max(reading->average_w, reading->current_w);
    while (e.history.size() > kHistoryDepth) e.history.pop_front();

    const auto limit = e.node->power_limit();
    if (limit && limit->enabled &&
        reading->current_w > limit->limit_w + kCapViolationToleranceW) {
      if (++e.consecutive_violations >= kViolationPolls) {
        alerts_.push_back(
            {poll_seq_, e.node->name(),
             "cap missed: drawing " + std::to_string(reading->current_w) +
                 " W against a " + std::to_string(limit->limit_w) +
                 " W limit (throttling floor reached)"});
        e.consecutive_violations = 0;
      }
    } else {
      e.consecutive_violations = 0;
    }
  }
}

const std::deque<PowerSample>* DataCenterManager::history(
    const std::string& name) const {
  const Entry* e = find(name);
  return e ? &e->history : nullptr;
}

double DataCenterManager::total_observed_power_w() const {
  double total = 0.0;
  for (const auto& e : nodes_) {
    if (!e.history.empty()) total += e.history.back().current_w;
  }
  return total;
}

std::optional<NodeHealth> DataCenterManager::node_health(
    const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) return std::nullopt;
  return e->health;
}

std::size_t DataCenterManager::health_count(NodeHealth health) const {
  std::size_t n = 0;
  for (const auto& e : nodes_) {
    if (e.health == health) ++n;
  }
  return n;
}

std::optional<double> DataCenterManager::node_applied_cap(
    const std::string& name) const {
  const Entry* e = find(name);
  return e ? e->applied_cap_w : std::nullopt;
}

double DataCenterManager::committed_w() const {
  double total = 0.0;
  for (const auto& e : nodes_) total += e.applied_cap_w.value_or(0.0);
  return total;
}

double DataCenterManager::reserved_w() const {
  double total = 0.0;
  for (const auto& e : nodes_) {
    if (e.health == NodeHealth::kLost) total += e.applied_cap_w.value_or(0.0);
  }
  return total;
}

}  // namespace pcap::core
