// Data Center Manager analog: a management server that discovers nodes'
// BMCs over IPMI, applies power-capping policies (per-node and group
// budgets), polls power telemetry into history, and raises alerts when an
// enforced cap is being missed (the throttling-floor condition the paper
// observed at 120 W).
//
// The management network is assumed lossy: every transaction retries with
// exponential backoff and deterministic jitter, and each node carries a
// health state machine (healthy -> degraded -> lost -> recovered) driven by
// consecutive failed exchanges. When a node under a group budget goes lost,
// its budget share is conservatively reserved (its BMC keeps enforcing the
// last cap autonomously) and the remainder is redistributed across the
// surviving nodes; recovery restores the full-group split. Group caps go
// through the shared budget discipline (core/budget.hpp), so the caps the
// BMCs enforce — lost nodes' included — never exceed the budget, after
// every single exchange.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace pcap::core {

/// Retry behaviour for one node's IPMI session.
struct NodeCommsConfig {
  util::BackoffPolicy backoff;  // see util/backoff.hpp for defaults
  /// Seeds the per-node jitter stream (mixed with the node name's length
  /// and the registration order by the DCM, so nodes don't march in step).
  std::uint64_t seed = 0x5EED;
};

/// Client-side handle to one node's BMC.
class ManagedNode {
 public:
  ManagedNode(std::string name, ipmi::Transport& transport,
              const NodeCommsConfig& comms = {})
      : name_(std::move(name)),
        session_(transport, util::kRequestTimeoutMs),
        backoff_(comms.backoff),
        rng_(comms.seed) {}

  const std::string& name() const { return name_; }

  // Each call is one logical exchange (transparently retried on transport
  // failures); nullopt / false means every attempt failed.
  std::optional<ipmi::DeviceId> device_id();
  std::optional<ipmi::PowerReading> power_reading();
  std::optional<ipmi::Capabilities> capabilities();
  std::optional<ipmi::PowerLimit> power_limit();
  std::optional<ipmi::ThrottleStatus> throttle_status();
  bool set_cap(std::optional<double> watts);

  /// Wires this handle into the telemetry subsystem: every exchange becomes
  /// a span on an `ipmi:<name>` track, with retry/timeout instants and
  /// backoff spans inside it. `mgmt_clock_ms` is the management-plane clock
  /// the spans are placed on (shared across the DCM's nodes so their
  /// timelines interleave); when null the node keeps a private clock.
  void set_telemetry(telemetry::TraceWriter* trace, double* mgmt_clock_ms);

  /// The management-plane clock: total modelled wire latency plus backoff
  /// delay this node has accumulated (or the shared clock, if attached).
  double clock_ms() const {
    return mgmt_clock_ms_ != nullptr ? *mgmt_clock_ms_ : own_clock_ms_;
  }

  // --- communication accounting ---
  std::uint64_t transport_errors() const { return session_.transport_errors(); }
  std::uint64_t timeouts() const { return session_.timeouts(); }
  std::uint64_t stale_rejections() const { return session_.stale_rejections(); }
  /// Retransmissions performed (attempts beyond the first).
  std::uint64_t retries() const { return retries_; }
  /// Exchanges that failed even after exhausting every attempt.
  std::uint64_t failed_exchanges() const { return failed_exchanges_; }
  /// Total modelled backoff delay spent waiting between retries.
  double backoff_ms_total() const { return backoff_ms_total_; }

 private:
  /// Issues the request, retrying transport-level failures per the backoff
  /// policy. Semantic (completion-code) errors are returned immediately.
  ipmi::Response transact_with_retry(const ipmi::Request& request);

  void advance_clock(double ms) {
    if (mgmt_clock_ms_ != nullptr) {
      *mgmt_clock_ms_ += ms;
    } else {
      own_clock_ms_ += ms;
    }
  }

  std::string name_;
  ipmi::Session session_;
  util::BackoffPolicy backoff_;
  util::Rng rng_;
  std::uint64_t retries_ = 0;
  std::uint64_t failed_exchanges_ = 0;
  double backoff_ms_total_ = 0.0;
  telemetry::TraceWriter* trace_ = nullptr;
  double* mgmt_clock_ms_ = nullptr;
  double own_clock_ms_ = 0.0;
  std::uint32_t trace_track_ = 0;
};

struct PowerSample {
  std::uint64_t poll_seq = 0;
  double current_w = 0.0;
  double average_w = 0.0;
};

struct Alert {
  std::uint64_t poll_seq = 0;
  std::string node;
  std::string message;
};

/// Node reachability as seen by the DCM, and the health of every fleet
/// budget-tree link (fleet::BudgetCoupler): the same FSM. `kRecovered` is
/// the one-exchange transitional state after a lost peer answers again
/// (its budget share has just been restored); the next success settles it
/// back to `kHealthy`.
enum class NodeHealth { kHealthy, kDegraded, kLost, kRecovered };
std::string node_health_name(NodeHealth health);

struct HealthStep {
  NodeHealth health = NodeHealth::kHealthy;
  std::uint32_t consecutive_failures = 0;
};

/// Consecutive failed exchanges before a peer is marked degraded / lost.
inline constexpr std::uint32_t kDegradedAfterFailures = 2;
inline constexpr std::uint32_t kLostAfterFailures = 4;

/// The FSM's one transition, pure: a success resets the failure streak and
/// moves kLost to kRecovered, anything else to kHealthy; a failure extends
/// the streak, loses the peer at kLostAfterFailures failures and degrades a
/// healthy or recovered peer at kDegradedAfterFailures.
HealthStep next_health(NodeHealth health, std::uint32_t consecutive_failures,
                       bool ok);

struct DcmConfig {
  /// Retry behaviour applied to every node session.
  NodeCommsConfig comms;
};

class DataCenterManager {
 public:
  explicit DataCenterManager(const DcmConfig& config = {}) : config_(config) {}

  /// Registers a node reachable through `transport`. Returns false if the
  /// name is taken or the BMC does not answer the discovery probes
  /// (DeviceId + Capabilities) within the retry budget.
  bool add_node(const std::string& name, ipmi::Transport& transport);

  std::size_t node_count() const { return nodes_.size(); }
  ManagedNode* node(const std::string& name);
  std::vector<std::string> node_names() const;

  // --- policies ---
  /// Caps one node; watts == nullopt uncaps. Returns false on unknown node
  /// or a failed transaction.
  bool apply_node_cap(const std::string& name, std::optional<double> watts);

  /// What one group-cap round left on the BMCs.
  struct GroupCapResult {
    /// (node, cap) for each reachable node enforcing its planned cap.
    std::vector<std::pair<std::string, double>> caps;
    /// Every reachable node does; re-issue an incomplete round to finish it.
    bool complete = false;
  };

  /// Distributes a total group budget across all reachable nodes in
  /// proportion to their current demand (measured average power), clamped
  /// to each node's enforceable range. Lost nodes are excluded: what their
  /// BMCs may still draw stays reserved out of the budget. Nothing is pushed when a telemetry read fails or the budget is
  /// below the reachable nodes' floors plus the reservations. Otherwise the
  /// budget is remembered — automatically rebalanced when nodes are lost or
  /// recover — and pushed decreases-first.
  GroupCapResult apply_group_cap(double total_w);

  /// Scheduled capping: each entry fires during the poll whose sequence
  /// number reaches `at_poll` (polls are the DCM's clock), setting or
  /// clearing the node's cap. Models duty-windows on a fielded generator or
  /// a data-center demand-response program. Replaces any prior schedule;
  /// entries must be sorted by at_poll (returns false otherwise or for an
  /// unknown node).
  struct ScheduledCap {
    std::uint64_t at_poll = 0;
    std::optional<double> cap_w;  // nullopt == uncap
  };
  bool set_cap_schedule(const std::string& name,
                        std::vector<ScheduledCap> schedule);

  // --- telemetry ---
  /// Wires the manager (and every registered node handle) into the trace:
  /// exchanges become spans on per-node `ipmi:` tracks placed on a shared
  /// management-plane clock, health-state transitions become instants on a
  /// `dcm` track. Nodes added later are wired automatically.
  void set_telemetry(telemetry::TraceWriter* trace);
  /// Attaches a node's probe so DCM-observed health transitions are stamped
  /// into that node's samples. Returns false for an unknown node.
  bool attach_probe(const std::string& name, telemetry::NodeProbe* probe);
  /// Accumulated management-plane time: modelled wire latency plus backoff
  /// delay across every node session.
  double mgmt_clock_ms() const { return mgmt_clock_ms_; }

  // --- monitoring ---
  /// One monitoring sweep: reads every node's power, appends to history,
  /// updates node health (raising degraded/lost/recovered alerts and
  /// rebalancing any group budget), evaluates cap-violation alerts.
  void poll();

  const std::deque<PowerSample>* history(const std::string& name) const;
  const std::vector<Alert>& alerts() const { return alerts_; }
  std::uint64_t poll_count() const { return poll_seq_; }

  /// Sum of the latest current_w across nodes (0 if never polled).
  double total_observed_power_w() const;

  // --- health & budget introspection ---
  std::optional<NodeHealth> node_health(const std::string& name) const;
  /// Nodes currently in the given state.
  std::size_t health_count(NodeHealth health) const;
  /// The group budget being maintained, if apply_group_cap succeeded.
  std::optional<double> group_budget_w() const { return group_budget_w_; }
  /// The cap this DCM last successfully applied to the node (what its BMC
  /// is enforcing, reachable or not). nullopt = uncapped or unknown node.
  std::optional<double> node_applied_cap(const std::string& name) const;
  /// Sum of the caps the BMCs enforce, lost nodes included (an uncapped
  /// node holds none) — fleet::BudgetCoupler::committed_w's accounting.
  double committed_w() const;
  /// The part of committed_w() held by lost nodes.
  double reserved_w() const;

 private:
  struct Entry {
    std::unique_ptr<ManagedNode> node;
    std::deque<PowerSample> history;
    std::uint32_t consecutive_violations = 0;
    std::vector<ScheduledCap> schedule;
    std::size_t schedule_next = 0;
    NodeHealth health = NodeHealth::kHealthy;
    telemetry::NodeProbe* probe = nullptr;
    std::uint32_t consecutive_failures = 0;
    std::optional<double> applied_cap_w;  // last cap that landed on the BMC
    std::optional<double> last_draw_w;    // max(average, current), latest
    ipmi::Capabilities caps;              // cached at discovery / group apply
  };

  Entry* find(const std::string& name);
  const Entry* find(const std::string& name) const;

  /// Applies a cap through the node handle, recording it on success.
  bool set_cap_recorded(Entry& e, std::optional<double> watts);
  /// Advances the health machine after one poll exchange with `e`.
  void note_exchange(Entry& e, bool ok);
  /// Budget a lost node is assumed to hold: its enforced cap if it has
  /// one, else its last observed draw, else its full capability ceiling.
  double reserved_for(const Entry& e) const;
  /// The one group planner (apply and rebalance): reserves for lost
  /// nodes, divides the rest over the reachable ones (weights = last draw,
  /// on the wire grid) and pushes it decreases-first. When the reachable
  /// floors do not fit, nothing is pushed — unless `pin_floors`, which pins
  /// every reachable node at its floor instead.
  GroupCapResult push_group_split(double total_w, bool pin_floors);
  /// Marks a health transition: trace instant + probe annotation.
  void note_health_change(Entry& e);

  DcmConfig config_;
  std::vector<Entry> nodes_;
  std::vector<Alert> alerts_;
  std::uint64_t poll_seq_ = 0;
  std::optional<double> group_budget_w_;
  telemetry::TraceWriter* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
  double mgmt_clock_ms_ = 0.0;
};

}  // namespace pcap::core
