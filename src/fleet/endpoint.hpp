// The budget-tree wire endpoints. A BudgetHolder is anything that can
// adopt a budget target and report status (a RackManager, a mid-tree
// BudgetGroup, a synthetic leaf in tests); BudgetEndpointServer exposes a
// holder over the IPMI message layer (SetRackBudget / GetRackStatus
// frames) as the child's end of its link, and BudgetClient is the
// parent-side ChildLink
// that speaks to it through any ipmi::Transport — so FaultyTransport's
// drop/dup/corrupt/partition applies to rack and datacenter hops exactly
// as it does to node BMC links.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fleet/coupler.hpp"
#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"
#include "util/backoff.hpp"

namespace pcap::fleet {

/// Anything that can sit below a budget-tree hop.
class BudgetHolder {
 public:
  virtual ~BudgetHolder() = default;

  /// Adopts a new budget target and returns the grant: the budget this
  /// holder guarantees after its synchronous decreases-first round —
  /// target for an increase, max(target, committed) for a decrease still
  /// converging.
  virtual double set_budget_target(double watts) = 0;

  virtual ipmi::RackStatus status() = 0;
};

/// Serves one BudgetHolder over IPMI frames (the rack/pod analog of
/// core::NodeIpmiServer), as a Transport a BudgetClient binds to directly.
/// Unknown commands get kInvalidCommand, malformed payloads
/// kRequestDataInvalid — same contract the node server keeps.
class BudgetEndpointServer final : public ipmi::Transport {
 public:
  explicit BudgetEndpointServer(BudgetHolder& holder) : holder_(&holder) {}

  ipmi::Frame transact(std::span<const std::uint8_t> frame) override;

 private:
  ipmi::Response handle(const ipmi::Request& request);

  BudgetHolder* holder_;
};

/// Parent-side handle to a BudgetHolder across a (possibly faulty)
/// transport: a ChildLink whose exchanges retry up to the backoff policy's
/// attempt limit. It keeps no management clock, so a retry waits for
/// nothing.
class BudgetClient : public ChildLink {
 public:
  explicit BudgetClient(ipmi::Transport& transport,
                        util::BackoffPolicy backoff = {})
      : session_(transport, util::kRequestTimeoutMs), backoff_(backoff) {}

  /// Fetches status once (with retries) to learn floor/ceiling. Call
  /// before wiring into a coupler; returns false if the child never
  /// answered.
  bool attach();

  std::optional<double> push_budget(double watts) override;
  std::optional<double> poll_demand() override;
  double floor_w() const override { return status_.floor_w; }
  double ceiling_w() const override { return status_.ceiling_w; }

  /// Last successfully fetched status (poll_demand refreshes it).
  const ipmi::RackStatus& last_status() const { return status_; }

  std::uint64_t retries() const { return retries_; }
  std::uint64_t failed_exchanges() const { return failed_exchanges_; }

 private:
  ipmi::Response transact_with_retry(const ipmi::Request& request);

  ipmi::Session session_;
  util::BackoffPolicy backoff_;
  ipmi::RackStatus status_;
  std::uint64_t retries_ = 0;
  std::uint64_t failed_exchanges_ = 0;
};

/// A mid-tree aggregation level: holds a coupler over child BudgetClients
/// and is itself a BudgetHolder, so trees of any depth compose from the
/// same pieces (holder <- server <- [faulty transport] <- client <- coupler).
/// The randomized-topology tests build their trees from it; the datacenter
/// root is not one (it holds its own BudgetCoupler over its racks).
class BudgetGroup : public BudgetHolder {
 public:
  /// The child must have been attach()ed (floor/ceiling known). The
  /// initial grant is the child's boot-state budget: its floor.
  void add_child(BudgetClient* child);

  /// One full control round against this group's current target.
  CouplerRound run_round() { return coupler_.run_round(target_w_); }

  // BudgetHolder: a pushed decrease converges synchronously as far as the
  // children allow; increases wait for the next run_round.
  double set_budget_target(double watts) override;
  ipmi::RackStatus status() override;

  void set_target(double watts) { target_w_ = watts; }
  double target_w() const { return target_w_; }
  double enforced_w() const;
  BudgetCoupler& coupler() { return coupler_; }

 private:
  BudgetCoupler coupler_;
  std::vector<BudgetClient*> children_;
  double target_w_ = 0.0;
  double floor_w_ = 0.0;
  double ceiling_w_ = 0.0;
};

}  // namespace pcap::fleet
