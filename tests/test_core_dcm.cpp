// Tests for the Data Center Manager over the full management stack:
// DCM -> IPMI session/transport -> BMC server -> BMC -> node.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/dcm.hpp"
#include "ipmi/commands.hpp"
#include "ipmi/message.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/units.hpp"

namespace pcap::core {
namespace {

struct Slot {
  std::unique_ptr<sim::Node> node;
  std::unique_ptr<Bmc> bmc;
  std::unique_ptr<NodeIpmiServer<Bmc>> server;

  explicit Slot(std::uint64_t seed) {
    node = std::make_unique<sim::Node>(sim::MachineConfig::romley(), seed);
    bmc = std::make_unique<Bmc>(*node);
    server = std::make_unique<NodeIpmiServer<Bmc>>(*bmc);
    node->set_control_hook(
        [b = bmc.get()](sim::PlatformControl&) { b->on_control_tick(); });
  }

  void load(int phases = 4) {
    apps::PhasedParams p;
    p.phases = phases;
    apps::PhasedWorkload w(p);
    node->run(w);
  }
};

class DcmTest : public ::testing::Test {
 protected:
  DcmTest() {
    for (int i = 0; i < 3; ++i) {
      slots_.push_back(std::make_unique<Slot>(static_cast<std::uint64_t>(i + 1)));
      EXPECT_TRUE(
          dcm_.add_node("node-" + std::to_string(i), *slots_.back()->server));
    }
  }
  std::vector<std::unique_ptr<Slot>> slots_;
  DataCenterManager dcm_;
};

TEST_F(DcmTest, DiscoveryAndNames) {
  EXPECT_EQ(dcm_.node_count(), 3u);
  EXPECT_EQ(dcm_.node_names(),
            (std::vector<std::string>{"node-0", "node-1", "node-2"}));
  EXPECT_NE(dcm_.node("node-1"), nullptr);
  EXPECT_EQ(dcm_.node("node-9"), nullptr);
}

TEST_F(DcmTest, RejectsDuplicateName) {
  EXPECT_FALSE(dcm_.add_node("node-0", *slots_[0]->server));
  EXPECT_EQ(dcm_.node_count(), 3u);
}

TEST_F(DcmTest, RejectsDeadTransport) {
  // A link that loses every frame.
  struct Dead final : ipmi::Transport {
    ipmi::Frame transact(std::span<const std::uint8_t>) override { return {}; }
  } dead;
  EXPECT_FALSE(dcm_.add_node("dead", dead));
}

TEST_F(DcmTest, NodeCapRoundTrips) {
  EXPECT_TRUE(dcm_.apply_node_cap("node-0", 135.0));
  ASSERT_TRUE(slots_[0]->bmc->cap().has_value());
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 135.0);
  const auto limit = dcm_.node("node-0")->power_limit();
  ASSERT_TRUE(limit.has_value());
  EXPECT_TRUE(limit->enabled);
  EXPECT_FALSE(dcm_.apply_node_cap("missing", 135.0));
  EXPECT_TRUE(dcm_.apply_node_cap("node-0", std::nullopt));
  EXPECT_FALSE(slots_[0]->bmc->cap().has_value());
}

TEST_F(DcmTest, GroupCapRespectsBudgetAndFloors) {
  for (auto& s : slots_) s->load();
  dcm_.poll();
  const auto applied = dcm_.apply_group_cap(420.0);
  EXPECT_TRUE(applied.complete);
  ASSERT_EQ(applied.caps.size(), 3u);
  for (const auto& [name, cap] : applied.caps) {
    EXPECT_GE(cap, 110.0);  // node floor
  }
  // The caps the BMCs decoded off the wire — not the DCM's book-keeping —
  // fit the budget.
  double enforced = 0.0;
  for (auto& s : slots_) {
    ASSERT_TRUE(s->bmc->cap().has_value());
    enforced += *s->bmc->cap();
  }
  EXPECT_LE(enforced, 420.0 + 1e-6);
  EXPECT_DOUBLE_EQ(dcm_.committed_w(), enforced);
}

TEST_F(DcmTest, GroupCapBelowFloorsRefused) {
  const auto applied = dcm_.apply_group_cap(200.0);  // < 3 x 110 W
  EXPECT_FALSE(applied.complete);
  EXPECT_TRUE(applied.caps.empty());
  EXPECT_FALSE(dcm_.group_budget_w().has_value());
  for (auto& s : slots_) EXPECT_FALSE(s->bmc->cap().has_value());
}

TEST_F(DcmTest, PollBuildsHistory) {
  for (int i = 0; i < 5; ++i) dcm_.poll();
  const auto* history = dcm_.history("node-0");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->size(), 5u);
  EXPECT_EQ(history->back().poll_seq, 5u);
  EXPECT_GT(dcm_.total_observed_power_w(), 3 * 90.0);
  EXPECT_EQ(dcm_.history("missing"), nullptr);
}

TEST_F(DcmTest, HistoryDepthBounded) {
  // The DCM keeps the newest 256 samples per node.
  DataCenterManager dcm;
  dcm.add_node("n", *slots_[0]->server);
  for (int i = 0; i < 300; ++i) dcm.poll();
  const auto* history = dcm.history("n");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->size(), 256u);
  EXPECT_EQ(history->front().poll_seq, 45u);
  EXPECT_EQ(history->back().poll_seq, 300u);
}

TEST_F(DcmTest, AlertsOnThrottlingFloorViolation) {
  // Cap below the platform floor: the BMC saturates, power stays above the
  // cap, and after three consecutive over-cap polls the DCM
  // raises an alert naming the node.
  dcm_.apply_node_cap("node-0", 112.0);
  slots_[0]->load(6);
  for (int i = 0; i < 4; ++i) dcm_.poll();
  ASSERT_FALSE(dcm_.alerts().empty());
  EXPECT_EQ(dcm_.alerts().front().node, "node-0");
  EXPECT_NE(dcm_.alerts().front().message.find("cap missed"),
            std::string::npos);
}

TEST_F(DcmTest, NoAlertsWhenCapsAreMet) {
  dcm_.apply_node_cap("node-1", 150.0);
  slots_[1]->load();
  for (int i = 0; i < 4; ++i) dcm_.poll();
  EXPECT_TRUE(dcm_.alerts().empty());
}

TEST_F(DcmTest, ThrottleStatusVisibleOverIpmi) {
  dcm_.apply_node_cap("node-2", 120.0);
  slots_[2]->load(6);
  const auto status = dcm_.node("node-2")->throttle_status();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->capping_active);
  EXPECT_GT(status->pstate, 0);
}

TEST_F(DcmTest, CapScheduleFiresAtPolls) {
  using Sched = DataCenterManager::ScheduledCap;
  ASSERT_TRUE(dcm_.set_cap_schedule(
      "node-0", {Sched{2, 140.0}, Sched{4, 125.0}, Sched{6, std::nullopt}}));
  dcm_.poll();  // poll 1: nothing yet
  EXPECT_FALSE(slots_[0]->bmc->cap().has_value());
  dcm_.poll();  // poll 2: 140 W
  ASSERT_TRUE(slots_[0]->bmc->cap().has_value());
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 140.0);
  dcm_.poll();
  dcm_.poll();  // poll 4: 125 W
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 125.0);
  dcm_.poll();
  dcm_.poll();  // poll 6: uncapped
  EXPECT_FALSE(slots_[0]->bmc->cap().has_value());
}

TEST_F(DcmTest, CapScheduleValidation) {
  using Sched = DataCenterManager::ScheduledCap;
  EXPECT_FALSE(dcm_.set_cap_schedule("missing", {Sched{1, 130.0}}));
  // Out of order.
  EXPECT_FALSE(
      dcm_.set_cap_schedule("node-0", {Sched{5, 130.0}, Sched{2, 140.0}}));
  // Replacing a schedule works.
  EXPECT_TRUE(dcm_.set_cap_schedule("node-0", {Sched{1, 150.0}}));
  EXPECT_TRUE(dcm_.set_cap_schedule("node-0", {Sched{1, 130.0}}));
  dcm_.poll();
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), 130.0);
}

// --- group budget at every exchange ---------------------------------------

/// Shared by a group's wires: runs `after_set` after every SetPowerLimit
/// exchange and drops the `drop_at`-th SetPowerLimit frame (1-based).
struct CapWatch {
  std::function<void()> after_set;
  int set_limits = 0;
  int drop_at = 0;
};

/// Forwards one node's frames, reporting SetPowerLimit traffic to a watch.
class WatchedTransport final : public ipmi::Transport {
 public:
  WatchedTransport(ipmi::Transport& inner, CapWatch& watch)
      : inner_(inner), watch_(watch) {}

  ipmi::Frame transact(std::span<const std::uint8_t> frame) override {
    ipmi::Request request;
    const bool set_limit =
        ipmi::decode_request(frame, request) &&
        request.command ==
            static_cast<std::uint8_t>(ipmi::Command::kSetPowerLimit);
    if (set_limit && ++watch_.set_limits == watch_.drop_at) return {};
    auto response = inner_.transact(frame);
    if (set_limit && watch_.after_set) watch_.after_set();
    return response;
  }

 private:
  ipmi::Transport& inner_;
  CapWatch& watch_;
};

/// DcmTest's three loaded nodes, every wire watched.
class DcmBudgetTest : public ::testing::Test {
 protected:
  void build(const DcmConfig& config = {}) {
    dcm_ = std::make_unique<DataCenterManager>(config);
    for (int i = 0; i < 3; ++i) {
      slots_.push_back(
          std::make_unique<Slot>(static_cast<std::uint64_t>(i + 1)));
      wires_.push_back(std::make_unique<WatchedTransport>(
          *slots_.back()->server, watch_));
      ASSERT_TRUE(dcm_->add_node("node-" + std::to_string(i), *wires_.back()));
    }
    for (auto& s : slots_) s->load();
    dcm_->poll();
  }

  /// Sum of the caps the BMCs enforce, reachable or not (uncapped nodes
  /// count zero): what the group may draw.
  double enforced_w() const {
    double total = 0.0;
    for (const auto& s : slots_) total += s->bmc->cap().value_or(0.0);
    return total;
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::unique_ptr<WatchedTransport>> wires_;
  CapWatch watch_;
  std::unique_ptr<DataCenterManager> dcm_;
};

TEST_F(DcmBudgetTest, EnforcedCapsStayInBudgetAtEveryExchange) {
  build();
  ASSERT_TRUE(dcm_->apply_group_cap(420.0).complete);
  const double cap0 = *dcm_->node_applied_cap("node-0");
  const double cap2 = *dcm_->node_applied_cap("node-2");

  double bound_w = 420.0;
  double peak_w = 0.0;
  int exchanges = 0;
  watch_.after_set = [&] {
    ++exchanges;
    peak_w = std::max(peak_w, enforced_w());
  };
  // Moving demand onto node-0 (the other two idle) re-splits the same
  // budget: node-0 may rise only once the other nodes' decreases landed.
  apps::ComputeBoundWorkload hot(2000000);
  slots_[0]->node->run(hot);
  for (const std::size_t i : {1u, 2u}) {
    slots_[i]->node->idle_for(util::milliseconds(5.0));
  }
  dcm_->poll();
  EXPECT_TRUE(dcm_->apply_group_cap(bound_w).complete);
  EXPECT_GE(exchanges, 2);
  EXPECT_LE(peak_w, bound_w + 1e-6);
  EXPECT_GT(*dcm_->node_applied_cap("node-0"), cap0);
  EXPECT_LT(*dcm_->node_applied_cap("node-2"), cap2);
  EXPECT_GT(*dcm_->node_applied_cap("node-0"),
            *dcm_->node_applied_cap("node-2") + 5.0);

  // A budget decrease: every exchange stays under the old budget and the
  // round ends under the new one.
  peak_w = 0.0;
  EXPECT_TRUE(dcm_->apply_group_cap(380.0).complete);
  EXPECT_LE(peak_w, bound_w + 1e-6);
  EXPECT_LE(enforced_w(), 380.0 + 1e-6);
}

TEST_F(DcmBudgetTest, EnforcedCapsFitEveryBudgetOnTheWireGrid) {
  // Budgets off the 0.1 W grid: the caps the BMCs decode must still fit.
  build();
  for (int k = 0; k < 109; ++k) {
    const double budget_w = 400.0 + 0.37 * k;
    ASSERT_TRUE(dcm_->apply_group_cap(budget_w).complete) << budget_w;
    EXPECT_LE(enforced_w(), budget_w + 1e-6) << budget_w;
  }
}

TEST_F(DcmBudgetTest, ReportsExactlyTheCapsThatLanded) {
  DcmConfig config;
  config.comms.backoff.max_attempts = 1;  // a dropped frame fails the push
  build(config);
  watch_.drop_at = 2;  // node-1's SetPowerLimit

  const auto partial = dcm_->apply_group_cap(420.0);
  EXPECT_FALSE(partial.complete);
  ASSERT_EQ(partial.caps.size(), 2u);
  for (const std::string& name : dcm_->node_names()) {
    const auto reported = std::find_if(
        partial.caps.begin(), partial.caps.end(),
        [&](const auto& entry) { return entry.first == name; });
    if (reported == partial.caps.end()) {
      EXPECT_FALSE(dcm_->node_applied_cap(name).has_value()) << name;
    } else {
      EXPECT_EQ(dcm_->node_applied_cap(name), reported->second) << name;
    }
  }
  EXPECT_FALSE(dcm_->node_applied_cap("node-1").has_value());

  // Re-issuing finishes the round.
  const auto done = dcm_->apply_group_cap(420.0);
  EXPECT_TRUE(done.complete);
  ASSERT_EQ(done.caps.size(), 3u);
  for (const auto& [name, cap] : done.caps) {
    EXPECT_EQ(dcm_->node_applied_cap(name), cap) << name;
  }
  EXPECT_LE(enforced_w(), 420.0 + 1e-6);
}

TEST(DcmFaulty, SurvivesLossyManagementNetwork) {
  Slot slot(7);
  ipmi::FaultyTransport faulty(
      *slot.server,
      ipmi::FaultSpec{.drop_rate = 0.3, .corrupt_rate = 0.2}, 11);
  DataCenterManager dcm;
  // Discovery may need a few tries over a lossy link.
  bool added = false;
  for (int i = 0; i < 10 && !added; ++i) added = dcm.add_node("n", faulty);
  ASSERT_TRUE(added);
  for (int i = 0; i < 20; ++i) dcm.poll();
  const auto* history = dcm.history("n");
  ASSERT_NE(history, nullptr);
  // Retries with backoff paper over ~44 % per-attempt loss: nearly every
  // poll lands even though individual frames keep failing underneath.
  EXPECT_GT(history->size(), 15u);
  EXPECT_GT(dcm.node("n")->transport_errors(), 0u);
  EXPECT_GT(dcm.node("n")->retries(), 0u);
  EXPECT_GT(dcm.node("n")->backoff_ms_total(), 0.0);
}

}  // namespace
}  // namespace pcap::core
