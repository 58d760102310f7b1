// Tests for the shared budget discipline (core/budget.hpp): the floor +
// weighted-surplus division and the decreases-first push every management
// plane (DCM group budget, rack scheduler, fleet budget tree) runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/budget.hpp"
#include "util/rng.hpp"

namespace pcap::core {
namespace {

constexpr double kTol = 1e-3;

// ---------------------------------------------------------------------------
// divide_budget properties
// ---------------------------------------------------------------------------

TEST(Budget, DivideConservesAndRespectsBounds) {
  util::Rng rng(0xB07);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    std::vector<double> floors(n), weights(n), ceilings(n);
    double floor_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      floors[i] = 50.0 + 10.0 * static_cast<double>(rng.below(10));
      ceilings[i] = floors[i] + rng.uniform(0.0, 300.0);
      weights[i] = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.1, 4.0);
      floor_sum += floors[i];
    }
    const double budget = floor_sum + rng.uniform(0.0, 150.0 * n);
    const double grid = rng.uniform() < 0.5 ? 0.0 : 8.0;
    std::vector<double> out;
    ASSERT_TRUE(divide_budget(budget, floors, weights, ceilings, grid, out));
    ASSERT_EQ(out.size(), n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(out[i], floors[i] - kTol);
      EXPECT_LE(out[i], std::max(floors[i], ceilings[i]) + kTol);
      sum += out[i];
    }
    // Quantization always rounds down, so the division can never overspend.
    EXPECT_LE(sum, budget + kTol);
  }
}

TEST(Budget, InfeasibleDivisionRejectedWhole) {
  const std::vector<double> floors{110.0, 110.0, 110.0};
  const std::vector<double> weights{1.0, 1.0, 1.0};
  const std::vector<double> ceilings{400.0, 400.0, 400.0};
  std::vector<double> out{1.0};
  EXPECT_FALSE(divide_budget(329.0, floors, weights, ceilings, 0.0, out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(divide_budget(330.0, floors, weights, ceilings, 0.0, out));
  ASSERT_EQ(out.size(), 3u);
  // The caller's buffer is reused: a second division overwrites, never
  // appends.
  EXPECT_TRUE(divide_budget(400.0, floors, weights, ceilings, 0.0, out));
  ASSERT_EQ(out.size(), 3u);
}

TEST(Budget, DivisionLandsOnWireGrid) {
  // grid_w = 0 still quantizes onto the 0.1 W IPMI fixed-point grid, so a
  // budget round-trips the u16/u32 wire encoding unchanged.
  util::Rng rng(0x11E);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.below(7);
    const std::vector<double> floors(n, 110.0);
    const std::vector<double> ceilings(n, 400.0);
    std::vector<double> weights(n);
    for (auto& w : weights) w = rng.uniform(0.0, 3.0);
    const double budget = 110.0 * n + rng.uniform(0.0, 290.0 * n);
    std::vector<double> out;
    ASSERT_TRUE(divide_budget(budget, floors, weights, ceilings, 0.0, out));
    for (const double w : out) {
      EXPECT_NEAR(w * 10.0, std::round(w * 10.0), 1e-6) << w;
    }
  }
}

// ---------------------------------------------------------------------------
// push_decreases_first
// ---------------------------------------------------------------------------

/// Scripted children: records the push order and the granted sum after
/// every exchange; `fail` marks children whose exchanges fail, `overgrant`
/// adds watts to the grant a child acks.
struct Children {
  std::vector<double> granted;
  std::vector<bool> fail;
  std::vector<double> overgrant;
  std::vector<std::size_t> order;
  double peak_sum_w = 0.0;

  explicit Children(std::vector<double> initial)
      : granted(std::move(initial)),
        fail(granted.size(), false),
        overgrant(granted.size(), 0.0) {}

  PushOutcome push(const std::vector<double>& targets, double epsilon_w) {
    return push_decreases_first(
        targets, granted, epsilon_w, kTol,
        [this](std::size_t i, double watts) -> std::optional<double> {
          order.push_back(i);
          if (fail[i]) return std::nullopt;
          double sum = watts + overgrant[i];
          for (std::size_t j = 0; j < granted.size(); ++j) {
            if (j != i) sum += granted[j];
          }
          peak_sum_w = std::max(peak_sum_w, sum);
          return watts + overgrant[i];
        });
  }
};

TEST(Budget, PushSendsEveryDecreaseBeforeAnyIncrease) {
  // Child 0 rises, children 1 and 2 fall: registration order would raise
  // child 0 first and overshoot the 420 W the targets sum to.
  Children c({140.0, 140.0, 140.0});
  const PushOutcome out = c.push({180.0, 120.0, 120.0}, 0.05);
  EXPECT_EQ(c.order, (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(out.pushes, 3u);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_FALSE(out.increases_withheld);
  EXPECT_EQ(c.granted, (std::vector<double>{180.0, 120.0, 120.0}));
  EXPECT_LE(c.peak_sum_w, 420.0 + kTol);
}

TEST(Budget, PushWithholdsIncreasesUntilDecreasesLand) {
  Children failed({140.0, 140.0, 140.0});
  failed.fail[1] = true;
  PushOutcome out = failed.push({180.0, 120.0, 120.0}, 0.05);
  EXPECT_EQ(failed.order, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(out.failures, 1u);
  EXPECT_TRUE(out.increases_withheld);
  // The failed child keeps enforcing its old grant; nothing rose.
  EXPECT_EQ(failed.granted, (std::vector<double>{140.0, 140.0, 120.0}));

  // A decrease acked above its target (a subtree still converging) also
  // holds the increases back; one within the tolerance does not.
  Children over({140.0, 140.0});
  over.overgrant[1] = 5.0;
  out = over.push({150.0, 130.0}, 0.05);
  EXPECT_TRUE(out.increases_withheld);
  EXPECT_EQ(over.granted, (std::vector<double>{140.0, 135.0}));

  Children close({140.0, 140.0});
  close.overgrant[1] = kTol / 2.0;
  out = close.push({150.0, 130.0}, 0.05);
  EXPECT_FALSE(out.increases_withheld);
  EXPECT_EQ(close.order, (std::vector<std::size_t>{1, 0}));
}

TEST(Budget, PushSkipsChangesWithinEpsilonAndTreatsUncappedAsDecrease) {
  const double inf = std::numeric_limits<double>::infinity();
  Children c({140.0, 140.0, inf, inf});
  // Child 3's target is its grant (+inf): left alone, like a lost node.
  const PushOutcome out = c.push({140.04, 139.96, 130.0, inf}, 0.05);
  EXPECT_EQ(c.order, (std::vector<std::size_t>{2}));
  EXPECT_EQ(out.pushes, 1u);
  EXPECT_EQ(c.granted[0], 140.0);
  EXPECT_EQ(c.granted[1], 140.0);
  EXPECT_EQ(c.granted[2], 130.0);
  EXPECT_EQ(c.granted[3], inf);

  // The same deltas clear a smaller epsilon.
  Children fine({140.0, 140.0});
  EXPECT_EQ(fine.push({140.04, 139.96}, 1e-6).pushes, 2u);
  EXPECT_EQ(fine.order, (std::vector<std::size_t>{1, 0}));
}

TEST(Budget, PushNeverOvershootsWhateverFails) {
  // Property: with targets and grants inside a budget, the granted sum
  // stays inside it after every exchange, for any pattern of failures.
  util::Rng rng(0x9E5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(10);
    std::vector<double> initial(n), targets(n);
    for (std::size_t i = 0; i < n; ++i) {
      initial[i] = 110.0 + 0.1 * static_cast<double>(rng.below(900));
      targets[i] = 110.0 + 0.1 * static_cast<double>(rng.below(900));
    }
    double initial_sum = 0.0, target_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      initial_sum += initial[i];
      target_sum += targets[i];
    }
    Children c(initial);
    for (std::size_t i = 0; i < n; ++i) c.fail[i] = rng.uniform() < 0.25;
    const PushOutcome out = c.push(targets, 0.05);
    EXPECT_LE(c.peak_sum_w, std::max(initial_sum, target_sum) + kTol);
    std::size_t failed = 0;
    for (std::size_t i : c.order) failed += c.fail[i] ? 1 : 0;
    EXPECT_EQ(out.failures, failed);
    EXPECT_EQ(out.pushes, c.order.size());
  }
}

}  // namespace
}  // namespace pcap::core
