// The one budget discipline shared by every management plane — the DCM
// group budget, the rack scheduler and each level of the fleet budget tree
// (DESIGN.md §8, §14): a deterministic floor + weighted-surplus division,
// and a decreases-first push that never lets the enforced sum overshoot.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace pcap::core {

/// Floors a watt value onto an `grid_w` grid (0 → the 0.1 W IPMI wire
/// grid). Division results always round *down* so quantization can never
/// push a sum over budget.
double quantize_watts(double watts, double grid_w);

/// Divides `budget_w` across children: every child gets its floor, the
/// surplus splits in proportion to `weights`, each share clamps to the
/// child's ceiling, and the part above the floor rounds down onto the
/// `grid_w` grid (coarse grids keep the set of distinct child budgets — and
/// hence distinct chunk-memo keys — small at fleet scale). Writes one
/// budget per child into `out` (a caller-owned buffer, so a control loop
/// reuses its capacity) with sum(out) <= budget_w and returns true; returns
/// false with `out` empty when the division is infeasible (budget below the
/// floor sum): infeasible divisions are rejected whole, never partially
/// applied.
bool divide_budget(double budget_w, std::span<const double> floors,
                   std::span<const double> weights,
                   std::span<const double> ceilings, double grid_w,
                   std::vector<double>& out);

/// What one decreases-first push round did.
struct PushOutcome {
  std::size_t pushes = 0;    // exchanges issued
  std::size_t failures = 0;  // exchanges that failed after retries
  /// A decrease failed or was granted above its target, so every increase
  /// was held back: the headroom it would spend is not real yet.
  bool increases_withheld = false;
};

/// Moves children from what they enforce (`granted`, updated in place with
/// every acked grant) toward `targets`: every decrease first, in index
/// order, then every increase — only once every decrease landed at or
/// under its target (+`tolerance_w`). Targets within `epsilon_w` of the
/// grant are not pushed (a child left alone gets its grant as target; an
/// uncapped one is granted +inf). `push(i, watts)` is one exchange: the
/// grant the child now guarantees, or nullopt when it failed. The granted
/// sum never exceeds max(sum(granted), sum(targets)) + tolerance mid-round.
template <typename PushFn>
PushOutcome push_decreases_first(std::span<const double> targets,
                                 std::span<double> granted, double epsilon_w,
                                 double tolerance_w, PushFn&& push) {
  PushOutcome out;
  bool decreases_landed = true;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] >= granted[i] - epsilon_w) continue;
    ++out.pushes;
    const std::optional<double> grant = push(i, targets[i]);
    if (grant) granted[i] = *grant;  // a failed child keeps its old grant
    if (!grant) ++out.failures;
    if (!grant || *grant > targets[i] + tolerance_w) decreases_landed = false;
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] <= granted[i] + epsilon_w) continue;
    if (!decreases_landed) {
      out.increases_withheld = true;
      continue;
    }
    ++out.pushes;
    // Book the grant as-is: a child whose own subtree is mid-convergence
    // may guarantee more than asked.
    const std::optional<double> grant = push(i, targets[i]);
    if (grant) granted[i] = *grant;
    if (!grant) ++out.failures;
  }
  return out;
}

}  // namespace pcap::core
