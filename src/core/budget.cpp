#include "core/budget.hpp"

#include <algorithm>
#include <cmath>

namespace pcap::core {

double quantize_watts(double watts, double grid_w) {
  const double grid = grid_w > 0.0 ? grid_w : 0.1;
  return std::floor(watts / grid + 1e-9) * grid;
}

bool divide_budget(double budget_w, std::span<const double> floors,
                   std::span<const double> weights,
                   std::span<const double> ceilings, double grid_w,
                   std::vector<double>& out) {
  const std::size_t n = floors.size();
  out.clear();
  if (n == 0) return true;

  double floor_sum = 0.0;
  for (double f : floors) floor_sum += f;
  if (budget_w + 1e-9 < floor_sum) return false;  // infeasible: reject whole

  double weight_sum = 0.0;
  for (double w : weights) weight_sum += std::max(w, 0.0);

  const double surplus = budget_w - floor_sum;
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double share = floors[i];
    if (weight_sum > 0.0) {
      share += surplus * std::max(weights[i], 0.0) / weight_sum;
    }
    share = std::min(share, ceilings[i]);
    // Quantize the whole cap onto the grid (at least the 0.1 W wire grid,
    // so a budget survives the fixed-point encoding unchanged) so equal
    // shares land on the same bit pattern fleet-wide, but never dip below
    // the floor.
    out[i] = std::max(floors[i], quantize_watts(share, grid_w));
  }
  return true;
}

}  // namespace pcap::core
