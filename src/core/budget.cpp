#include "core/budget.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace pcap::core {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

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
    // A child whose (floor, weight, ceiling) matches the previous child's
    // bit for bit gets the same share: every node of a two-tier rack is
    // one of two such triples.
    if (i > 0 && same_bits(floors[i], floors[i - 1]) &&
        same_bits(weights[i], weights[i - 1]) &&
        same_bits(ceilings[i], ceilings[i - 1])) {
      out[i] = out[i - 1];
      continue;
    }
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
