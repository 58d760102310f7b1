// Monte-Carlo stereo matching by simulated annealing (after Shires,
// ARL-TR-667): minimise E(D) = sum of matching cost(x, y, D(x,y)) plus a
// smoothness term over 4-neighbour disparity differences, with Metropolis
// acceptance under a geometric cooling schedule.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/machine.hpp"
#include "apps/stereo/cost_volume.hpp"
#include "util/rng.hpp"

namespace pcap::apps::stereo {

inline constexpr std::uint32_t kAnnealCodeRegion = 6;

struct AnnealParams {
  int sweeps = 6;
  double t0 = 400.0;          // initial temperature (cost-volume units)
  double t_decay = 0.5;       // geometric cooling per sweep
  double lambda = 220.0;      // smoothness weight (cost-volume units)
  int max_proposal_step = 4;  // disparity proposals within +/- this
  std::uint64_t seed = 9;

  static AnnealParams paper() { return AnnealParams{}; }
  static AnnealParams quick() {
    AnnealParams p;
    p.sweeps = 4;
    return p;
  }
};

struct AnnealResult {
  std::vector<std::uint8_t> disparity;
  double final_energy = 0.0;
  std::vector<double> energy_trace;  // total energy after each sweep
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
};

/// Full-image energy under the current disparity field (host arithmetic).
double disparity_energy(const CostVolume& vol,
                        const std::vector<std::uint8_t>& disparity,
                        double lambda);

/// Winner-take-all initialisation: argmin_d cost(x, y, d) per pixel.
template <typename Machine>
std::vector<std::uint8_t> wta_init(Machine& m, const CostVolume& vol,
                                   Address volume_addr) {
  std::vector<std::uint8_t> disparity(
      static_cast<std::size_t>(vol.width) * vol.height, 0);
  // Narration per pixel: the cost scan is one load per 4 disparities — a
  // contiguous 8 B-stride stream over the pixel's cost row — then the
  // comparison arithmetic.
  const std::uint64_t scan_loads =
      vol.disparities > 0
          ? static_cast<std::uint64_t>(vol.disparities - 1) / 4
          : 0;
  for (int y = 0; y < vol.height; ++y) {
    for (int x = 0; x < vol.width; ++x) {
      std::uint16_t best = vol.at(x, y, 0);
      int best_d = 0;
      for (int d = 1; d < vol.disparities; ++d) {
        const std::uint16_t c = vol.at(x, y, d);
        if (c < best) {
          best = c;
          best_d = d;
        }
      }
      disparity[static_cast<std::size_t>(y) * vol.width + x] =
          static_cast<std::uint8_t>(best_d);
      if (scan_loads != 0) {
        const StreamOp scan[1] = {
            {.kind = StreamOp::Kind::kLoad,
             .base = volume_addr + vol.index(x, y, 4) * 2},
        };
        m.pattern_stream(scan, /*stride=*/8, scan_loads, /*uops=*/0);
      }
      m.compute(static_cast<std::uint64_t>(vol.disparities) * 2);
    }
  }
  return disparity;
}

/// One full annealing optimisation, narrated to `m`.
template <typename Machine>
AnnealResult anneal_disparity(Machine& m, const CostVolume& vol,
                              const AnnealParams& params, Address volume_addr,
                              Address disparity_addr) {
  m.set_code_footprint(kAnnealCodeRegion, 7);
  AnnealResult result;
  result.disparity = wta_init(m, vol, volume_addr);
  auto& disp = result.disparity;

  util::Rng rng(params.seed);
  const int w = vol.width;
  const int h = vol.height;
  double temperature = params.t0;

  const std::size_t sites =
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  for (int sweep = 0; sweep < params.sweeps; ++sweep) {
    // Monte-Carlo site visitation: one proposal per pixel per sweep, at
    // uniformly random sites (this is also what makes the cost volume's
    // residency in the L3 — and its eviction under way gating — matter).
    for (std::size_t visit = 0; visit < sites; ++visit) {
      {
        const std::size_t i = rng.below(sites);
        const int x = static_cast<int>(i % static_cast<std::size_t>(w));
        const int y = static_cast<int>(i / static_cast<std::size_t>(w));
        const int d_old = disp[i];
        int step = 1 + static_cast<int>(
                           rng.below(static_cast<std::uint64_t>(
                               params.max_proposal_step)));
        if (rng.chance(0.5)) step = -step;
        int d_new = d_old + step;
        if (d_new < 0 || d_new >= vol.disparities) continue;
        ++result.proposals;

        // Data term.
        m.load(volume_addr + vol.index(x, y, d_old) * 2);
        m.load(volume_addr + vol.index(x, y, d_new) * 2);
        double delta = static_cast<double>(vol.at(x, y, d_new)) -
                       static_cast<double>(vol.at(x, y, d_old));
        // Smoothness term over the 4-neighbourhood.
        const int nx[4] = {x - 1, x + 1, x, x};
        const int ny[4] = {y, y, y - 1, y + 1};
        for (int k = 0; k < 4; ++k) {
          if (nx[k] < 0 || nx[k] >= w || ny[k] < 0 || ny[k] >= h) continue;
          const std::size_t j = static_cast<std::size_t>(ny[k]) * w + nx[k];
          m.load(disparity_addr + j);
          const int dn = disp[j];
          delta += params.lambda *
                   (std::abs(d_new - dn) - std::abs(d_old - dn));
        }
        m.compute(26);

        const bool accept =
            delta <= 0.0 ||
            rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9));
        if (accept) {
          disp[i] = static_cast<std::uint8_t>(d_new);
          m.store(disparity_addr + i);
          ++result.accepted;
        }
      }
    }
    result.energy_trace.push_back(
        disparity_energy(vol, disp, params.lambda));
    temperature *= params.t_decay;
  }
  result.final_energy =
      result.energy_trace.empty() ? 0.0 : result.energy_trace.back();
  return result;
}

/// Fraction of pixels whose disparity is within `tolerance` of truth.
double disparity_accuracy(const std::vector<std::uint8_t>& disparity,
                          const std::vector<std::uint8_t>& truth,
                          int tolerance);

}  // namespace pcap::apps::stereo
