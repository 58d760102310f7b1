#include "apps/stride/stride.hpp"

#include <algorithm>

#include "sim/execution_context.hpp"

namespace pcap::apps::stride {

std::vector<std::uint64_t> StrideResults::array_sizes() const {
  std::vector<std::uint64_t> sizes;
  for (const auto& c : cells) sizes.push_back(c.array_bytes);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

std::vector<std::uint64_t> StrideResults::strides() const {
  std::vector<std::uint64_t> strides;
  for (const auto& c : cells) strides.push_back(c.stride_bytes);
  std::sort(strides.begin(), strides.end());
  strides.erase(std::unique(strides.begin(), strides.end()), strides.end());
  return strides;
}

double StrideResults::ns(std::uint64_t array_bytes,
                         std::uint64_t stride_bytes) const {
  for (const auto& c : cells) {
    if (c.array_bytes == array_bytes && c.stride_bytes == stride_bytes) {
      return c.ns_per_access;
    }
  }
  return -1.0;
}

HierarchyInference infer_hierarchy(const StrideResults& results) {
  HierarchyInference inf;
  const auto sizes = results.array_sizes();
  if (sizes.empty()) return inf;

  // Capacities and level latencies from the 64 B-stride column: each level
  // boundary appears as a >=1.45x latency jump between consecutive sizes,
  // and the last size of each plateau gives that level's clean latency.
  constexpr std::uint64_t kLineStride = 64;
  std::vector<std::pair<std::uint64_t, double>> column;
  for (auto size : sizes) {
    const double ns = results.ns(size, kLineStride);
    if (ns >= 0.0) column.emplace_back(size, ns);
  }
  if (column.empty()) return inf;

  std::vector<std::size_t> jumps;  // index of the first size past a level
  for (std::size_t i = 1; i < column.size(); ++i) {
    if (column[i].second > column[i - 1].second * 1.45) jumps.push_back(i);
  }
  inf.l1_ns = column.front().second;
  if (jumps.size() > 0) {
    inf.l1_fits_bytes = column[jumps[0] - 1].first;
    const std::size_t plateau_end = jumps.size() > 1 ? jumps[1] - 1 : column.size() - 1;
    inf.l2_ns = column[plateau_end].second;
  }
  if (jumps.size() > 1) {
    inf.l2_fits_bytes = column[jumps[1] - 1].first;
    const std::size_t plateau_end = jumps.size() > 2 ? jumps[2] - 1 : column.size() - 1;
    inf.l3_ns = column[plateau_end].second;
  }
  if (jumps.size() > 2) {
    inf.l3_fits_bytes = column[jumps[2] - 1].first;
    inf.mem_ns = column.back().second;
  }

  // Line size from a stride profile: latency grows with stride until one
  // access per line, then levels off. Use the largest array that carries
  // fine-grained stride data.
  std::uint64_t big = 0;
  for (auto size : sizes) {
    if (results.ns(size, 8) >= 0.0) big = size;
  }
  for (std::uint64_t stride = 8; stride * 2 <= 1024; stride *= 2) {
    const double now = results.ns(big, stride);
    const double next = results.ns(big, stride * 2);
    if (now > 0.0 && next > 0.0 && next / now < 1.2) {
      inf.line_bytes = static_cast<std::uint32_t>(stride);
      break;
    }
  }
  return inf;
}

StrideWorkload::StrideWorkload(const StrideConfig& config) : config_(config) {}

void StrideWorkload::run(sim::ExecutionContext& ctx) {
  results_.cells.clear();
  // The probe loop is a few instructions: a single code page. Prime the
  // instruction cache so small cells measure data access time only.
  ctx.set_code_footprint(/*region=*/7, /*pages=*/1);
  ctx.compute(2048);
  const sim::Address base = ctx.alloc(config_.max_array_bytes);
  using StreamOp = sim::ExecutionContext::StreamOp;
  const StreamOp x_inc[2] = {
      {.kind = StreamOp::Kind::kLoad, .base = base},
      {.kind = StreamOp::Kind::kStore, .base = base},
  };

  for (std::uint64_t array = config_.min_array_bytes;
       array <= config_.max_array_bytes; array *= 2) {
    for (std::uint64_t stride = config_.min_stride_bytes; stride <= array / 2;
         stride *= 2) {
      // The paper's loop: for (i = 0; i < size; i += stride) x[i]++,
      // repeated. Whole passes over the array (never a cached prefix);
      // enough repeats to reach the per-cell touch budget.
      const std::uint64_t walk = array / stride;
      const std::uint64_t reps =
          std::max<std::uint64_t>(1, config_.touches_per_cell / walk);
      // Untimed warmup pass so the timed passes measure the steady state
      // (the published curves are steady-state plateaus). Each element is
      // x[i]++ — one load and one store of the element plus the increment —
      // batched through the stream API.
      ctx.pattern_stream(x_inc, static_cast<std::int64_t>(stride), walk,
                         /*uops=*/2);
      const util::Picoseconds start = ctx.now();
      for (std::uint64_t r = 0; r < reps; ++r) {
        ctx.pattern_stream(x_inc, static_cast<std::int64_t>(stride), walk,
                           /*uops=*/2);
      }
      const util::Picoseconds elapsed = ctx.now() - start;
      StrideCell cell;
      cell.array_bytes = array;
      cell.stride_bytes = stride;
      // Per element touched, as the paper's figures report (the store
      // retires through the store buffer, off the critical path).
      cell.ns_per_access =
          util::to_nanoseconds(elapsed) / static_cast<double>(walk * reps);
      results_.cells.push_back(cell);
    }
  }
}

}  // namespace pcap::apps::stride
