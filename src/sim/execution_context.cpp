#include "sim/execution_context.hpp"

#include "sim/node.hpp"

namespace pcap::sim {

namespace {
constexpr Address kDataBase = 0x1'0000'0000ull;  // simulated heap
constexpr Address kCodeBase = 0x0040'0000ull;    // simulated text segment
constexpr Address kCodeRegionStride = 0x0100'0000ull;  // 16 MB per region
constexpr Address kSpaceStride = 0x100'0000'0000ull;   // 1 TB per core
}  // namespace

ExecutionContext::ExecutionContext(MemoryHierarchy& hierarchy, CoreModel& core,
                                   TickSink& sink, const MachineConfig& config,
                                   std::uint32_t address_space)
    : hierarchy_(&hierarchy),
      core_(&core),
      sink_(&sink),
      space_offset_(static_cast<Address>(address_space) * kSpaceStride),
      data_break_(kDataBase + space_offset_),
      code_base_(kCodeBase + space_offset_),
      fetch_ptr_(code_base_),
      ins_per_fetch_(config.core.ins_per_fetch),
      line_bytes_(config.hierarchy.l1i.line_bytes),
      data_line_bytes_(config.hierarchy.l1d.line_bytes),
      l1_hit_cycles_(config.hierarchy.l1_hit_cycles),
      mispredict_penalty_cycles_(config.core.mispredict_penalty_cycles) {}

ExecutionContext::ExecutionContext(Node& node)
    : ExecutionContext(node.hierarchy(), node.core(), node, node.config()) {}

Address ExecutionContext::alloc(std::uint64_t bytes, std::string_view label) {
  (void)label;
  const Address base = data_break_;
  const std::uint64_t aligned = (bytes + 63) & ~63ull;
  data_break_ += aligned;
  return base;
}

void ExecutionContext::set_code_footprint(std::uint32_t region,
                                          std::uint32_t pages) {
  if (pages == 0) pages = 1;
  code_pages_ = pages;
  code_base_ = kCodeBase + space_offset_ +
               static_cast<Address>(region) * kCodeRegionStride;
  fetch_ptr_ = code_base_;
}

void ExecutionContext::retire_fetches(std::uint64_t committed) {
  fetch_accum_ += committed;
  const std::uint64_t fetches = fetch_accum_ / ins_per_fetch_;
  if (fetches == 0) return;
  fetch_accum_ %= ins_per_fetch_;
  const Address span = static_cast<Address>(code_pages_) * 4096ull;
  for (std::uint64_t i = 0; i < fetches; ++i) {
    const AccessLatency lat =
        hierarchy_->access(fetch_ptr_, AccessType::kFetch);
    core_->fetch_op(lat, l1_hit_cycles_);
    fetch_ptr_ += line_bytes_;
    if (fetch_ptr_ >= code_base_ + span) fetch_ptr_ = code_base_;
  }
}

std::uint64_t ExecutionContext::fetch_bound(std::uint64_t n,
                                            std::uint64_t ins_per_op) const {
  // The group's instructions are numbered 1..n*ins_per_op; fetch t fires
  // on instruction t*ins_per_fetch_ - fetch_accum_. One that fires on the
  // last instruction retires in its per-op slot anyway.
  const MemoryHierarchy& h = *hierarchy_;
  const Address end = code_base_ + static_cast<Address>(code_pages_) * 4096ull;
  Address ptr = fetch_ptr_;
  for (std::uint64_t at = ins_per_fetch_ - fetch_accum_; at < n * ins_per_op;
       at += ins_per_fetch_) {
    if (!h.l1i().is_mru_hit(ptr) || !h.itlb().contains(ptr)) {
      return at / ins_per_op;
    }
    ptr += line_bytes_;
    if (ptr >= end) ptr = code_base_;
  }
  return n;
}

void ExecutionContext::load(Address addr) {
  const AccessLatency lat = hierarchy_->access(addr, AccessType::kLoad);
  core_->memory_op(lat, /*is_store=*/false);
  retire_fetches(1);
  sink_->on_op();
}

void ExecutionContext::store(Address addr) {
  const AccessLatency lat = hierarchy_->access(addr, AccessType::kStore);
  core_->memory_op(lat, /*is_store=*/true);
  retire_fetches(1);
  sink_->on_op();
}

void ExecutionContext::compute(std::uint64_t uops) {
  core_->compute(uops);
  retire_fetches(uops);
  sink_->on_op();
}

namespace {
// How many of addr+stride, addr+2*stride, ... (at most `remaining`) stay on
// the cache line holding addr.
std::uint64_t same_line_run(Address addr, std::int64_t stride,
                            std::uint64_t remaining,
                            std::uint32_t line_bytes) {
  if (remaining == 0) return 0;
  if (stride == 0) return remaining;
  const Address offset = addr & (line_bytes - 1);
  std::uint64_t room;
  if (stride > 0) {
    room = (line_bytes - 1 - offset) / static_cast<std::uint64_t>(stride);
  } else {
    room = offset / static_cast<std::uint64_t>(-stride);
  }
  return room < remaining ? room : remaining;
}
}  // namespace

void ExecutionContext::unit_stream(Address base, std::int64_t stride,
                                   std::uint64_t count, bool is_store) {
  const AccessType type = is_store ? AccessType::kStore : AccessType::kLoad;
  Address addr = base;
  std::uint64_t i = 0;
  while (i < count) {
    // Lead op of each line: the full-fidelity path (may miss anywhere).
    if (is_store) {
      store(addr);
    } else {
      load(addr);
    }
    ++i;
    std::uint64_t run = same_line_run(addr, stride, count - i,
                                      data_line_bytes_);
    addr += static_cast<Address>(stride);
    while (run > 0) {
      // A bulk sub-run may elide per-op sink calls only while every op is
      // guaranteed to finish before the sink's horizon, and may span only
      // I-fetches that can retire after it (fetch_bound).
      const util::Picoseconds horizon = sink_->op_horizon();
      const util::Picoseconds now = core_->now();
      std::uint64_t n = 0;
      if (horizon > now) {
        // Conservative per-op time bound: an L1 hit plus a possible
        // mispredict penalty, duty-inflated, rounded up.
        const util::Picoseconds period = core_->cycle_period();
        const auto ub_ps =
            static_cast<util::Picoseconds>(
                static_cast<double>(
                    (l1_hit_cycles_ + mispredict_penalty_cycles_) * period) /
                core_->duty()) +
            3;
        n = (horizon - now) / ub_ps;
      }
      if (n > run) n = run;
      n = fetch_bound(n, 1);
      AccessLatency rep;
      if (n < 2 || !hierarchy_->try_fast_repeat(addr, type, n, rep)) {
        // Horizon too close, a fetch that must fire in its slot, or no
        // provable hit: one op at full fidelity, then retry the remainder
        // of the run.
        if (is_store) {
          store(addr);
        } else {
          load(addr);
        }
        ++i;
        --run;
        addr += static_cast<Address>(stride);
        continue;
      }
      core_->memory_op_repeat(rep, is_store, n);
      retire_fetches(n);
      sink_->on_op();
      i += n;
      run -= n;
      addr += static_cast<Address>(stride) * n;
    }
  }
}

void ExecutionContext::load_stream(Address base, std::int64_t stride,
                                   std::uint64_t count) {
  unit_stream(base, stride, count, /*is_store=*/false);
}

void ExecutionContext::store_stream(Address base, std::int64_t stride,
                                    std::uint64_t count) {
  unit_stream(base, stride, count, /*is_store=*/true);
}

void ExecutionContext::pattern_stream(std::span<const StreamOp> ops,
                                      std::int64_t stride, std::uint64_t count,
                                      std::uint64_t uops) {
  if (ops.size() == 1 && uops == 0) {
    unit_stream(ops[0].base, stride, count,
                ops[0].kind == StreamOp::Kind::kStore);
    return;
  }
  Address offset = 0;
  for (std::uint64_t k = 0; k < count;
       ++k, offset += static_cast<Address>(stride)) {
    // The sink call is elided while the clock provably stays below the
    // horizon (on_op() would be a no-op there); once an op reaches it, the
    // call happens in exactly the per-op slot it would have originally.
    util::Picoseconds horizon = sink_->op_horizon();
    for (const StreamOp& op : ops) {
      const bool is_store = op.kind == StreamOp::Kind::kStore;
      const AccessLatency lat = hierarchy_->access(
          op.base + offset, is_store ? AccessType::kStore : AccessType::kLoad);
      core_->memory_op(lat, is_store);
      retire_fetches(1);
      if (core_->now() >= horizon) {
        sink_->on_op();
        horizon = 0;  // a tick may have moved it; stay exact for the rest
      }
    }
    if (uops != 0) {
      core_->compute(uops);
      retire_fetches(uops);
      if (core_->now() >= horizon) sink_->on_op();
    }
  }
}

void ExecutionContext::rmw_stream(Address base, std::int64_t stride,
                                  std::uint64_t count, std::uint64_t uops) {
  // Per element: load(addr); store(addr); compute(uops) when uops != 0.
  // Elements whose address stays on one line bulk through rmw_repeat under
  // the same constraints as unit_stream: every I-fetch firing inside a bulk
  // group must be one that can retire after it (fetch_bound) and every
  // elided sink call must provably be a no-op (horizon bound).
  const std::uint64_t ins_per_elem = 2 + uops;
  Address addr = base;
  std::uint64_t k = 0;
  while (k < count) {
    load(addr);
    store(addr);
    if (uops != 0) compute(uops);
    ++k;
    std::uint64_t run = same_line_run(addr, stride, count - k,
                                      data_line_bytes_);
    addr += static_cast<Address>(stride);
    while (run > 0) {
      const util::Picoseconds horizon = sink_->op_horizon();
      const util::Picoseconds now = core_->now();
      std::uint64_t n = 0;
      if (horizon > now) {
        // Conservative per-element bound: two L1 hits, the compute cycles,
        // and a mispredict penalty for every committed instruction.
        const util::Picoseconds period = core_->cycle_period();
        const double cycles_ub =
            2.0 * l1_hit_cycles_ +
            static_cast<double>(uops) / core_->config().base_ipc + 1.0 +
            static_cast<double>((2 + uops) * mispredict_penalty_cycles_);
        const auto ub_ps = static_cast<util::Picoseconds>(
                               cycles_ub * static_cast<double>(period) /
                               core_->duty()) +
                           8;
        n = (horizon - now) / ub_ps;
      }
      if (n > run) n = run;
      n = fetch_bound(n, ins_per_elem);
      AccessLatency load_lat;
      if (n < 2 ||
          !hierarchy_->try_fast_repeat(addr, AccessType::kLoad, n, load_lat)) {
        load(addr);
        store(addr);
        if (uops != 0) compute(uops);
        ++k;
        --run;
        addr += static_cast<Address>(stride);
        continue;
      }
      // The stores target the line the loads just proved MRU-resident, so
      // this cannot fail and the pair accounts exactly like the interleaved
      // per-op sequence (all hierarchy-level accounting is commutative
      // integer arithmetic).
      AccessLatency store_lat;
      const bool ok =
          hierarchy_->try_fast_repeat(addr, AccessType::kStore, n, store_lat);
      (void)ok;
      core_->rmw_repeat(load_lat, store_lat, uops, n);
      retire_fetches(n * ins_per_elem);
      sink_->on_op();
      k += n;
      run -= n;
      addr += static_cast<Address>(stride) * n;
    }
  }
}

}  // namespace pcap::sim
