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

template <bool kLoad, bool kStore>
void ExecutionContext::group_stream(Address base, std::int64_t stride,
                                    std::uint64_t count, std::uint64_t uops) {
  constexpr std::uint64_t kOps = (kLoad ? 1 : 0) + (kStore ? 1 : 0);
  constexpr AccessType kLead = kLoad ? AccessType::kLoad : AccessType::kStore;
  const std::uint64_t ins_per_elem = kOps + uops;
  // Conservative per-element cycle bound: an L1 hit per memory op, the
  // compute cycles (plus one of carry), and a mispredict penalty for every
  // committed instruction.
  const double cycles_ub =
      static_cast<double>(kOps * l1_hit_cycles_) +
      (uops != 0 ? static_cast<double>(uops) / core_->config().base_ipc + 1.0
                 : 0.0) +
      static_cast<double>(ins_per_elem * mispredict_penalty_cycles_);
  // One element at full fidelity.
  const auto element = [&](Address a) {
    if constexpr (kLoad) load(a);
    if constexpr (kStore) store(a);
    if (uops != 0) compute(uops);
  };
  Address addr = base;
  std::uint64_t k = 0;
  while (k < count) {
    // Lead element of each line: the full-fidelity path (may miss anywhere).
    element(addr);
    ++k;
    std::uint64_t run = same_line_run(addr, stride, count - k,
                                      data_line_bytes_);
    addr += static_cast<Address>(stride);
    while (run > 0) {
      // A bulk group may elide per-op sink calls only while every element
      // is guaranteed to finish before the sink's horizon, and may span only
      // I-fetches that can retire after it (fetch_bound).
      const util::Picoseconds horizon = sink_->op_horizon();
      const util::Picoseconds now = core_->now();
      std::uint64_t n = 0;
      if (horizon > now) {
        const auto ub_ps = static_cast<util::Picoseconds>(
                               cycles_ub *
                               static_cast<double>(core_->cycle_period()) /
                               core_->duty()) +
                           8;
        n = (horizon - now) / ub_ps;
      }
      if (n > run) n = run;
      n = fetch_bound(n, ins_per_elem);
      AccessLatency load_lat;
      AccessLatency store_lat;
      if (n < 2 || !hierarchy_->try_fast_repeat(
                       addr, kLead, n, kLoad ? load_lat : store_lat)) {
        // Horizon too close, a fetch that must fire in its slot, or no
        // provable hit: one element at full fidelity, then retry the
        // remainder of the run.
        element(addr);
        ++k;
        --run;
        addr += static_cast<Address>(stride);
        continue;
      }
      if constexpr (kLoad && kStore) {
        // The stores target the line the loads just proved MRU-resident,
        // so this cannot fail, and the pair accounts exactly like the
        // interleaved per-op sequence (all hierarchy-level accounting is
        // commutative integer arithmetic).
        const bool ok =
            hierarchy_->try_fast_repeat(addr, AccessType::kStore, n, store_lat);
        (void)ok;
      }
      core_->repeat<kLoad, kStore>(load_lat, store_lat, uops, n);
      retire_fetches(n * ins_per_elem);
      sink_->on_op();
      k += n;
      run -= n;
      addr += static_cast<Address>(stride) * n;
    }
  }
}

void ExecutionContext::pattern_stream(std::span<const StreamOp> ops,
                                      std::int64_t stride, std::uint64_t count,
                                      std::uint64_t uops) {
  using Kind = StreamOp::Kind;
  if (ops.size() == 1) {
    if (ops[0].kind == Kind::kLoad) {
      group_stream<true, false>(ops[0].base, stride, count, uops);
    } else {
      group_stream<false, true>(ops[0].base, stride, count, uops);
    }
    return;
  }
  if (ops.size() == 2 && ops[0].kind == Kind::kLoad &&
      ops[1].kind == Kind::kStore && ops[0].base == ops[1].base) {
    group_stream<true, true>(ops[0].base, stride, count, uops);
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
      const bool is_store = op.kind == Kind::kStore;
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

}  // namespace pcap::sim
