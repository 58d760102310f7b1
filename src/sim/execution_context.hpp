// The API workloads program against. Applications run their real algorithm
// on host memory and narrate the induced instruction stream — loads, stores,
// arithmetic, and implicitly instruction fetches — to the simulated machine,
// which prices each operation and advances simulated time.
//
// A context binds one core's pipeline (CoreModel) and cache hierarchy to a
// TickSink that runs node-level housekeeping (power/metering/management)
// whenever simulated time crosses a boundary — the single-core Node
// implements it directly; the SMP node's per-core lanes implement it with a
// quantum check so cores interleave deterministically.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "sim/core_model.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine_config.hpp"

namespace pcap::sim {

class Node;

/// Receives control after every priced operation.
class TickSink {
 public:
  virtual ~TickSink() = default;
  virtual void on_op() = 0;

  /// Simulated time strictly before which on_op() is guaranteed to be a
  /// no-op. Batched streams may elide the per-op sink call for operations
  /// that complete before this horizon, calling on_op() only once the clock
  /// reaches or passes it. 0 (the default) promises nothing: every
  /// operation then gets its on_op() call.
  virtual util::Picoseconds op_horizon() const { return 0; }
};

class ExecutionContext {
 public:
  /// Binds to an explicit core lane (SMP composition). `address_space`
  /// disjoins this context's simulated data/code addresses from other
  /// cores' (separate processes do not share physical pages).
  ExecutionContext(MemoryHierarchy& hierarchy, CoreModel& core,
                   TickSink& sink, const MachineConfig& config,
                   std::uint32_t address_space = 0);

  /// Convenience: binds to a single-core Node.
  explicit ExecutionContext(Node& node);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Reserves `bytes` of simulated address space (64-byte aligned bump
  /// allocator). Returns the simulated base address. The workload keeps its
  /// real data in host memory; these addresses exist to exercise the
  /// hierarchy with the same layout/stride structure.
  Address alloc(std::uint64_t bytes, std::string_view label = {});

  /// One committed load/store touching the line containing `addr`.
  void load(Address addr);
  void store(Address addr);

  /// `uops` committed arithmetic micro-ops.
  void compute(std::uint64_t uops);

  /// One memory reference of a batched access pattern (pattern_stream).
  struct StreamOp {
    enum class Kind : std::uint8_t { kLoad, kStore };
    Kind kind = Kind::kLoad;
    Address base = 0;
  };

  /// The batched stream: per element k in [0, count), each op in `ops` (at
  /// op.base + k*stride, in order), then compute(uops) when uops != 0.
  /// Bit-identical — PMU counters, structural cache/TLB state, and the
  /// picosecond clock — to that per-operation loop; only simulator wall
  /// time changes (tests/test_batch_equivalence.cpp). One op, or a load then
  /// a store of one base, runs through same-line groups accounted
  /// analytically instead of replayed; every other pattern runs per op.
  void pattern_stream(std::span<const StreamOp> ops, std::int64_t stride,
                      std::uint64_t count, std::uint64_t uops);

  /// Declares the instruction footprint of the current kernel: fetches
  /// rotate over `pages` 4 KB code pages. Distinct `region` values model
  /// distinct functions (disjoint code addresses).
  void set_code_footprint(std::uint32_t region, std::uint32_t pages);

  util::Picoseconds now() const { return core_->now(); }
  CoreModel& core() { return *core_; }
  MemoryHierarchy& hierarchy() { return *hierarchy_; }

 private:
  void retire_fetches(std::uint64_t committed);
  /// The largest bulk group of at most `n` ops, `ins_per_op` committed
  /// instructions each, that may retire its I-fetches after the group:
  /// every fetch firing before the group's last instruction must be a
  /// provable L1I-MRU + ITLB hit. Such a fetch charges no time and touches
  /// only L1I stats and ITLB recency, which the group's data-side MRU hits
  /// never touch, so deferring it is exact and stays core-private.
  std::uint64_t fetch_bound(std::uint64_t n, std::uint64_t ins_per_op) const;
  /// The same-line group loop: `count` elements at base, base+stride, ...,
  /// each load(addr) [kLoad], store(addr) [kStore], then compute(uops) when
  /// uops != 0. Each line's lead element runs at full fidelity and the rest
  /// of the line bulk through CoreModel::repeat.
  template <bool kLoad, bool kStore>
  void group_stream(Address base, std::int64_t stride, std::uint64_t count,
                    std::uint64_t uops);

  MemoryHierarchy* hierarchy_;
  CoreModel* core_;
  TickSink* sink_;
  Address space_offset_;
  Address data_break_;
  std::uint32_t code_pages_ = 8;
  Address code_base_;
  Address fetch_ptr_;
  std::uint64_t fetch_accum_ = 0;
  std::uint32_t ins_per_fetch_;
  std::uint32_t line_bytes_;
  std::uint32_t data_line_bytes_;
  std::uint32_t l1_hit_cycles_;
  std::uint32_t mispredict_penalty_cycles_;
};

}  // namespace pcap::sim
