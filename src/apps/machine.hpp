// Machine-narration policy for the applications.
//
// Application kernels are written once, templated on a Machine policy:
//  - HostMachine: no-op narration. The kernel is pure host computation —
//    used by unit tests to verify algorithmic correctness cheaply.
//  - SimMachine: forwards loads/stores/compute to a sim::ExecutionContext,
//    pricing the kernel on the simulated node. The arithmetic results are
//    identical; only the cost accounting differs.
#pragma once

#include <cstdint>

#include "sim/execution_context.hpp"

namespace pcap::apps {

using Address = sim::Address;
using StreamOp = sim::ExecutionContext::StreamOp;

/// No-cost narration: kernels run as plain host code.
class HostMachine {
 public:
  static constexpr bool kSimulated = false;
  void load(Address) {}
  void store(Address) {}
  void compute(std::uint64_t) {}
  void pattern_stream(std::span<const StreamOp>, std::int64_t, std::uint64_t,
                      std::uint64_t) {}
  void set_code_footprint(std::uint32_t, std::uint32_t) {}
  Address alloc(std::uint64_t bytes) {
    const Address base = brk_;
    brk_ += (bytes + 63) & ~63ull;
    return base;
  }

 private:
  Address brk_ = 0x1000;
};

/// Narrates to the simulator.
class SimMachine {
 public:
  static constexpr bool kSimulated = true;
  explicit SimMachine(sim::ExecutionContext& ctx) : ctx_(&ctx) {}
  void load(Address a) { ctx_->load(a); }
  void store(Address a) { ctx_->store(a); }
  void compute(std::uint64_t uops) { ctx_->compute(uops); }
  void pattern_stream(std::span<const StreamOp> ops, std::int64_t stride,
                      std::uint64_t count, std::uint64_t uops) {
    ctx_->pattern_stream(ops, stride, count, uops);
  }
  void set_code_footprint(std::uint32_t region, std::uint32_t pages) {
    ctx_->set_code_footprint(region, pages);
  }
  Address alloc(std::uint64_t bytes) { return ctx_->alloc(bytes); }

 private:
  sim::ExecutionContext* ctx_;
};

}  // namespace pcap::apps
