// Trace capture and replay.
//
// RecordingMachine is a narration policy (apps/machine.hpp) that tees every
// operation into a Trace while forwarding to an inner machine. A captured
// trace replays through TraceReplayWorkload, reproducing the exact
// load/store/compute/code-footprint stream on the simulator without
// re-running the application's host arithmetic — convenient for repeated
// power-cap studies of expensive workloads, and the basis of an exact
// equivalence test (replayed counters match the live run bit-for-bit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/machine.hpp"
#include "sim/workload.hpp"

namespace pcap::apps {

struct TraceOp {
  enum class Kind : std::uint8_t {
    kLoad = 0,
    kStore = 1,
    kCompute = 2,
    kCodeFootprint = 3,
    kAlloc = 4,
  };
  Kind kind = Kind::kLoad;
  std::uint64_t value = 0;  // address | uop count | bytes
  std::uint32_t aux = 0;    // code region / pages
};

struct Trace {
  std::vector<TraceOp> ops;

  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }

  /// Binary serialisation (little-endian, fixed-width). Throws
  /// std::runtime_error on I/O failure; load throws on a bad header.
  void save(const std::string& path) const;
  static Trace load(const std::string& path);
};

/// Tees narrated operations into a trace while forwarding to Inner.
template <typename Inner>
class RecordingMachine {
 public:
  static constexpr bool kSimulated = Inner::kSimulated;

  RecordingMachine(Inner& inner, Trace& trace)
      : inner_(&inner), trace_(&trace) {}

  void load(Address a) {
    trace_->ops.push_back({TraceOp::Kind::kLoad, a, 0});
    inner_->load(a);
  }
  void store(Address a) {
    trace_->ops.push_back({TraceOp::Kind::kStore, a, 0});
    inner_->store(a);
  }
  void compute(std::uint64_t uops) {
    record_compute(uops);
    inner_->compute(uops);
  }
  // Streams are recorded expanded, one op per element: the trace format
  // stays per-op, and replaying a stream-built trace through the per-op
  // path doubles as an end-to-end batch-vs-per-op equivalence check.
  void pattern_stream(std::span<const StreamOp> ops, std::int64_t stride,
                      std::uint64_t count, std::uint64_t uops) {
    record_pattern(ops, stride, count, uops);
    inner_->pattern_stream(ops, stride, count, uops);
  }
  void set_code_footprint(std::uint32_t region, std::uint32_t pages) {
    trace_->ops.push_back({TraceOp::Kind::kCodeFootprint, region, pages});
    inner_->set_code_footprint(region, pages);
  }
  Address alloc(std::uint64_t bytes) {
    trace_->ops.push_back({TraceOp::Kind::kAlloc, bytes, 0});
    return inner_->alloc(bytes);
  }

 private:
  // Coalesces adjacent compute ops to keep traces compact.
  void record_compute(std::uint64_t uops) {
    if (!trace_->ops.empty() &&
        trace_->ops.back().kind == TraceOp::Kind::kCompute) {
      trace_->ops.back().value += uops;
    } else {
      trace_->ops.push_back({TraceOp::Kind::kCompute, uops, 0});
    }
  }
  void record_pattern(std::span<const StreamOp> ops, std::int64_t stride,
                      std::uint64_t count, std::uint64_t uops) {
    Address offset = 0;
    for (std::uint64_t k = 0; k < count;
         ++k, offset += static_cast<Address>(stride)) {
      for (const StreamOp& op : ops) {
        trace_->ops.push_back({op.kind == StreamOp::Kind::kStore
                                   ? TraceOp::Kind::kStore
                                   : TraceOp::Kind::kLoad,
                               op.base + offset, 0});
      }
      if (uops != 0) record_compute(uops);
    }
  }

  Inner* inner_;
  Trace* trace_;
};

/// Replays a captured trace as a workload. Addresses recorded relative to
/// the recording run's allocations are reproduced by replaying the same
/// alloc sequence (the context's bump allocator is deterministic).
class TraceReplayWorkload final : public sim::Workload {
 public:
  explicit TraceReplayWorkload(Trace trace, std::string name = "trace-replay")
      : trace_(std::move(trace)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  void run(sim::ExecutionContext& ctx) override;

  const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
  std::string name_;
};

}  // namespace pcap::apps
