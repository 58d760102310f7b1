// Workload interface: applications perform their real computation on host
// memory while narrating loads/stores/compute to the simulator through an
// ExecutionContext, which prices every operation on the simulated machine.
//
// Workloads come in two flavours for the cooperative SMP engine:
//  * steppable workloads override supports_step()/begin_steps()/step() and
//    advance in bounded simulated-time budgets, letting the engine resume
//    them as plain function calls;
//  * monolithic workloads only implement run(); the engine suspends them at
//    quantum boundaries via a stackful continuation (util::Fiber) instead.
// Both drive the identical priced-op sequence, but a fiber lane whose last
// op ends past its quantum end is marked finished one resume later than a
// steppable one and counts as active in housekeeping until then, so such a
// cell's report differs (tests/test_smp_equivalence.cpp pins one).
#pragma once

#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace pcap::sim {

class ExecutionContext;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  virtual void run(ExecutionContext& ctx) = 0;

  /// True when this workload can be driven through begin_steps()/step()
  /// instead of a single monolithic run() call.
  virtual bool supports_step() const { return false; }

  /// Resets stepping state; called once before the first step() of a run.
  virtual void begin_steps() {}

  /// Advances the workload until ctx.now() reaches `budget` or the work is
  /// complete, whichever comes first (the op that crosses the budget
  /// completes — budgets bound resume points, they never split an op).
  /// Returns true when the workload has finished.
  virtual bool step(ExecutionContext& ctx, util::Picoseconds budget) {
    (void)ctx;
    (void)budget;
    throw std::logic_error(name() + ": step() called without supports_step()");
  }
};

}  // namespace pcap::sim
