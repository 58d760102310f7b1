// Cap-allocation policy contract (DESIGN.md §11, §13).
//
// At every replan the scheduler hands the policy a read-only cluster view
// and a group budget; the policy returns a per-node cap vector, an admit
// mask, and (optionally) explicit lane placements for the queued jobs. The
// *scheduler* owns placement legality (an invalid placement entry falls
// back to FIFO onto the lowest lane-major admitting idle lane) and budget
// enforcement — a policy that returns an over-budget plan is clamped and
// the event is counted — so policies only decide how to split watts, how
// wide to open the rack, and which idle lane each queued job should share
// a node with.
//
// Contract invariants every policy must satisfy (tests/test_scheduler.cpp,
// tests/test_cosched.cpp):
//  * caps lie in [min_cap_w, max_cap_w] for every available node;
//  * sum(caps over available nodes) <= budget - sum(reservations of
//    unavailable nodes);
//  * with budget >= node_count * (max demand + margin), the plan leaves
//    every node unthrottled and admits everywhere, so all policies
//    degenerate to the identical baseline schedule;
//  * a policy either consumes deadlines (consumes_deadlines() == true) or
//    ignores them mechanically: its plan must be invariant under stripping
//    every deadline from the input.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/amenability_table.hpp"
#include "sched/job.hpp"
#include "sched/power_model.hpp"

namespace pcap::sched {

/// One schedulable SMP lane of a node (DESIGN.md §13). A classic
/// one-job-per-node rack has exactly one lane per node.
struct LaneView {
  std::size_t lane = 0;
  bool busy = false;
  JobClass cls = JobClass::kSireLike;  // valid when busy
  int remaining_chunks = 0;            // valid when busy
  /// Absolute deadline of the job on this lane, if any.
  std::optional<double> deadline_s;
};

struct NodeView {
  std::size_t index = 0;
  /// Reachable over the management plane; unavailable nodes keep their
  /// last-applied cap as a budget reservation and take no new work.
  bool available = true;
  /// Any lane occupied. The class/chunk fields below summarise the node
  /// for lane-blind policies: cls is the first busy lane's class,
  /// remaining_chunks the lane maximum, deadline_s the earliest deadline.
  bool busy = false;
  JobClass cls = JobClass::kSireLike;  // valid when busy
  int remaining_chunks = 0;            // valid when busy
  /// The cap currently enforced by the node's BMC (reservation when the
  /// node is unreachable). nullopt before the first plan lands.
  std::optional<double> applied_cap_w;
  /// Earliest absolute deadline among the node's running jobs, if any.
  std::optional<double> deadline_s;
  /// Per-lane occupancy, size == PlanInput::lanes_per_node; every input
  /// fills it. Lane-aware policies read these; lane-blind policies may
  /// read the aggregates above instead.
  std::vector<LaneView> lanes;

  int busy_lanes() const {
    int n = 0;
    for (const LaneView& lane : lanes) n += lane.busy ? 1 : 0;
    return n;
  }
};

/// One node's phase forecast for the upcoming control round, produced by
/// the predict subsystem (src/predict/, DESIGN.md §16). `valid` is false
/// when the node's series shows no confident periodic structure — the
/// consumer must then fall back to the reactive path.
struct NodeForecast {
  bool valid = false;
  double confidence = 0.0;      // autocorrelation peak, [0, 1]
  double period_steps = 0.0;    // detected period, in completed chunks
  /// Forecast elapsed time of the node's next chunk (seconds).
  double next_elapsed_s = 0.0;
  /// Forecast average draw of the node's next chunk (watts).
  double next_power_w = 0.0;
  /// Windowed mean of the node's recent chunk elapsed times — the "typical"
  /// value next_elapsed_s is judged against.
  double typical_elapsed_s = 0.0;
  /// A phase-level change is forecast within the next chunk.
  bool boundary_ahead = false;
};

struct PlanInput {
  double budget_w = 0.0;
  double min_cap_w = 110.0;
  double max_cap_w = 400.0;
  double now_s = 0.0;
  /// Schedulable lanes per node (SmpNode cores); 1 = the classic rack.
  std::size_t lanes_per_node = 1;
  std::vector<NodeView> nodes;
  /// Ready queue (arrived, unplaced) jobs in FIFO order.
  struct QueuedJob {
    JobClass cls = JobClass::kSireLike;
    int chunks = 0;
    std::optional<double> deadline_s;
  };
  std::vector<QueuedJob> queued;
  const AmenabilityTable* table = nullptr;   // may be null
  const OnlinePowerModel* model = nullptr;   // never null during a run
  /// Per-node phase forecasts, parallel to `nodes` when a predictor is
  /// attached and enabled; empty otherwise. Policies may ignore them (the
  /// proactive planner consumes them after the policy has planned).
  std::vector<NodeForecast> forecasts;
};

struct Plan {
  /// Requested cap per node, parallel to PlanInput::nodes. Values for
  /// unavailable nodes are ignored (their reservation stands).
  std::vector<double> cap_w;
  /// Whether each node may receive new jobs this round (consolidation
  /// policies park nodes by clearing this).
  std::vector<bool> admit;
  /// Optional explicit placement, parallel to PlanInput::queued:
  /// placement[q] is the flat lane id (node * lanes_per_node + lane) the
  /// q-th queued job should take, or kNoPlacement to leave the job to the
  /// scheduler's default FIFO fill. Entries naming a lane that is not
  /// idle, admitted and reachable (or already claimed by an earlier entry)
  /// fall back to FIFO. Empty vector == all kNoPlacement.
  std::vector<int> placement;

  static constexpr int kNoPlacement = -1;
};

/// What one completed chunk looked like next to its neighbours — the
/// feedback lane-aware policies learn from (DESIGN.md §13). Slowdown is
/// emergent from the shared-hierarchy co-run simulation; the observation
/// merely compares it against the solo prediction for the same cap.
struct CoRunObservation {
  JobClass cls = JobClass::kSireLike;
  /// Classes sharing the node when this chunk started (empty == ran solo).
  std::vector<JobClass> co_resident;
  std::optional<double> cap_w;
  double elapsed_s = 0.0;
  /// Table-predicted solo time at the same cap (0 when no curve exists;
  /// observers must then skip the sample).
  double predicted_solo_s = 0.0;
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;
  virtual Plan plan(const PlanInput& input) = 0;
  /// Chunk-completion feedback, called serially in completion order.
  /// Stateless policies ignore it.
  virtual void observe_corun(const CoRunObservation&) {}
  /// True when the policy reads deadlines. Policies returning false must
  /// plan identically with and without deadlines in the input — pinned
  /// mechanically by tests/test_cosched.cpp.
  virtual bool consumes_deadlines() const { return false; }
};

/// "uniform", "greedy", "amenability", "race-to-idle", "deadline",
/// "contention". Unknown names return nullptr.
std::unique_ptr<Policy> make_policy(const std::string& name);
/// Every policy name make_policy accepts, in canonical sweep order.
std::vector<std::string> policy_names();

}  // namespace pcap::sched
