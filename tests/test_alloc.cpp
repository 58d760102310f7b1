// The management plane's allocation contract (DESIGN.md §8, "Frame
// buffers"): once warm, an IPMI exchange and a budget-coupler round touch
// no heap, and neither does a chunk round whose every start replays from
// the memo (DESIGN.md §12). Beside it, the fleet's memory contract (DESIGN.md §14): a
// fleet's construction and ticks request a bounded number of heap bytes
// per node. This binary replaces the global allocation functions with
// counting ones, which is why it is an executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/bmc.hpp"
#include "core/bmc_ipmi_server.hpp"
#include "fleet/budget.hpp"
#include "fleet/coupler.hpp"
#include "fleet/datacenter.hpp"
#include "fleet/endpoint.hpp"
#include "fleet/rack.hpp"
#include "fleet/virtual_node.hpp"
#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"
#include "sched/chunk_batch.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/units.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};
std::atomic<std::uint64_t> g_heap_bytes{0};  // requested; frees not netted

void* counted_alloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array and nothrow forms forward to these, so every allocation counts.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pcap {
namespace {

/// Heap allocations `body` makes.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  body();
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

/// Heap bytes `body` requests, summed over every allocation it makes.
template <typename Body>
std::uint64_t bytes_during(Body&& body) {
  const std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  body();
  return g_heap_bytes.load(std::memory_order_relaxed) - before;
}

std::vector<int> g_sink;  // escapes, so the probe's allocation is not elided

TEST(HeapAllocations, CounterSeesAllocations) {
  EXPECT_GT(allocations_during([] { g_sink.assign(1000, 1); }), 0u);
  EXPECT_GE(bytes_during([] { g_sink.assign(5000, 1); }),
            5000 * sizeof(int));
  g_sink.clear();
  g_sink.shrink_to_fit();
}

/// Every fault on at once: drops, stale duplicates and corruptions all
/// exercise the session's error paths inside the measured window.
ipmi::FaultSpec lossy_link() {
  ipmi::FaultSpec spec;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.1;
  spec.corrupt_rate = 0.1;
  spec.latency_jitter_ms = 2.0;
  return spec;
}

/// A server behind FaultyTransport -> LoopbackTransport, driven by one
/// client session.
struct Link {
  template <typename Server>
  explicit Link(Server& server)
      : loopback([&server](std::span<const std::uint8_t> frame) {
          return server.handle_frame(frame);
        }),
        faulty(loopback, lossy_link(), 0xA110C),
        session(faulty) {}
  // The transports point at each other's members.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// `count` round trips cycling through `requests`; returns how many the
  /// server answered with kOk.
  int exchange(const std::vector<ipmi::Request>& requests, int count) {
    int ok = 0;
    for (int i = 0; i < count; ++i) {
      const ipmi::Request& request =
          requests[static_cast<std::size_t>(i) % requests.size()];
      if (session.transact(request).ok()) ++ok;
    }
    return ok;
  }

  /// Warms up, then asserts 1000 round trips allocate nothing.
  void expect_allocation_free(const std::vector<ipmi::Request>& requests) {
    exchange(requests, 50);
    int ok = 0;
    EXPECT_EQ(allocations_during([&] { ok = exchange(requests, 1000); }), 0u);
    EXPECT_GT(ok, 0);
    EXPECT_GT(faulty.drops(), 0u);
    EXPECT_GT(faulty.duplicates(), 0u);
    EXPECT_GT(faulty.corruptions(), 0u);
  }

  ipmi::LoopbackTransport loopback;
  ipmi::FaultyTransport faulty;
  ipmi::Session session;
};

TEST(HeapAllocations, BmcServerExchange) {
  sim::Node node(sim::MachineConfig::romley());
  core::Bmc bmc(node);
  core::BmcIpmiServer server(bmc);
  Link link(server);
  link.expect_allocation_free(
      {ipmi::make_get_device_id(), ipmi::make_get_power_reading(),
       ipmi::make_set_power_limit({true, 150.0}), ipmi::make_get_power_limit(),
       ipmi::make_get_capabilities(), ipmi::make_get_throttle_status(),
       ipmi::make_set_power_limit({true, 200.0})});
}

TEST(HeapAllocations, VirtualNodeServerExchange) {
  fleet::VirtualNode node(110.0, 400.0, 101.0);
  fleet::VirtualNodeIpmiServer server(node);
  Link link(server);
  link.expect_allocation_free(
      {ipmi::make_get_device_id(), ipmi::make_get_power_reading(),
       ipmi::make_set_power_limit({true, 150.0}), ipmi::make_get_power_limit(),
       ipmi::make_get_capabilities(), ipmi::make_get_throttle_status(),
       ipmi::make_set_power_limit({false, 0.0})});
}

/// A fleet node poll as a rack issues it: ManagedNode::power_reading()
/// (retries with backoff, then the typed decode) over the lossy link.
TEST(HeapAllocations, ManagedNodePowerReading) {
  fleet::VirtualNode node(110.0, 400.0, 101.0);
  fleet::VirtualNodeIpmiServer server(node);
  Link link(server);
  core::ManagedNode client("n0", link.faulty);
  int readings = 0;
  auto polls = [&](int count) {
    for (int i = 0; i < count; ++i) {
      if (client.power_reading().has_value()) ++readings;
    }
  };
  polls(50);
  const std::uint64_t retries_before = client.retries();
  EXPECT_EQ(allocations_during([&] { polls(1000); }), 0u);
  EXPECT_GT(readings, 0);
  EXPECT_GT(client.retries(), retries_before);
}

/// A budget-tree leaf with a fixed envelope.
class LeafHolder final : public fleet::BudgetHolder {
 public:
  double set_budget_target(double watts) override { return target_w_ = watts; }
  ipmi::RackStatus status() override {
    ipmi::RackStatus s;
    s.enforced_w = target_w_;
    s.committed_w = target_w_;
    s.demand_w = 900.0;
    s.floor_w = 880.0;
    s.ceiling_w = 3200.0;
    s.nodes = 8;
    return s;
  }

 private:
  double target_w_ = 880.0;
};

TEST(HeapAllocations, BudgetEndpointServerExchange) {
  LeafHolder holder;
  fleet::BudgetEndpointServer server(holder);
  Link link(server);
  link.expect_allocation_free(
      {ipmi::make_get_rack_status(), ipmi::make_set_rack_budget(1500.0),
       ipmi::make_set_rack_budget(2400.0)});
}

/// The fleet's two coupler levels as DatacenterManager wires them: a root
/// coupler over BudgetClients, each reaching a RackManager's
/// BudgetEndpointServer over a lossy link, and each rack's own coupler
/// over its nodes' lossy IPMI links.
TEST(HeapAllocations, CouplerRounds) {
  constexpr std::size_t kRacks = 3;
  fleet::RackConfig config;
  config.node_count = 8;
  config.node_faults = lossy_link();
  std::vector<std::unique_ptr<fleet::RackManager>> racks;
  std::vector<std::unique_ptr<fleet::BudgetEndpointServer>> servers;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<fleet::BudgetClient>> clients;
  fleet::BudgetCoupler root;
  for (std::size_t r = 0; r < kRacks; ++r) {
    config.seed = 11 + r;
    racks.push_back(std::make_unique<fleet::RackManager>(config));
    servers.push_back(
        std::make_unique<fleet::BudgetEndpointServer>(*racks.back()));
    links.push_back(std::make_unique<Link>(*servers.back()));
    clients.push_back(
        std::make_unique<fleet::BudgetClient>(links.back()->faulty));
    ASSERT_TRUE(clients.back()->attach());
    root.add_child(clients.back().get(), clients.back()->floor_w());
  }
  const double floor_w = static_cast<double>(kRacks) * racks[0]->floor_w();
  const double ceiling_w = static_cast<double>(kRacks) * racks[0]->ceiling_w();
  const std::vector<double> weights{1.0, 2.0, 0.5};

  // 100 rounds sweeping the target up and down, so every round pushes:
  // run_round (polls, divides, pushes both ways; the racks rebalance too)
  // alternating with the push-only converge_down.
  auto rounds = [&] {
    for (int i = 0; i < 100; ++i) {
      const double share = 0.2 + 0.6 * static_cast<double>(i % 10) / 9.0;
      const double target = floor_w + share * (ceiling_w - floor_w);
      if (i % 2 == 0) {
        root.run_round(target, i % 4 == 0 ? &weights : nullptr);
        for (auto& rack : racks) rack->rebalance();
      } else {
        root.converge_down(target - 300.0);
      }
    }
  };
  rounds();  // warm-up: every scratch buffer reaches its working size
  const std::uint64_t pushes_before = root.pushes();
  EXPECT_EQ(allocations_during(rounds), 0u);
  EXPECT_GT(root.pushes(), pushes_before);
  EXPECT_GT(links[0]->faulty.drops() + links[0]->faulty.corruptions(), 0u);
}

/// The rack's per-tick occupancy path: begin_tick's completions, the
/// restarted chunks and the status its endpoint serves every poll.
TEST(HeapAllocations, RackStatusAndBeginTick) {
  fleet::RackConfig config;
  config.node_count = 8;
  config.lanes_per_node = 2;
  fleet::RackManager rack(config);
  for (int j = 0; j < 16; ++j) {
    fleet::LaneJob job;
    job.job_id = j;
    job.chunks = 1000000;  // never finishes: every lane stays busy
    rack.enqueue(job);
  }
  ASSERT_EQ(rack.place(0.0), 16u);
  std::vector<fleet::ChunkEvent> completions;
  completions.reserve(16);
  std::vector<fleet::RackManager::StartRef> refs;
  refs.reserve(16);
  std::size_t completed = 0;
  std::size_t busy = 0;
  double t = 0.0;
  auto ticks = [&](int count) {
    for (int i = 0; i < count; ++i, t += 1e-3) {
      completions.clear();
      rack.begin_tick(t, completions);
      completed += completions.size();
      refs.clear();
      rack.pending_starts(refs);
      for (const fleet::RackManager::StartRef& ref : refs) {
        sched::ChunkResult result;
        result.elapsed = util::milliseconds(
            1.0 + static_cast<double>((ref.node + ref.lane + i) % 3));
        result.avg_power_w = 150.0;
        rack.begin_chunk(ref.node, ref.lane, result, t);
      }
      busy += rack.status().busy_nodes;
    }
  };
  ticks(10);
  EXPECT_EQ(allocations_during([&] { ticks(500); }), 0u);
  EXPECT_GT(completed, 1000u);
  EXPECT_EQ(busy, 510u * 8u);
}

/// A fleet tick whose chunk starts all replay from the memo: after one
/// warm-up round has simulated every start and sized the round scratch,
/// each further all-hit round of solo starts touches no heap.
TEST(HeapAllocations, ChunkBatchAllHitRound) {
  using sched::CoRunMember;
  using sched::JobClass;
  sched::ChunkBatch batch(sched::ChunkBatch::Config{});
  const CoRunMember starts[] = {CoRunMember::of(JobClass::kSireLike, 3, 0),
                                CoRunMember::of(JobClass::kStereoLike, 5, 0),
                                CoRunMember::of(JobClass::kPhased, 7, 1),
                                CoRunMember::of(JobClass::kSireLike, 9, 2)};
  auto round = [&] {
    for (const CoRunMember& start : starts) {
      batch.add_start(start, {}, 135.0);
      batch.add_start(start, {}, std::nullopt);
    }
    return batch.run_round().size();
  };
  ASSERT_EQ(round(), 8u);  // warm-up: every start misses and simulates
  const sched::ChunkBatch::Stats warm = batch.stats();
  std::size_t outcomes = 0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 10; ++i) outcomes += round();
            }),
            0u);
  EXPECT_EQ(outcomes, 80u);
  EXPECT_EQ(batch.stats().misses, warm.misses);
  EXPECT_EQ(batch.stats().hits, warm.hits + 80u);
}

/// The memory contract: building a 64-node fleet and stepping it 200
/// ticks (the control plane with telemetry sampling on every other tick)
/// requests at most 32 KiB of heap per node, all allocations summed. A
/// per-node ring of 4096 samples alone would be 640 KiB per node.
TEST(HeapAllocations, FleetBytesPerNode) {
  constexpr std::size_t kNodes = 64;
  fleet::FleetConfig config;
  config.rack_nodes.assign(8, kNodes / 8);
  config.schedule = fleet::BudgetSchedule(kNodes * 150.0);
  config.schedule.add_phase(8e-3, kNodes * 120.0);
  config.node_faults = lossy_link();
  std::size_t ticks = 0;
  const std::uint64_t bytes = bytes_during([&] {
    fleet::DatacenterManager dc(config);
    for (; ticks < 200; ++ticks) dc.step();
  });
  EXPECT_EQ(ticks, 200u);
  EXPECT_LE(bytes, kNodes * 32 * 1024) << bytes / kNodes << " B per node";
}

}  // namespace
}  // namespace pcap
