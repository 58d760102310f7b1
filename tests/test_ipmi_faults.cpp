// Fault-tolerance tests for the management plane: deterministic fault
// injection (drop / duplicate / corrupt / latency / partition), sequence-
// number rejection of stale frames, retry backoff schedule bounds, and the
// DCM's node health state machine with group-budget redistribution.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/bmc.hpp"
#include "core/node_ipmi_server.hpp"
#include "core/dcm.hpp"
#include "ipmi/commands.hpp"
#include "ipmi/transport.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"
#include "util/backoff.hpp"

namespace pcap {
namespace {

using core::DataCenterManager;
using core::NodeHealth;

/// Answers every decodable request with an empty kOk response carrying the
/// request's sequence number, the way the node servers do.
class OkResponder final : public ipmi::Transport {
 public:
  ipmi::Frame transact(std::span<const std::uint8_t> frame) override {
    ipmi::Request request;
    if (!ipmi::decode_request(frame, request)) return {};
    ipmi::Response response = ipmi::make_ok_response();
    response.seq = request.seq;
    return ipmi::encode_response(response);
  }
};

TEST(FaultyTransport, DeterministicUnderFixedSeed) {
  ipmi::FaultSpec spec;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.2;
  spec.corrupt_rate = 0.2;
  spec.latency_jitter_ms = 4.0;

  auto run = [&](std::uint64_t seed) {
    OkResponder inner;
    ipmi::FaultyTransport faulty(inner, spec, seed);
    ipmi::Session session(faulty);
    std::vector<int> outcomes;
    for (int i = 0; i < 80; ++i) {
      session.transact(ipmi::make_get_power_reading());
      outcomes.push_back(static_cast<int>(session.last_error()));
    }
    return std::make_tuple(outcomes, faulty.drops(), faulty.duplicates(),
                           faulty.corruptions());
  };

  EXPECT_EQ(run(42), run(42));  // bit-for-bit reproducible
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(FaultyTransport, DropsEverythingAtRateOne) {
  OkResponder inner;
  ipmi::FaultSpec spec;
  spec.drop_rate = 1.0;
  ipmi::FaultyTransport faulty(inner, spec, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(faulty.transact(std::vector<std::uint8_t>{1, 2, 3}).empty());
  }
  EXPECT_EQ(faulty.drops(), 10u);
}

TEST(FaultyTransport, PeriodicPartitionWindows) {
  OkResponder inner;
  ipmi::FaultSpec spec;
  spec.partition_period = 10;
  spec.partition_length = 3;
  ipmi::FaultyTransport faulty(inner, spec, 1);
  ipmi::Session session(faulty);
  std::vector<bool> lost;
  for (int i = 0; i < 20; ++i) {
    session.transact(ipmi::make_get_power_reading());
    lost.push_back(session.last_error() == ipmi::Session::Error::kLost);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(lost[static_cast<std::size_t>(i)], i % 10 < 3) << "tx " << i;
  }
  EXPECT_EQ(faulty.partition_drops(), 6u);
}

TEST(FaultyTransport, ScriptedPartitionAndHeal) {
  OkResponder inner;
  ipmi::FaultyTransport faulty(inner, ipmi::FaultSpec{}, 1);
  ipmi::Session session(faulty);
  EXPECT_TRUE(session.transact(ipmi::make_get_power_reading()).ok());

  faulty.partition_for(2);
  EXPECT_TRUE(faulty.partitioned());
  EXPECT_FALSE(session.transact(ipmi::make_get_power_reading()).ok());
  EXPECT_FALSE(session.transact(ipmi::make_get_power_reading()).ok());
  EXPECT_FALSE(faulty.partitioned());  // window exhausted
  EXPECT_TRUE(session.transact(ipmi::make_get_power_reading()).ok());

  faulty.partition_for(1000);
  EXPECT_FALSE(session.transact(ipmi::make_get_power_reading()).ok());
  faulty.heal();
  EXPECT_TRUE(session.transact(ipmi::make_get_power_reading()).ok());
  EXPECT_EQ(faulty.partition_drops(), 3u);
}

TEST(FaultyTransport, DuplicateReplayRejectedBySequenceNumber) {
  OkResponder inner;
  ipmi::FaultSpec spec;
  spec.duplicate_rate = 1.0;
  ipmi::FaultyTransport faulty(inner, spec, 1);
  ipmi::Session session(faulty);

  // First exchange: nothing cached yet, passes through and succeeds.
  EXPECT_TRUE(session.transact(ipmi::make_get_power_reading()).ok());
  // Every further exchange gets the previous (seq-stale) frame replayed:
  // well-formed, checksum-valid, but rejected by the rqSeq check.
  for (int i = 0; i < 5; ++i) {
    const ipmi::Response r = session.transact(ipmi::make_get_power_reading());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(session.last_error(), ipmi::Session::Error::kStale);
  }
  EXPECT_EQ(session.stale_rejections(), 5u);
  EXPECT_EQ(faulty.duplicates(), 5u);
}

TEST(FaultyTransport, CorruptionCaughtByChecksum) {
  OkResponder inner;
  ipmi::FaultSpec spec;
  spec.corrupt_rate = 1.0;
  ipmi::FaultyTransport faulty(inner, spec, 1);
  ipmi::Session session(faulty);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(session.transact(ipmi::make_get_power_reading()).ok());
    EXPECT_EQ(session.last_error(), ipmi::Session::Error::kCorrupt);
  }
  EXPECT_EQ(faulty.corruptions(), 5u);
}

TEST(FaultyTransport, LatencyBeyondTimeoutDiscarded) {
  OkResponder inner;
  ipmi::FaultSpec spec;
  spec.base_latency_ms = 10.0;
  ipmi::FaultyTransport faulty(inner, spec, 1);

  ipmi::Session patient(faulty, /*timeout_ms=*/50.0);
  EXPECT_TRUE(patient.transact(ipmi::make_get_power_reading()).ok());

  ipmi::Session impatient(faulty, /*timeout_ms=*/5.0);
  EXPECT_FALSE(impatient.transact(ipmi::make_get_power_reading()).ok());
  EXPECT_EQ(impatient.last_error(), ipmi::Session::Error::kTimeout);
  EXPECT_EQ(impatient.timeouts(), 1u);
}

TEST(Backoff, NominalScheduleGrowsAndSaturates) {
  // 1 ms doubling per retry, clamped at 50 ms.
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(0), 1.0);
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(1), 2.0);
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(2), 4.0);
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(5), 32.0);
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(6), 50.0);
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(10), 50.0);   // saturated
  EXPECT_DOUBLE_EQ(util::backoff_nominal_ms(200), 50.0);  // no overflow
}

TEST(Backoff, JitterBoundedAndDeterministic) {
  util::Rng rng_a(9), rng_b(9);
  for (std::uint32_t retry = 0; retry < 12; ++retry) {
    const double nominal = util::backoff_nominal_ms(retry);
    const double a = util::backoff_delay_ms(retry, rng_a);
    const double b = util::backoff_delay_ms(retry, rng_b);
    EXPECT_DOUBLE_EQ(a, b);  // same seed, same schedule
    EXPECT_GE(a, nominal * (1.0 - util::kBackoffJitter));
    EXPECT_LE(a, nominal * (1.0 + util::kBackoffJitter));
  }
}

// --- The shared health transition function (DCM nodes, budget-tree links) ---

TEST(HealthFsm, EveryTransitionMatchesTable) {
  // The table is written for kDegradedAfterFailures = 2 and
  // kLostAfterFailures = 4.
  static_assert(core::kDegradedAfterFailures == 2);
  static_assert(core::kLostAfterFailures == 4);
  constexpr NodeHealth kStates[] = {NodeHealth::kHealthy, NodeHealth::kDegraded,
                                    NodeHealth::kLost, NodeHealth::kRecovered};
  constexpr NodeHealth H = NodeHealth::kHealthy, D = NodeHealth::kDegraded,
                       L = NodeHealth::kLost, R = NodeHealth::kRecovered;
  // State after one FAILED exchange: [state before][streak before].
  constexpr NodeHealth kAfterFailure[4][6] = {
      /* healthy   */ {H, D, D, L, L, L},
      /* degraded  */ {D, D, D, L, L, L},
      /* lost      */ {L, L, L, L, L, L},
      /* recovered */ {R, D, D, L, L, L},
  };
  // State after one SUCCESSFUL exchange, at any streak.
  constexpr NodeHealth kAfterSuccess[4] = {H, H, R, H};
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::uint32_t streak = 0; streak < 6; ++streak) {
      const core::HealthStep failed =
          core::next_health(kStates[s], streak, false);
      EXPECT_EQ(failed.health, kAfterFailure[s][streak])
          << "state " << s << " streak " << streak << " failed";
      EXPECT_EQ(failed.consecutive_failures, streak + 1);
      const core::HealthStep ok = core::next_health(kStates[s], streak, true);
      EXPECT_EQ(ok.health, kAfterSuccess[s])
          << "state " << s << " streak " << streak << " ok";
      EXPECT_EQ(ok.consecutive_failures, 0u);
    }
  }
}

// --- DCM health machine over a real BMC stack ---

struct Slot {
  std::unique_ptr<sim::Node> node;
  std::unique_ptr<core::Bmc> bmc;
  std::unique_ptr<core::NodeIpmiServer<core::Bmc>> server;
  std::unique_ptr<ipmi::FaultyTransport> faulty;

  explicit Slot(std::uint64_t seed, const ipmi::FaultSpec& spec = {}) {
    node = std::make_unique<sim::Node>(sim::MachineConfig::romley(), seed);
    bmc = std::make_unique<core::Bmc>(*node);
    server = std::make_unique<core::NodeIpmiServer<core::Bmc>>(*bmc);
    node->set_control_hook(
        [b = bmc.get()](sim::PlatformControl&) { b->on_control_tick(); });
    faulty = std::make_unique<ipmi::FaultyTransport>(*server, spec,
                                                     seed * 101 + 7);
  }

  void load(int phases = 4) {
    apps::PhasedParams p;
    p.phases = phases;
    apps::PhasedWorkload w(p);
    node->run(w);
  }
};

class HealthTest : public ::testing::Test {
 protected:
  static constexpr double kBudgetW = 420.0;

  HealthTest() {
    for (int i = 0; i < 3; ++i) {
      slots_.push_back(
          std::make_unique<Slot>(static_cast<std::uint64_t>(i + 1)));
      EXPECT_TRUE(
          dcm_.add_node("node-" + std::to_string(i), *slots_.back()->faulty));
    }
    for (auto& s : slots_) s->load();
    dcm_.poll();
    EXPECT_EQ(dcm_.apply_group_cap(kBudgetW).caps.size(), 3u);
  }

  bool alert_mentions(const std::string& needle) const {
    for (const auto& a : dcm_.alerts()) {
      if (a.message.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  DataCenterManager dcm_;
};

TEST_F(HealthTest, WalksDegradedToLostAndBack) {
  ASSERT_EQ(dcm_.node_health("node-0"), NodeHealth::kHealthy);
  EXPECT_FALSE(dcm_.node_health("missing").has_value());

  slots_[0]->faulty->partition_for(1'000'000);
  dcm_.poll();  // failure 1: still healthy
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kHealthy);
  dcm_.poll();  // failure 2: degraded
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kDegraded);
  EXPECT_TRUE(alert_mentions("degraded"));
  dcm_.poll();
  dcm_.poll();  // failure 4: lost
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kLost);
  EXPECT_TRUE(alert_mentions("lost"));
  EXPECT_EQ(dcm_.health_count(NodeHealth::kLost), 1u);

  slots_[0]->faulty->heal();
  dcm_.poll();  // success: recovered (budget share restored)
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kRecovered);
  EXPECT_TRUE(alert_mentions("recovered"));
  dcm_.poll();  // second success settles back to healthy
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kHealthy);
  EXPECT_EQ(dcm_.health_count(NodeHealth::kHealthy), 3u);
}

TEST_F(HealthTest, DegradedNodeRecoversWithoutRebalance) {
  slots_[0]->faulty->partition_for(1'000'000);
  dcm_.poll();
  dcm_.poll();
  ASSERT_EQ(dcm_.node_health("node-0"), NodeHealth::kDegraded);
  slots_[0]->faulty->heal();
  dcm_.poll();
  // Degraded -> healthy directly; kRecovered is only for lost nodes.
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kHealthy);
  EXPECT_FALSE(alert_mentions("recovered"));
}

TEST_F(HealthTest, LostNodeBudgetRedistributedConservatively) {
  const auto cap_before = dcm_.node_applied_cap("node-0");
  ASSERT_TRUE(cap_before.has_value());
  EXPECT_LE(dcm_.committed_w(), kBudgetW + 1e-6);

  slots_[0]->faulty->partition_for(1'000'000);
  for (int i = 0; i < 4; ++i) dcm_.poll();
  ASSERT_EQ(dcm_.node_health("node-0"), NodeHealth::kLost);

  // The lost node's reservation is exactly the cap its BMC still enforces;
  // the survivors were re-planned inside budget - reservation.
  EXPECT_EQ(dcm_.node_applied_cap("node-0"), cap_before);
  EXPECT_LE(dcm_.committed_w(), kBudgetW + 1e-6);
  double survivors = 0.0;
  for (const auto& name : {"node-1", "node-2"}) {
    const auto cap = dcm_.node_applied_cap(name);
    ASSERT_TRUE(cap.has_value());
    EXPECT_GE(*cap, 110.0);  // never below the enforceable floor
    survivors += *cap;
  }
  EXPECT_LE(survivors, kBudgetW - *cap_before + 1e-6);

  // Ground truth on the BMCs matches the DCM's book-keeping.
  ASSERT_TRUE(slots_[1]->bmc->cap().has_value());
  EXPECT_DOUBLE_EQ(*slots_[1]->bmc->cap(), *dcm_.node_applied_cap("node-1"));

  slots_[0]->faulty->heal();
  dcm_.poll();  // recovery rebalances across all three again
  EXPECT_EQ(dcm_.node_health("node-0"), NodeHealth::kRecovered);
  EXPECT_LE(dcm_.committed_w(), kBudgetW + 1e-6);
  // The recovered node is being capped again (restoration happened).
  ASSERT_TRUE(slots_[0]->bmc->cap().has_value());
  EXPECT_DOUBLE_EQ(*slots_[0]->bmc->cap(), *dcm_.node_applied_cap("node-0"));
}

TEST_F(HealthTest, GroupCapSkipsLostNodes) {
  slots_[0]->faulty->partition_for(1'000'000);
  for (int i = 0; i < 4; ++i) dcm_.poll();
  ASSERT_EQ(dcm_.node_health("node-0"), NodeHealth::kLost);

  // Re-issuing the group policy plans only the reachable nodes.
  const auto applied = dcm_.apply_group_cap(kBudgetW);
  EXPECT_TRUE(applied.complete);
  ASSERT_EQ(applied.caps.size(), 2u);
  for (const auto& [name, cap] : applied.caps) {
    EXPECT_NE(name, "node-0");
    EXPECT_GE(cap, 110.0);
  }
  EXPECT_LE(dcm_.committed_w(), kBudgetW + 1e-6);
}

// --- Seeded message-layer fuzz: round-trips for every command, bit
// flips, truncations and random garbage. Parsing must never crash, and a
// frame with any single corrupted byte must never decode. ---

std::vector<ipmi::Request> fuzz_requests() {
  ipmi::PowerLimit limit;
  limit.enabled = true;
  limit.limit_w = 215.5;
  return {ipmi::make_get_device_id(),      ipmi::make_get_power_reading(),
          ipmi::make_set_power_limit(limit), ipmi::make_get_power_limit(),
          ipmi::make_get_capabilities(),   ipmi::make_get_throttle_status(),
          ipmi::make_set_rack_budget(35700.3), ipmi::make_get_rack_status()};
}

std::vector<ipmi::Response> fuzz_responses() {
  ipmi::PowerLimit limit;
  limit.enabled = true;
  limit.limit_w = 180.0;
  ipmi::RackStatus status;
  status.enforced_w = 123456.7;
  status.committed_w = 120000.2;
  status.reserved_w = 350.0;
  status.demand_w = 98765.4;
  status.floor_w = 110000.0;
  status.ceiling_w = 400000.0;
  status.nodes = 1000;
  status.lost_nodes = 31;
  status.busy_nodes = 600;
  status.free_lanes = 400;
  status.queued_jobs = 12;
  return {ipmi::make_ok_response(),
          ipmi::encode_device_id(ipmi::DeviceId{}),
          ipmi::encode_power_reading(ipmi::PowerReading{}),
          ipmi::encode_power_limit(limit),
          ipmi::encode_capabilities(ipmi::Capabilities{}),
          ipmi::encode_throttle_status(ipmi::ThrottleStatus{}),
          ipmi::encode_rack_budget_grant(123456.7),
          ipmi::encode_rack_status(status)};
}

/// Runs every typed decoder over a structurally valid message; none may
/// crash, whatever the payload happens to contain.
void poke_all_decoders(const ipmi::Request& request,
                       const ipmi::Response& response) {
  (void)ipmi::decode_set_power_limit(request);
  (void)ipmi::decode_set_rack_budget(request);
  (void)ipmi::decode_device_id(response);
  (void)ipmi::decode_power_reading(response);
  (void)ipmi::decode_power_limit(response);
  (void)ipmi::decode_capabilities(response);
  (void)ipmi::decode_throttle_status(response);
  (void)ipmi::decode_rack_budget_grant(response);
  (void)ipmi::decode_rack_status(response);
}

TEST(IpmiFuzz, EveryCommandRoundTrips) {
  for (const ipmi::Request& request : fuzz_requests()) {
    const ipmi::Frame frame = ipmi::encode_request(request);
    ipmi::Request out;
    ASSERT_TRUE(ipmi::decode_request(frame, out));
    EXPECT_EQ(out.netfn, request.netfn);
    EXPECT_EQ(out.command, request.command);
    EXPECT_EQ(out.seq, request.seq);
    EXPECT_EQ(out.payload, request.payload);
  }
  for (const ipmi::Response& response : fuzz_responses()) {
    const ipmi::Frame frame = ipmi::encode_response(response);
    ipmi::Response out;
    ASSERT_TRUE(ipmi::decode_response(frame, out));
    EXPECT_EQ(out.code, response.code);
    EXPECT_EQ(out.payload, response.payload);
  }
  // Typed payloads survive the fixed-point wire format on the 0.1 W grid.
  const auto budget =
      ipmi::decode_set_rack_budget(ipmi::make_set_rack_budget(35700.3));
  ASSERT_TRUE(budget.has_value());
  EXPECT_NEAR(*budget, 35700.3, 1e-6);
  const auto grant = ipmi::decode_rack_budget_grant(
      ipmi::encode_rack_budget_grant(123456.7));
  ASSERT_TRUE(grant.has_value());
  EXPECT_NEAR(*grant, 123456.7, 1e-6);
}

TEST(IpmiFuzz, AnySingleByteFlipRejected) {
  // The frame checksum is a two's-complement byte sum, so no single-byte
  // change can go unnoticed (flipping the length bytes trips the length
  // check first).
  for (const ipmi::Request& request : fuzz_requests()) {
    const ipmi::Frame frame = ipmi::encode_request(request);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        ipmi::Frame mutated = frame;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
        ipmi::Request out;
        EXPECT_FALSE(ipmi::decode_request(mutated, out))
            << "byte " << i << " bit " << bit;
      }
    }
  }
  for (const ipmi::Response& response : fuzz_responses()) {
    const ipmi::Frame frame = ipmi::encode_response(response);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        ipmi::Frame mutated = frame;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
        ipmi::Response out;
        EXPECT_FALSE(ipmi::decode_response(mutated, out))
            << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(IpmiFuzz, EveryTruncationRejected) {
  for (const ipmi::Request& request : fuzz_requests()) {
    const ipmi::Frame frame = ipmi::encode_request(request);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      ipmi::Request out;
      EXPECT_FALSE(ipmi::decode_request(
          std::span<const std::uint8_t>(frame.data(), len), out))
          << "prefix " << len;
    }
  }
  for (const ipmi::Response& response : fuzz_responses()) {
    const ipmi::Frame frame = ipmi::encode_response(response);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      ipmi::Response out;
      EXPECT_FALSE(ipmi::decode_response(
          std::span<const std::uint8_t>(frame.data(), len), out))
          << "prefix " << len;
    }
  }
}

/// Rewrites `frame`'s trailing checksum so the byte sum is zero again.
void fix_checksum(std::vector<std::uint8_t>& frame) {
  std::uint8_t sum = 0;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    sum = static_cast<std::uint8_t>(sum + frame[i]);
  }
  frame.back() = static_cast<std::uint8_t>(-sum);
}

/// A well-formed frame (consistent length field, valid checksum) carrying
/// `payload_len` bytes: request layout when `request`, else response.
std::vector<std::uint8_t> framed(std::size_t payload_len, bool request) {
  const std::size_t header = request ? 5 : 4;
  std::vector<std::uint8_t> frame(header + payload_len + 1, 0x5A);
  frame[header - 2] = static_cast<std::uint8_t>(payload_len & 0xFF);
  frame[header - 1] = static_cast<std::uint8_t>(payload_len >> 8);
  fix_checksum(frame);
  return frame;
}

TEST(IpmiFuzz, OverLengthFrameRejected) {
  // A frame that is otherwise perfect but declares more payload than any
  // message can carry never reaches the fixed-capacity payload buffer.
  for (const std::size_t len :
       {ipmi::kMaxPayload + 1, ipmi::kMaxFrame, 4 * ipmi::kMaxFrame,
        std::size_t{0xFFFF}}) {
    ipmi::Request request;
    ipmi::Response response;
    EXPECT_FALSE(ipmi::decode_request(framed(len, true), request)) << len;
    EXPECT_FALSE(ipmi::decode_response(framed(len, false), response)) << len;
  }
  // The capacity itself is still a legal payload.
  ipmi::Request request;
  ipmi::Response response;
  ASSERT_TRUE(ipmi::decode_request(framed(ipmi::kMaxPayload, true), request));
  EXPECT_EQ(request.payload.size(), ipmi::kMaxPayload);
  ASSERT_TRUE(
      ipmi::decode_response(framed(ipmi::kMaxPayload, false), response));
  EXPECT_EQ(response.payload.size(), ipmi::kMaxPayload);
}

TEST(IpmiFuzz, PutPastCapacityThrowsWithoutWriting) {
  // Guard bytes on both sides of the payload: a put past capacity must
  // throw before touching anything, in or out of the buffer.
  struct Guarded {
    std::uint8_t before[16];
    ipmi::Payload payload;
    std::uint8_t after[16];
  } g;
  std::memset(g.before, 0xEE, sizeof g.before);
  std::memset(g.after, 0xEE, sizeof g.after);
  for (std::size_t i = 0; i + 3 < ipmi::kMaxPayload; ++i) {
    ipmi::put_u8(g.payload, static_cast<std::uint8_t>(i));
  }
  const ipmi::Payload snapshot = g.payload;  // kMaxPayload - 3 bytes
  EXPECT_THROW(ipmi::put_u32(g.payload, 0xDEADBEEF), std::length_error);
  EXPECT_EQ(g.payload, snapshot);
  ipmi::put_u16(g.payload, 0xBEEF);
  EXPECT_THROW(ipmi::put_u16(g.payload, 0xBEEF), std::length_error);
  ipmi::put_u8(g.payload, 0x42);
  EXPECT_EQ(g.payload.size(), ipmi::kMaxPayload);
  EXPECT_THROW(ipmi::put_u8(g.payload, 0x42), std::length_error);
  EXPECT_THROW(ipmi::put_u16(g.payload, 0x4242), std::length_error);
  EXPECT_EQ(g.payload.size(), ipmi::kMaxPayload);
  EXPECT_EQ(g.payload[ipmi::kMaxPayload - 1], 0x42);
  for (std::size_t i = 0; i < sizeof g.before; ++i) {
    EXPECT_EQ(g.before[i], 0xEE);
    EXPECT_EQ(g.after[i], 0xEE);
  }
}

TEST(IpmiFuzz, SeededGarbageAndMultiFlipsNeverCrash) {
  util::Rng rng(0xF022);
  // Pure garbage frames up to 4x the frame capacity: decode must reject or
  // produce a message the typed decoders handle without crashing. Every
  // other frame gets a self-consistent length field and checksum, so the
  // over-length check (not the length or checksum mismatch) must catch
  // the long ones.
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::uint8_t> frame(rng.below(4 * ipmi::kMaxFrame + 1));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    const bool as_request = rng.below(2) == 0;
    if (trial % 2 == 0 && frame.size() >= 6) {
      const std::size_t header = as_request ? 5 : 4;
      const std::size_t len = frame.size() - header - 1;
      frame[header - 2] = static_cast<std::uint8_t>(len & 0xFF);
      frame[header - 1] = static_cast<std::uint8_t>(len >> 8);
      fix_checksum(frame);
    }
    ipmi::Request request;
    ipmi::Response response;
    const bool req_ok = ipmi::decode_request(frame, request);
    const bool resp_ok = ipmi::decode_response(frame, response);
    if (trial % 2 == 0 && frame.size() >= 6) {
      const std::size_t header = as_request ? 5 : 4;
      EXPECT_EQ(as_request ? req_ok : resp_ok,
                frame.size() - header - 1 <= ipmi::kMaxPayload)
          << frame.size();
    }
    poke_all_decoders(req_ok ? request : ipmi::Request{},
                      resp_ok ? response : ipmi::Response{});
  }
  // Multi-byte mutations of valid frames: compensating flips can restore
  // the checksum, so a decode may succeed — the typed decoders must still
  // cope with whatever payload results.
  const std::vector<ipmi::Request> requests = fuzz_requests();
  const std::vector<ipmi::Response> responses = fuzz_responses();
  for (int trial = 0; trial < 4000; ++trial) {
    ipmi::Frame frame =
        trial % 2 == 0
            ? ipmi::encode_request(requests[rng.below(requests.size())])
            : ipmi::encode_response(responses[rng.below(responses.size())]);
    const std::size_t flips = 2 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      frame[rng.below(frame.size())] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    ipmi::Request request;
    ipmi::Response response;
    const bool req_ok = ipmi::decode_request(frame, request);
    const bool resp_ok = ipmi::decode_response(frame, response);
    poke_all_decoders(req_ok ? request : ipmi::Request{},
                      resp_ok ? response : ipmi::Response{});
  }
}

TEST(DcmRetry, ManagedNodeRetriesThroughHeavyLoss) {
  Slot slot(5);
  ipmi::FaultSpec spec;
  spec.drop_rate = 0.35;
  spec.duplicate_rate = 0.1;
  spec.corrupt_rate = 0.15;
  ipmi::FaultyTransport faulty(*slot.server, spec, 17);

  core::DcmConfig config;
  config.comms.backoff.max_attempts = 6;
  DataCenterManager dcm(config);
  bool added = false;
  for (int i = 0; i < 10 && !added; ++i) added = dcm.add_node("n", faulty);
  ASSERT_TRUE(added);
  for (int i = 0; i < 15; ++i) dcm.poll();
  ASSERT_NE(dcm.history("n"), nullptr);
  EXPECT_GT(dcm.history("n")->size(), 12u);  // retries hide ~50 % loss
  EXPECT_GT(dcm.node("n")->retries(), 0u);
  EXPECT_GT(dcm.node("n")->stale_rejections(), 0u);
  EXPECT_GT(dcm.node("n")->backoff_ms_total(), 0.0);
}

}  // namespace
}  // namespace pcap
