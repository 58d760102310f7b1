// Tests for the telemetry subsystem: ring wraparound, windowed aggregates
// against a naive reference, reducer group math, Chrome-trace JSON validity
// (parsed back with util::parse_json), and the load-bearing guarantee that
// attaching telemetry leaves simulated study results bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "harness/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcap::telemetry {
namespace {

// --- RingBuffer ---

TEST(RingBuffer, FillsThenWrapsOverwritingOldest) {
  RingBuffer<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 4u);
  for (int v = 1; v <= 3; ++v) ring.push(v);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_FALSE(ring.wrapped());
  EXPECT_EQ(ring.front(), 1);
  EXPECT_EQ(ring.back(), 3);

  for (int v = 4; v <= 10; ++v) ring.push(v);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_TRUE(ring.wrapped());
  // Oldest-first iteration over the retained tail: 7, 8, 9, 10.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i), static_cast<int>(7 + i));
  }
  EXPECT_EQ(ring.front(), 7);
  EXPECT_EQ(ring.back(), 10);

  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_FALSE(ring.wrapped());
}

// --- Sampler ---

NodeSample watts_sample(util::Picoseconds t, double watts) {
  NodeSample s;
  s.time = t;
  s.watts = watts;
  return s;
}

TEST(Sampler, DueRespectsPeriodAndSkipsMissedBoundaries) {
  SamplerConfig config;
  config.period = util::microseconds(10);
  Sampler sampler(config);
  EXPECT_FALSE(sampler.due(util::microseconds(9)));
  EXPECT_TRUE(sampler.due(util::microseconds(10)));
  sampler.record(watts_sample(util::microseconds(10), 100.0));
  EXPECT_FALSE(sampler.due(util::microseconds(19)));
  // A long stall past several boundaries yields ONE sample, then the next
  // boundary is beyond the stall — no burst of stale duplicates.
  EXPECT_TRUE(sampler.due(util::microseconds(55)));
  sampler.record(watts_sample(util::microseconds(55), 101.0));
  EXPECT_FALSE(sampler.due(util::microseconds(59)));
  EXPECT_TRUE(sampler.due(util::microseconds(60)));
  EXPECT_EQ(sampler.size(), 2u);
}

// Naive reference for Aggregate: sort-and-scan over the last `window`.
Aggregate naive_aggregate(const std::vector<double>& all, std::size_t window) {
  Aggregate agg;
  const std::size_t count =
      (window == 0 || window > all.size()) ? all.size() : window;
  if (count == 0) return agg;
  std::vector<double> v(all.end() - static_cast<std::ptrdiff_t>(count),
                        all.end());
  std::sort(v.begin(), v.end());
  agg.count = count;
  agg.min = v.front();
  agg.max = v.back();
  double sum = 0.0;
  for (double x : v) sum += x;
  agg.mean = sum / static_cast<double>(count);
  const double rank = 0.95 * static_cast<double>(count - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count - 1);
  agg.p95 = v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
  return agg;
}

TEST(Sampler, WindowedAggregatesMatchNaiveReference) {
  SamplerConfig config;
  config.period = util::microseconds(1);
  Sampler sampler(config, 64);
  // Deterministic pseudo-random-ish series, enough to wrap the ring.
  std::vector<double> recorded;
  for (int i = 1; i <= 100; ++i) {
    const double w = 100.0 + 37.0 * std::sin(0.7 * i) + (i % 13);
    sampler.record(watts_sample(util::microseconds(i), w));
    recorded.push_back(w);
  }
  ASSERT_EQ(sampler.size(), 64u);
  ASSERT_EQ(sampler.taken(), 100u);
  // The ring retains the last 64; the naive reference sees the same tail.
  const std::vector<double> retained(recorded.end() - 64, recorded.end());
  const auto select = [](const NodeSample& s) { return s.watts; };
  for (std::size_t window : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                             std::size_t{17}, std::size_t{64},
                             std::size_t{999}}) {
    const Aggregate got = sampler.aggregate(select, window);
    const Aggregate want = naive_aggregate(retained, window);
    EXPECT_EQ(got.count, want.count) << "window " << window;
    EXPECT_DOUBLE_EQ(got.min, want.min) << "window " << window;
    EXPECT_DOUBLE_EQ(got.mean, want.mean) << "window " << window;
    EXPECT_DOUBLE_EQ(got.max, want.max) << "window " << window;
    EXPECT_DOUBLE_EQ(got.p95, want.p95) << "window " << window;
  }
  EXPECT_EQ(sampler.aggregate(select, 0).count, 64u);
}

// Windowed aggregates at the ring's wrap edge: exactly capacity-1,
// capacity, and capacity+1 recorded samples must all agree with the naive
// tail reference.
TEST(Sampler, WindowedReadsCorrectAtRingWrapEdges) {
  constexpr std::size_t kCapacity = 32;
  const auto select = [](const NodeSample& s) { return s.watts; };
  for (const std::size_t pushes :
       {kCapacity - 1, kCapacity, kCapacity + 1}) {
    SamplerConfig config;
    config.period = util::microseconds(1);
    Sampler sampler(config, kCapacity);
    std::vector<double> recorded;
    for (std::size_t i = 1; i <= pushes; ++i) {
      const double w = 100.0 + static_cast<double>(i * i % 29);
      sampler.record(watts_sample(util::microseconds(i), w));
      recorded.push_back(w);
    }
    const std::size_t retained_n = std::min(pushes, kCapacity);
    ASSERT_EQ(sampler.size(), retained_n) << "pushes " << pushes;
    const std::vector<double> retained(
        recorded.end() - static_cast<std::ptrdiff_t>(retained_n),
        recorded.end());

    for (const std::size_t window :
         {std::size_t{0}, std::size_t{1}, kCapacity / 2, retained_n,
          retained_n + 1}) {
      const Aggregate agg = sampler.aggregate(select, window);
      const Aggregate want = naive_aggregate(retained, window);
      EXPECT_EQ(agg.count, want.count);
      EXPECT_DOUBLE_EQ(agg.min, want.min);
      EXPECT_DOUBLE_EQ(agg.mean, want.mean);
      EXPECT_DOUBLE_EQ(agg.max, want.max);
      EXPECT_DOUBLE_EQ(agg.p95, want.p95);
    }
  }
}

// --- Reducer ---

Sampler make_sampler(util::Picoseconds period,
                     const std::vector<std::pair<double, double>>& points) {
  SamplerConfig config;
  config.period = period;
  Sampler sampler(config);
  for (const auto& [t_us, w] : points) {
    sampler.record(watts_sample(
        static_cast<util::Picoseconds>(util::microseconds(1) * t_us), w));
  }
  return sampler;
}

TEST(Reducer, AlignSnapsToGridWithZeroOrderHold) {
  // Samples at 3, 13, 23 us; grid period 10 us -> edges 10 and 20 covered
  // by zero-order hold of the last sample at-or-before each edge.
  const Sampler s = make_sampler(
      util::microseconds(10), {{3.0, 100.0}, {13.0, 110.0}, {23.0, 120.0}});
  Reducer reducer(util::microseconds(10));
  const GroupSeries series = reducer.align(s, "n");
  ASSERT_EQ(series.bins.size(), 2u);
  EXPECT_EQ(series.bins[0].time, util::microseconds(10));
  EXPECT_DOUBLE_EQ(series.bins[0].mean_w, 100.0);
  EXPECT_EQ(series.bins[1].time, util::microseconds(20));
  EXPECT_DOUBLE_EQ(series.bins[1].mean_w, 110.0);
  EXPECT_EQ(series.bins[0].nodes, 1u);
}

TEST(Reducer, MergeCombinesEqualBinsAndInterleavesOthers) {
  const Sampler a =
      make_sampler(util::microseconds(10), {{0.0, 100.0}, {10.0, 120.0}});
  const Sampler b = make_sampler(util::microseconds(10),
                                 {{0.0, 140.0}, {10.0, 160.0}, {20.0, 150.0}});
  Reducer reducer(util::microseconds(10));
  const GroupSeries merged =
      Reducer::merge(reducer.align(a, "a"), reducer.align(b, "b"));
  ASSERT_EQ(merged.bins.size(), 3u);
  // Bin at t=0: both nodes present.
  EXPECT_EQ(merged.bins[0].nodes, 2u);
  EXPECT_DOUBLE_EQ(merged.bins[0].min_w, 100.0);
  EXPECT_DOUBLE_EQ(merged.bins[0].max_w, 140.0);
  EXPECT_DOUBLE_EQ(merged.bins[0].sum_w, 240.0);
  EXPECT_DOUBLE_EQ(merged.bins[0].mean_w, 120.0);
  // Bin at t=20 us exists only in b and passes through untouched.
  EXPECT_EQ(merged.bins[2].nodes, 1u);
  EXPECT_DOUBLE_EQ(merged.bins[2].sum_w, 150.0);
}

TEST(Reducer, ReduceMatchesManualMergeFoldEitherAssociation) {
  const Sampler a =
      make_sampler(util::microseconds(10), {{0.0, 101.0}, {10.0, 102.0}});
  const Sampler b =
      make_sampler(util::microseconds(10), {{0.0, 111.0}, {10.0, 112.0}});
  const Sampler c = make_sampler(util::microseconds(10),
                                 {{0.0, 121.0}, {10.0, 122.0}, {20.0, 123.0}});
  Reducer reducer(util::microseconds(10));
  const std::vector<const Sampler*> samplers = {&a, &b, &c};
  const GroupSeries tree = reducer.reduce(samplers, "rack");
  const GroupSeries left = Reducer::merge(
      Reducer::merge(reducer.align(a, ""), reducer.align(b, "")),
      reducer.align(c, ""));
  const GroupSeries right = Reducer::merge(
      reducer.align(a, ""),
      Reducer::merge(reducer.align(b, ""), reducer.align(c, "")));
  EXPECT_EQ(tree.name, "rack");
  ASSERT_EQ(tree.bins.size(), 3u);
  for (const GroupSeries* other : {&left, &right}) {
    ASSERT_EQ(other->bins.size(), tree.bins.size());
    for (std::size_t i = 0; i < tree.bins.size(); ++i) {
      EXPECT_EQ(tree.bins[i].time, other->bins[i].time);
      EXPECT_EQ(tree.bins[i].nodes, other->bins[i].nodes);
      EXPECT_DOUBLE_EQ(tree.bins[i].min_w, other->bins[i].min_w);
      EXPECT_DOUBLE_EQ(tree.bins[i].mean_w, other->bins[i].mean_w);
      EXPECT_DOUBLE_EQ(tree.bins[i].max_w, other->bins[i].max_w);
      EXPECT_DOUBLE_EQ(tree.bins[i].sum_w, other->bins[i].sum_w);
    }
  }
  // Spot-check the combined bin at t=0: three nodes, sum 333.
  EXPECT_EQ(tree.bins[0].nodes, 3u);
  EXPECT_DOUBLE_EQ(tree.bins[0].sum_w, 333.0);
  EXPECT_DOUBLE_EQ(tree.bins[0].min_w, 101.0);
  EXPECT_DOUBLE_EQ(tree.bins[0].max_w, 121.0);
  EXPECT_NEAR(tree.bins[0].mean_w, 111.0, 1e-12);
}

// --- TraceWriter: serialized trace parses back as valid JSON ---

const util::JsonValue* find_event(const util::JsonValue& events,
                                  const std::string& name) {
  for (std::size_t i = 0; i < events.as_array().size(); ++i) {
    const util::JsonValue& e = events.as_array()[i];
    const util::JsonValue* n = e.find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) return &e;
  }
  return nullptr;
}

TEST(Reducer, FleetScaleFanInAssociativeAndCommutative) {
  // 1200 synthetic node series with staggered starts and irregular
  // cadences: the tree fan-in, the left fold, the reversed fold and a
  // rotated fold agree on every bin's edge, node count, min and max for
  // any watts. Here the watt values are small integers, so double
  // summation is exact and the sums agree bit for bit as well; with
  // non-integer watts they do not (FanInOrderIsFixedForNonIntegerWatts).
  const util::Picoseconds period = util::microseconds(200);
  Reducer reducer(period);
  std::vector<std::unique_ptr<Sampler>> samplers;
  std::vector<const Sampler*> ptrs;
  for (int i = 0; i < 1200; ++i) {
    SamplerConfig config;
    config.period = period;
    auto sampler = std::make_unique<Sampler>(config);
    const util::Picoseconds start =
        util::microseconds(static_cast<std::uint64_t>(i % 7) * 130);
    const util::Picoseconds stride =
        util::microseconds(170 + static_cast<std::uint64_t>(i % 5) * 40);
    for (int k = 0; k < 18; ++k) {
      NodeSample sample;
      sample.time = start + static_cast<std::uint64_t>(k) * stride;
      sample.watts = static_cast<double>(1 + (i * 7 + k * 13) % 500);
      sampler->record(sample);
    }
    ptrs.push_back(sampler.get());
    samplers.push_back(std::move(sampler));
  }

  const GroupSeries tree = reducer.reduce(ptrs, "fleet");

  const auto fold = [&](const std::vector<const Sampler*>& order) {
    GroupSeries acc;
    for (const Sampler* sampler : order) {
      acc = Reducer::merge(acc, reducer.align(*sampler, "n"));
    }
    acc.name = "fleet";
    return acc;
  };
  std::vector<const Sampler*> reversed(ptrs.rbegin(), ptrs.rend());
  std::vector<const Sampler*> rotated(ptrs.begin() + 517, ptrs.end());
  rotated.insert(rotated.end(), ptrs.begin(), ptrs.begin() + 517);

  for (const GroupSeries& other : {fold(ptrs), fold(reversed), fold(rotated)}) {
    ASSERT_EQ(other.bins.size(), tree.bins.size());
    for (std::size_t b = 0; b < tree.bins.size(); ++b) {
      EXPECT_EQ(other.bins[b].time, tree.bins[b].time);
      EXPECT_EQ(other.bins[b].nodes, tree.bins[b].nodes);
      EXPECT_EQ(other.bins[b].min_w, tree.bins[b].min_w);
      EXPECT_EQ(other.bins[b].max_w, tree.bins[b].max_w);
      EXPECT_EQ(other.bins[b].sum_w, tree.bins[b].sum_w);
      EXPECT_EQ(other.bins[b].mean_w, tree.bins[b].mean_w);
    }
  }

  std::size_t max_nodes = 0;
  for (const GroupSample& bin : tree.bins) {
    max_nodes = std::max(max_nodes, bin.nodes);
  }
  EXPECT_EQ(max_nodes, 1200u);
}

TEST(Reducer, ZeroOrderHoldBridgesPartitionGaps) {
  // Node A goes quiet between 3P and 8P (a management-plane partition
  // stops its collector): the aligned series holds the last value across
  // the gap. Node B only starts at 5P: bins before its first sample get no
  // contribution from it.
  const util::Picoseconds period = util::microseconds(200);
  Reducer reducer(period);
  SamplerConfig config;
  config.period = period;
  Sampler a(config), b(config);
  for (const int k : {0, 1, 2, 3, 8, 9, 10}) {
    NodeSample sample;
    sample.time = static_cast<std::uint64_t>(k) * period;
    sample.watts = k < 8 ? 100.0 : 300.0;
    a.record(sample);
  }
  for (int k = 5; k <= 10; ++k) {
    NodeSample sample;
    sample.time = static_cast<std::uint64_t>(k) * period;
    sample.watts = 50.0;
    b.record(sample);
  }

  const GroupSeries merged =
      Reducer::merge(reducer.align(a, "a"), reducer.align(b, "b"));
  ASSERT_EQ(merged.bins.size(), 11u);
  for (std::size_t k = 0; k < merged.bins.size(); ++k) {
    const GroupSample& bin = merged.bins[k];
    EXPECT_EQ(bin.time, k * period);
    const double a_w = k < 8 ? 100.0 : 300.0;  // held at 100 through the gap
    if (k < 5) {
      EXPECT_EQ(bin.nodes, 1u) << k;
      EXPECT_EQ(bin.sum_w, a_w) << k;
    } else {
      EXPECT_EQ(bin.nodes, 2u) << k;
      EXPECT_EQ(bin.sum_w, a_w + 50.0) << k;
      EXPECT_EQ(bin.min_w, 50.0) << k;
      EXPECT_EQ(bin.max_w, a_w) << k;
    }
  }
}

TEST(Reducer, FanInOrderIsFixedForNonIntegerWatts) {
  // With non-integer watts the double sum depends on the fan-in order:
  // reduce() pairs (0,1),(2,3) and then the pairs; a left fold adds one
  // leaf at a time. min, max and the node count agree, the sums do not.
  const double watts[4] = {100.1, 100.1, 100.1, 100.2};
  std::vector<Sampler> samplers;
  for (const double w : watts) {
    samplers.push_back(make_sampler(util::microseconds(10), {{0.0, w}}));
  }
  Reducer reducer(util::microseconds(10));
  const std::vector<const Sampler*> ptrs = {&samplers[0], &samplers[1],
                                            &samplers[2], &samplers[3]};
  const GroupSeries tree = reducer.reduce(ptrs, "rack");
  GroupSeries left;
  for (const Sampler* s : ptrs) left = Reducer::merge(left, reducer.align(*s, ""));

  ASSERT_EQ(tree.bins.size(), 1u);
  ASSERT_EQ(left.bins.size(), 1u);
  EXPECT_EQ(tree.bins[0].sum_w, (watts[0] + watts[1]) + (watts[2] + watts[3]));
  EXPECT_EQ(left.bins[0].sum_w, ((watts[0] + watts[1]) + watts[2]) + watts[3]);
  EXPECT_NE(tree.bins[0].sum_w, left.bins[0].sum_w);
  EXPECT_EQ(tree.bins[0].nodes, left.bins[0].nodes);
  EXPECT_EQ(tree.bins[0].min_w, left.bins[0].min_w);
  EXPECT_EQ(tree.bins[0].max_w, left.bins[0].max_w);
}

// --- GroupSeriesBuilder ---

void expect_bins_identical(std::span<const GroupSample> got,
                           const std::vector<GroupSample>& want,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(got[b].time, want[b].time) << what << " bin " << b;
    EXPECT_EQ(got[b].nodes, want[b].nodes) << what << " bin " << b;
    EXPECT_EQ(got[b].min_w, want[b].min_w) << what << " bin " << b;
    EXPECT_EQ(got[b].mean_w, want[b].mean_w) << what << " bin " << b;
    EXPECT_EQ(got[b].max_w, want[b].max_w) << what << " bin " << b;
    EXPECT_EQ(got[b].sum_w, want[b].sum_w) << what << " bin " << b;
  }
}

TEST(GroupSeriesBuilder, MatchesReduceBitForBit) {
  // One Sampler per node and one builder, fed the same non-integer draws
  // on one clock. The clock ticks every 70 us against a 200 us grid, so
  // samples land on grid edges (every 1400 us) and between them, and it
  // stalls now and then, skipping boundaries (held bins). With
  // `late`, every third node reports only from the fourth sample on (an
  // absent leaf before that). A capacity of 5 slides the retention window.
  const util::Picoseconds period = util::microseconds(200);
  for (const std::size_t nodes : {1u, 2u, 3u, 16u, 17u}) {
    for (const std::size_t capacity : {4096u, 5u}) {
      for (const bool late : {false, true}) {
        const std::string what = "nodes=" + std::to_string(nodes) +
                                 " capacity=" + std::to_string(capacity) +
                                 " late=" + std::to_string(late);
        SamplerConfig config;
        config.period = period;
        std::vector<Sampler> samplers(nodes, Sampler(config, capacity));
        GroupSeriesBuilder builder("rack", nodes, config, capacity);
        std::vector<double> draws(nodes);
        util::Rng rng(nodes * 31 + capacity);
        util::Picoseconds now = 0;
        std::size_t on_edge = 0, between = 0, held = 0;
        for (int tick = 0; tick < 400; ++tick) {
          now += util::microseconds(tick % 37 == 36 ? 900 : 70);
          ASSERT_EQ(builder.due(now), samplers[0].due(now)) << what;
          if (!builder.due(now)) continue;
          (now % period == 0 ? on_edge : between) += 1;
          const std::size_t k = builder.taken();
          for (std::size_t i = 0; i < nodes; ++i) {
            if (late && i % 3 == 1 && k < 3) {
              draws[i] = std::nan("");
              continue;
            }
            draws[i] = rng.uniform(95.0, 260.0);
            samplers[i].record(watts_sample(now, draws[i]));
          }
          const std::size_t before = builder.bins().size();
          builder.record(now, draws);
          if (builder.bins().size() > before + 1) ++held;
        }
        EXPECT_GT(on_edge, 0u) << what;
        EXPECT_GT(between, 0u) << what;
        EXPECT_GT(held, 0u) << what;

        std::vector<const Sampler*> ptrs;
        for (const Sampler& s : samplers) ptrs.push_back(&s);
        const GroupSeries want = Reducer(period).reduce(ptrs, "rack");
        expect_bins_identical(builder.bins(), want.bins, what);
        const GroupSeries taken = builder.take();
        EXPECT_EQ(taken.name, "rack");
        expect_bins_identical(taken.bins, want.bins, what);
        EXPECT_TRUE(builder.bins().empty()) << what;
        if (capacity == 5) {
          EXPECT_TRUE(samplers[0].series().wrapped()) << what;
          EXPECT_LT(want.bins.size(), 20u) << what;
        }
      }
    }
  }
}

TEST(GroupSeriesBuilder, RejectsMissingDraws) {
  SamplerConfig config;
  config.period = util::microseconds(10);
  GroupSeriesBuilder builder("rack", 2, config);
  const double wrong_size[1] = {100.0};
  EXPECT_THROW(builder.record(util::microseconds(10), wrong_size),
               std::invalid_argument);
  const double first[2] = {100.0, std::nan("")};  // node 1 not yet reporting
  builder.record(util::microseconds(10), first);
  ASSERT_EQ(builder.bins().size(), 1u);
  EXPECT_EQ(builder.bins()[0].nodes, 1u);
  const double dropped[2] = {std::nan(""), 101.0};  // node 0 went quiet
  EXPECT_THROW(builder.record(util::microseconds(20), dropped),
               std::invalid_argument);
}

TEST(TraceWriter, JsonParsesBackWithSpansInstantsAndMetadata) {
  TraceWriter trace;
  const std::uint32_t ipmi_track = trace.track("ipmi:node-0");
  const std::uint32_t dcm_track = trace.track("dcm");
  trace.span(ipmi_track, "ipmi", "SetPowerLimit", 100.0, 40.0,
             {TraceArg::num("attempts", 3), TraceArg::str("outcome", "ok")});
  trace.instant(dcm_track, "health", "node-0:degraded", 120.0,
                {TraceArg::num("failures", 2)});
  trace.counter(ipmi_track, "watts", 100.0, 131.5);
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_EQ(trace.track_count(), 2u);

  const auto parsed = util::parse_json(trace.json());
  ASSERT_TRUE(parsed.has_value());
  const util::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 3 real events + one thread_name metadata event per track.
  EXPECT_EQ(events->as_array().size(), 5u);

  const util::JsonValue* span = find_event(*events, "SetPowerLimit");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(span->find("ts")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(span->find("dur")->as_number(), 40.0);
  EXPECT_EQ(span->find("cat")->as_string(), "ipmi");
  const util::JsonValue* span_args = span->find("args");
  ASSERT_NE(span_args, nullptr);
  EXPECT_DOUBLE_EQ(span_args->find("attempts")->as_number(), 3.0);
  EXPECT_EQ(span_args->find("outcome")->as_string(), "ok");

  const util::JsonValue* instant = find_event(*events, "node-0:degraded");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->find("ph")->as_string(), "i");
  EXPECT_EQ(instant->find("s")->as_string(), "t");

  const util::JsonValue* meta = find_event(*events, "thread_name");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("ph")->as_string(), "M");

  // Counter event carries its value in args.
  const util::JsonValue* counter = find_event(*events, "watts");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->find("ph")->as_string(), "C");
}

TEST(TraceWriter, DisabledWriterRecordsNothing) {
  TraceWriter trace(false);
  const std::uint32_t t = trace.track("quiet");
  trace.span(t, "c", "n", 0.0, 1.0);
  trace.instant(t, "c", "n", 0.0);
  trace.counter(t, "n", 0.0, 1.0);
  EXPECT_EQ(trace.event_count(), 0u);
}

// --- NodeProbe annotations land in subsequent samples ---

TEST(NodeProbe, AnnotationsStampIntoSamples) {
  TelemetryConfig config;
  config.enabled = true;
  config.sample_period = util::microseconds(10);
  NodeProbe probe(config, nullptr, "n0");
  ProbeInput in;
  in.now = util::microseconds(10);
  in.watts = 120.0;
  probe.on_tick(in);
  probe.note_cap(130.0);
  probe.note_throttle_level(2);
  probe.note_health(1);
  in.now = util::microseconds(20);
  probe.on_tick(in);
  ASSERT_EQ(probe.sampler().size(), 2u);
  const NodeSample& first = probe.sampler().series().at(0);
  const NodeSample& second = probe.sampler().series().at(1);
  EXPECT_DOUBLE_EQ(first.cap_w, 0.0);
  EXPECT_EQ(first.throttle_level, 0u);
  EXPECT_DOUBLE_EQ(second.cap_w, 130.0);
  EXPECT_EQ(second.throttle_level, 2u);
  EXPECT_EQ(second.health, 1);
}

TEST(NodeProbe, DisabledProbeNeverSamples) {
  NodeProbe probe;  // default config: disabled
  EXPECT_FALSE(probe.wants_sample(util::seconds(1)));
  ProbeInput in;
  in.now = util::seconds(1);
  probe.on_tick(in);
  EXPECT_EQ(probe.sampler().size(), 0u);
}

// --- The guarantee everything above rides on: telemetry is read-only ---

harness::WorkloadFactory phased_factory() {
  return [] {
    apps::PhasedParams p;
    p.phases = 3;
    p.mean_phase_uops = 120000;
    return std::make_unique<apps::PhasedWorkload>(p);
  };
}

TEST(Telemetry, StudyResultsBitIdenticalOnAndOff) {
  harness::StudyConfig off;
  off.caps_w = {150.0, 125.0};
  off.repetitions = 2;

  harness::StudyConfig on = off;
  on.telemetry.enabled = true;
  on.telemetry.sample_period = util::microseconds(50);
  std::vector<std::string> labels;
  std::size_t sampled = 0;
  on.telemetry_sink = [&](const std::string& label, const Sampler& sampler) {
    labels.push_back(label);
    sampled += sampler.size();
  };

  const harness::StudyResult a =
      run_power_cap_study("phased", phased_factory(), off);
  const harness::StudyResult b =
      run_power_cap_study("phased", phased_factory(), on);

  // The sink really ran and saw data (the probe is live, not a stub)...
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "baseline");
  EXPECT_EQ(labels[1], "cap-150");
  EXPECT_EQ(labels[2], "cap-125");
  EXPECT_GT(sampled, 0u);

  // ...and every measured quantity is bit-identical to the untelemetered
  // run: the probe only reads.
  const auto expect_identical = [](const harness::CellStats& x,
                                   const harness::CellStats& y) {
    EXPECT_EQ(x.time_s, y.time_s);
    EXPECT_EQ(x.time_stddev_s, y.time_stddev_s);
    EXPECT_EQ(x.avg_power_w, y.avg_power_w);
    EXPECT_EQ(x.power_stddev_w, y.power_stddev_w);
    EXPECT_EQ(x.energy_j, y.energy_j);
    EXPECT_EQ(x.avg_frequency, y.avg_frequency);
    EXPECT_EQ(x.avg_duty, y.avg_duty);
    for (std::size_t i = 0; i < x.counters.size(); ++i) {
      EXPECT_EQ(x.counters[i], y.counters[i]) << "counter " << i;
    }
  };
  expect_identical(a.baseline, b.baseline);
  ASSERT_EQ(a.capped.size(), b.capped.size());
  for (std::size_t i = 0; i < a.capped.size(); ++i) {
    expect_identical(a.capped[i], b.capped[i]);
  }
}

}  // namespace
}  // namespace pcap::telemetry
