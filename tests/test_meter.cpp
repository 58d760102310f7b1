// Unit and property tests for the Watts Up meter analog.
#include <gtest/gtest.h>

#include "meter/watts_up.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pcap::meter {
namespace {

using util::microseconds;
using util::milliseconds;

TEST(EnergyIntegrator, RectangleRule) {
  EnergyIntegrator e;
  e.add(100.0, util::seconds(2.0));
  e.add(50.0, util::seconds(1.0));
  EXPECT_DOUBLE_EQ(e.joules(), 250.0);
  EXPECT_DOUBLE_EQ(e.average_watts(), 250.0 / 3.0);
  e.reset();
  EXPECT_EQ(e.joules(), 0.0);
}

TEST(WattsUp, ConstantPowerEnergy) {
  WattsUp meter(microseconds(100));
  meter.start_session(0);
  meter.observe(milliseconds(1.0), 150.0);
  EXPECT_NEAR(meter.energy_joules(), 150.0 * 0.001, 1e-12);
  EXPECT_NEAR(meter.average_watts(), 150.0, 1e-12);
}

TEST(WattsUp, SampleLogCadence) {
  WattsUp meter(microseconds(100));
  meter.start_session(0);
  for (int i = 1; i <= 10; ++i) {
    meter.observe(microseconds(100.0 * i), 120.0 + i);
  }
  EXPECT_EQ(meter.samples().size(), 10u);
  EXPECT_EQ(meter.samples().front().time, microseconds(100));
  EXPECT_EQ(meter.samples().back().time, microseconds(1000));
}

TEST(WattsUp, StepChangeSplitsEnergy) {
  WattsUp meter(microseconds(50));
  meter.start_session(0);
  meter.observe(microseconds(100), 100.0);  // 100 W for 100 us
  meter.observe(microseconds(200), 200.0);  // 200 W for 100 us
  EXPECT_NEAR(meter.energy_joules(), (100.0 + 200.0) * 100e-6, 1e-12);
  EXPECT_NEAR(meter.average_watts(), 150.0, 1e-9);
}

TEST(WattsUp, SessionResetClearsState) {
  WattsUp meter(microseconds(100));
  meter.start_session(0);
  meter.observe(milliseconds(1.0), 130.0);
  meter.start_session(milliseconds(1.0));
  EXPECT_EQ(meter.energy_joules(), 0.0);
  EXPECT_TRUE(meter.samples().empty());
  meter.observe(milliseconds(2.0), 110.0);
  EXPECT_NEAR(meter.average_watts(), 110.0, 1e-12);
}

TEST(WattsUp, BoundedLogTrimsOldest) {
  WattsUp meter(microseconds(10), /*max_log=*/5);
  meter.start_session(0);
  meter.observe(microseconds(200), 100.0);  // 20 sample boundaries
  EXPECT_EQ(meter.samples().size(), 5u);
  EXPECT_EQ(meter.samples().back().time, microseconds(200));
}

TEST(WattsUp, NonMonotonicObserveIsIgnored) {
  WattsUp meter(microseconds(100));
  meter.start_session(milliseconds(1.0));
  meter.observe(microseconds(500), 100.0);  // before session start
  EXPECT_EQ(meter.energy_joules(), 0.0);
}

// Property: integrated energy equals the sum of watts*dt for random traces.
class MeterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeterProperty, EnergyMatchesPiecewiseSum) {
  util::Rng rng(GetParam());
  WattsUp meter(microseconds(100.0 * (1 + GetParam() % 7)));
  meter.start_session(0);
  util::Picoseconds now = 0;
  double expected = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto dt = microseconds(rng.uniform(1.0, 400.0));
    const double watts = rng.uniform(95.0, 180.0);
    now += dt;
    meter.observe(now, watts);
    expected += watts * util::to_seconds(dt);
  }
  EXPECT_NEAR(meter.energy_joules(), expected, expected * 1e-9);
  EXPECT_EQ(meter.session_elapsed(), now);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeterProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace pcap::meter
