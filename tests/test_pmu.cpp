// Unit tests for the PAPI-like counter substrate.
#include <gtest/gtest.h>

#include "pmu/counters.hpp"
#include "pmu/events.hpp"

namespace pcap::pmu {
namespace {

TEST(CounterBank, AccumulatesAndResets) {
  CounterBank bank;
  bank.add(Event::kTotCyc, 100);
  bank.add(Event::kTotCyc);
  bank.add(Event::kL2Tcm, 7);
  EXPECT_EQ(bank.get(Event::kTotCyc), 101u);
  EXPECT_EQ(bank.get(Event::kL2Tcm), 7u);
  EXPECT_EQ(bank.get(Event::kL3Tcm), 0u);
  bank.reset();
  EXPECT_EQ(bank.get(Event::kTotCyc), 0u);
}

}  // namespace
}  // namespace pcap::pmu
