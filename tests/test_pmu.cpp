// Unit tests for the PAPI-like counter substrate.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "pmu/counters.hpp"
#include "pmu/events.hpp"

namespace pcap::pmu {
namespace {

TEST(Events, NamesRoundTrip) {
  for (Event e : all_events()) {
    EXPECT_EQ(event_from_name(event_name(e)), e);
  }
}

TEST(Events, UnknownNameMapsToCount) {
  EXPECT_EQ(event_from_name("PAPI_NOT_A_THING"), Event::kCount);
}

TEST(Events, NamesAreUniqueAndPrefixed) {
  std::set<std::string_view> names;
  for (Event e : all_events()) {
    const auto name = event_name(e);
    EXPECT_TRUE(name.starts_with("PCAP_")) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
}

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
