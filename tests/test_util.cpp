// Unit tests for the util module: units, RNG, statistics, CSV, tables,
// charts, logging, thread pool.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace pcap::util {
namespace {

TEST(Units, CyclePeriodRoundTrip) {
  EXPECT_EQ(cycle_period(1 * kGigaHertz), 1000u);
  EXPECT_EQ(cycle_period(2 * kGigaHertz), 500u);
  // 2.701 GHz -> 370.23.. ps, rounded to 370.
  EXPECT_EQ(cycle_period(2701 * kMegaHertz), 370u);
}

TEST(Units, CyclesIn) {
  EXPECT_EQ(cycles_in(seconds(1.0), 2701 * kMegaHertz), 2701000000u);
  EXPECT_EQ(cycles_in(milliseconds(1.0), 1200 * kMegaHertz), 1200000u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_nanoseconds(nanoseconds(60.0)), 60.0);
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(seconds(89.0)), "0:01:29.000");
  EXPECT_EQ(format_duration(seconds(3600.0 + 61.5)), "1:01:01.500");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(64), "64B");
  EXPECT_EQ(format_bytes(32 * 1024), "32K");
  EXPECT_EQ(format_bytes(20 * 1024 * 1024), "20M");
}

TEST(UnitsMore, CyclesToTime) {
  EXPECT_EQ(cycles_to_time(1000, 1 * kGigaHertz), 1000000u);
  // Round-trip at the Romley clock.
  const Hertz f = 2701 * kMegaHertz;
  const auto t = cycles_to_time(1000000, f);
  const auto cycles = cycles_in(t, f);
  EXPECT_NEAR(static_cast<double>(cycles), 1e6, 1e3);
}

TEST(UnitsMore, FormatHertz) {
  EXPECT_EQ(format_hertz(2701 * kMegaHertz), "2.70 GHz");
  EXPECT_EQ(format_hertz(1200 * kMegaHertz), "1.20 GHz");
  EXPECT_EQ(format_hertz(900 * kMegaHertz), "900 MHz");
  EXPECT_EQ(format_hertz(42), "42 Hz");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, ForkIndependent) {
  Rng parent(3);
  Rng child = parent.fork();
  EXPECT_NE(parent(), child());
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Csv, QuotesAndRows) {
  CsvWriter csv;
  csv.row({"a", "b,c", "d\"e"});
  csv.field(1.5).field(std::uint64_t{7});
  csv.end_row();
  EXPECT_EQ(csv.str(), "a,\"b,c\",\"d\"\"e\"\n1.5,7\n");
}

TEST(Csv, ParseRoundTripsWriter) {
  CsvWriter csv;
  csv.row({"name", "watts", "note"});
  csv.field("stereo").field(152.1).field(std::string_view("a,\"b\""));
  csv.end_row();
  const CsvTable table = parse_csv(csv.str());
  ASSERT_EQ(table.header.size(), 3u);
  EXPECT_EQ(table.header[1], "watts");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "stereo");
  EXPECT_EQ(table.rows[0][2], "a,\"b\"");
  EXPECT_EQ(table.column("watts"), 1);
  EXPECT_EQ(table.column("missing"), -1);
  EXPECT_DOUBLE_EQ(table.number(0, 1), 152.1);
  EXPECT_DOUBLE_EQ(table.number(0, 0), 0.0);   // non-numeric
  EXPECT_DOUBLE_EQ(table.number(5, 1), 0.0);   // out of range
}

TEST(Csv, ParseSkipsBlankLinesAndHandlesNoTrailingNewline) {
  const CsvTable table = parse_csv("a,b\n\n1,2\n3,4");
  EXPECT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "4");
}

TEST(Csv, ReadCsvFromDisk) {
  const std::string path = ::testing::TempDir() + "/read_test.csv";
  {
    CsvWriter csv(path);
    csv.row({"x", "y"});
    csv.field(std::uint64_t{1}).field(std::uint64_t{2});
    csv.end_row();
  }
  const CsvTable table = read_csv(path);
  EXPECT_EQ(table.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(table.number(0, table.column("y")), 2.0);
  EXPECT_THROW(read_csv("/nonexistent/file.csv"), std::runtime_error);
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("|    22 |"), std::string::npos);  // right-aligned
}

TEST(Table, GroupedThousands) {
  EXPECT_EQ(TextTable::grouped(1664150370ull), "1,664,150,370");
  EXPECT_EQ(TextTable::grouped(999), "999");
  EXPECT_EQ(TextTable::grouped(0), "0");
}

TEST(Table, PercentRounding) {
  EXPECT_EQ(TextTable::pct(24.5), "25");
  EXPECT_EQ(TextTable::pct(-20.4), "-20");
}

TEST(Chart, RendersSeriesAndLegend) {
  AsciiChart chart({"a", "b", "c"}, 30, 8);
  chart.add_series({"one", {1.0, 2.0, 3.0}});
  chart.add_series({"two", {3.0, 2.0, 1.0}});
  const std::string out = chart.render();
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("one"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Chart, LogScaleHandlesDecades) {
  AsciiChart chart({"x1", "x2"}, 30, 8);
  chart.set_log_y(true);
  chart.add_series({"s", {1.0, 1000.0}});
  EXPECT_FALSE(chart.render().empty());
}

TEST(TimeSeriesChart, PlacesPointsByTimestamp) {
  TimeSeriesChart chart(40, 10);
  // Two series with different cadences share the axis: the step lands in
  // the right half of the grid even though the series lengths differ.
  chart.add_series({"power", {0.0, 0.1, 0.2, 0.3, 0.4}, {150, 150, 150, 125, 125}});
  chart.add_series({"cap", {0.0, 0.4}, {160, 120}});
  const std::string out = chart.render();
  EXPECT_NE(out.find("x: time (s)"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("power"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  // The time axis is labelled with the data's endpoints.
  EXPECT_NE(out.find("0.4"), std::string::npos);
}

TEST(TimeSeriesChart, EmptyRendersNothing) {
  TimeSeriesChart chart(20, 6);
  EXPECT_TRUE(chart.render().empty());
  chart.add_series({"s", {}, {}});
  EXPECT_TRUE(chart.render().empty());
}

constexpr const char* kNestedDoc =
    R"({"traceEvents":[{"name":"set-cap","ph":"i","ts":1.5,)"
    R"("args":{"watts":150}}],"displayTimeUnit":"ms","ok":true,"n":null})";
constexpr const char* kEscapesDoc = R"(["a\"b\n\tA", -1.25e2, 0, []])";

TEST(Json, ParsesNestedDocument) {
  const auto doc = parse_json(kNestedDoc);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 1u);
  const JsonValue& e = events->as_array()[0];
  EXPECT_EQ(e.find("name")->as_string(), "set-cap");
  EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 1.5);
  EXPECT_DOUBLE_EQ(e.find("args")->find("watts")->as_number(), 150.0);
  EXPECT_TRUE(doc->find("ok")->as_bool());
  EXPECT_TRUE(doc->find("n")->is_null());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, ParsesEscapesAndNumbers) {
  const auto doc = parse_json(kEscapesDoc);
  ASSERT_TRUE(doc.has_value());
  const JsonArray& a = doc->as_array();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].as_string(), "a\"b\n\tA");
  EXPECT_DOUBLE_EQ(a[1].as_number(), -125.0);
  EXPECT_TRUE(a[3].is_array());
  EXPECT_TRUE(a[3].as_array().empty());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json(R"({"a":1,})").has_value());
  EXPECT_FALSE(parse_json("[1 2]").has_value());
  EXPECT_FALSE(parse_json(R"("unterminated)").has_value());
  EXPECT_FALSE(parse_json("true false").has_value());  // trailing garbage
  EXPECT_FALSE(parse_json("").has_value());
}

// JsonFuzz: parse_json reads files from disk (amenability tables, learner
// state), so it is fuzzed like the other byte loaders.

/// The valid documents above, compact and pretty-printed.
std::vector<std::string> valid_docs() {
  std::vector<std::string> docs{kNestedDoc, kEscapesDoc};
  for (const char* text : {kNestedDoc, kEscapesDoc}) {
    docs.push_back(json_to_string(*parse_json(text), 2));
  }
  return docs;
}

TEST(JsonFuzz, EveryTruncationRejected) {
  for (const std::string& doc : valid_docs()) {
    ASSERT_TRUE(parse_json(doc).has_value()) << doc;
    for (std::size_t len = 0; len < doc.size(); ++len) {
      EXPECT_FALSE(parse_json(doc.substr(0, len)).has_value())
          << "prefix " << len << " of " << doc;
    }
  }
}

TEST(JsonFuzz, DeepNestingAndOverflowRejected) {
  EXPECT_TRUE(parse_json(std::string(200, '[') + std::string(200, ']')));
  EXPECT_FALSE(parse_json(std::string(100000, '[')).has_value());
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += R"({"a":)";
  EXPECT_FALSE(parse_json(objects).has_value());
  // Out-of-range numbers overflow strtod to infinity, which JSON cannot
  // express (and json_to_string could not write back).
  EXPECT_FALSE(parse_json("1e999").has_value());
  EXPECT_FALSE(parse_json("[-1e999]").has_value());
}

TEST(JsonFuzz, SeededGarbageNeverCrashes) {
  // Garbage drawn mostly from JSON's own alphabet (so it gets past the
  // first byte), plus byte mutations of the valid documents. A document
  // that happens to parse must survive a serialize/parse round trip.
  const std::string alphabet = R"({}[]:,"\ -+.eE0123456789truefalsn/bu)";
  const std::vector<std::string> docs = valid_docs();
  Rng rng(0x150F);
  for (int trial = 0; trial < 6000; ++trial) {
    std::string text;
    if (trial % 2 == 0) {
      text.resize(rng.below(256));
      for (char& c : text) {
        c = rng.below(8) == 0 ? static_cast<char>(rng.below(256))
                              : alphabet[rng.below(alphabet.size())];
      }
    } else {
      text = docs[rng.below(docs.size())];
      for (int k = 0; k < 1 + static_cast<int>(rng.below(4)); ++k) {
        text[rng.below(text.size())] = static_cast<char>(rng.below(256));
      }
    }
    const auto doc = parse_json(text);
    if (doc.has_value()) {
      const std::string again = json_to_string(*doc);
      const auto reparsed = parse_json(again);
      ASSERT_TRUE(reparsed.has_value()) << text;
      EXPECT_EQ(json_to_string(*reparsed), again);
    }
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  std::vector<std::atomic<int>> hits(50);
  parallel_for(50, 4, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSerialFallback) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace pcap::util
