// Tests for the experiment harness: the study runner, paper reference data,
// table/figure renderers, CSV emission and the bench CLI parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "apps/stride/stride.hpp"
#include "apps/synthetic.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/paper_reference.hpp"
#include "harness/report.hpp"

namespace pcap::harness {
namespace {

WorkloadFactory phased_factory() {
  return [] {
    apps::PhasedParams p;
    p.phases = 4;
    p.mean_phase_uops = 200000;
    return std::make_unique<apps::PhasedWorkload>(p);
  };
}

StudyConfig quick_config() {
  StudyConfig config;
  config.caps_w = {150.0, 125.0};
  config.repetitions = 2;
  return config;
}

TEST(Study, PopulatesBaselineAndCells) {
  const StudyResult result =
      run_power_cap_study("phased", phased_factory(), quick_config());
  EXPECT_EQ(result.workload, "phased");
  EXPECT_EQ(result.baseline.repetitions, 2);
  EXPECT_FALSE(result.baseline.cap_w.has_value());
  ASSERT_EQ(result.capped.size(), 2u);
  EXPECT_DOUBLE_EQ(*result.capped[0].cap_w, 150.0);
  EXPECT_GT(result.baseline.time_s, 0.0);
  EXPECT_GT(result.baseline.counter(pmu::Event::kTotIns), 0.0);
}

TEST(Study, CappedCellsAreSlowerAndCooler) {
  const StudyResult result =
      run_power_cap_study("phased", phased_factory(), quick_config());
  const CellStats* deep = result.cell(125.0);
  ASSERT_NE(deep, nullptr);
  EXPECT_GT(deep->time_s, result.baseline.time_s * 1.5);
  EXPECT_LT(deep->avg_power_w, result.baseline.avg_power_w - 10.0);
  EXPECT_EQ(result.cell(999.0), nullptr);
}

TEST(Study, ParallelMatchesSerial) {
  StudyConfig serial = quick_config();
  StudyConfig parallel = quick_config();
  parallel.jobs = 3;
  const StudyResult a =
      run_power_cap_study("phased", phased_factory(), serial);
  const StudyResult b =
      run_power_cap_study("phased", phased_factory(), parallel);
  // Every cell runs on a fresh identically-seeded node regardless of jobs,
  // so parallel results are bit-identical to serial ones.
  EXPECT_EQ(b.baseline.time_s, a.baseline.time_s);
  EXPECT_EQ(b.cell(125.0)->time_s, a.cell(125.0)->time_s);
  EXPECT_EQ(b.cell(125.0)->energy_j, a.cell(125.0)->energy_j);
}

TEST(Study, PctHelper) {
  EXPECT_DOUBLE_EQ(StudyResult::pct(150.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(StudyResult::pct(5.0, 0.0), 0.0);
}

TEST(PaperReference, TablesAreComplete) {
  EXPECT_EQ(paper_stereo_rows().size(), 10u);
  EXPECT_EQ(paper_sire_rows().size(), 10u);
  EXPECT_EQ(paper_table1().size(), 2u);
  // Baselines are uncapped; capped rows descend 160 -> 120.
  EXPECT_FALSE(paper_stereo_rows()[0].cap_w.has_value());
  EXPECT_DOUBLE_EQ(*paper_stereo_rows()[1].cap_w, 160.0);
  EXPECT_DOUBLE_EQ(*paper_stereo_rows()[9].cap_w, 120.0);
  // Table I and Table II baselines agree.
  EXPECT_NEAR(paper_sire_rows()[0].time_s, paper_table1()[0].time_s, 1.0);
}

TEST(PaperReference, HeadlineShapesPresent) {
  // Encode the key claims so a typo in the reference data is caught.
  const auto stereo = paper_stereo_rows();
  EXPECT_NEAR(stereo[9].pct_time, 3467, 1);   // x35.7 at 120 W
  EXPECT_NEAR(stereo[9].pct_l3, 350, 1);      // L3 explosion
  EXPECT_NEAR(stereo[9].freq_mhz, 1200, 1);   // pinned frequency
  const auto sire = paper_sire_rows();
  EXPECT_NEAR(sire[9].pct_time, 2583, 1);
  EXPECT_NEAR(sire[9].pct_l2, 0, 1);          // SIRE misses stay flat
  EXPECT_GT(sire[9].power_w, 120.0);          // missed cap
}

class ReportRendering : public ::testing::Test {
 protected:
  static const StudyResult& study() {
    static const StudyResult cached =
        run_power_cap_study("phased", phased_factory(), quick_config());
    return cached;
  }
};

TEST_F(ReportRendering, Table1ContainsWorkloads) {
  std::ostringstream os;
  render_table1(os, std::vector<StudyResult>{study()});
  EXPECT_NE(os.str().find("phased"), std::string::npos);
  EXPECT_NE(os.str().find("Table I"), std::string::npos);
}

TEST_F(ReportRendering, Table2HasPaperColumnsAndRows) {
  std::ostringstream os;
  render_table2(os, study(), paper_stereo_rows());
  const std::string out = os.str();
  EXPECT_NE(out.find("baseline"), std::string::npos);
  EXPECT_NE(out.find("150"), std::string::npos);
  EXPECT_NE(out.find("TLB-I Misses"), std::string::npos);
  EXPECT_NE(out.find("paper%Dt"), std::string::npos);
}

TEST_F(ReportRendering, NormalizedFigureHasSeries) {
  std::ostringstream os;
  render_normalized_figure(os, study(), "fig test", true);
  const std::string out = os.str();
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("Energy"), std::string::npos);
  EXPECT_NE(out.find("L2 miss rate"), std::string::npos);
}

TEST_F(ReportRendering, CsvFilesWritten) {
  const std::string dir = ::testing::TempDir() + "/pcap_csv";
  write_table2_csv(dir + "/t2.csv", study());
  write_figure_csv(dir + "/fig.csv", study(), false);
  EXPECT_TRUE(std::filesystem::exists(dir + "/t2.csv"));
  EXPECT_GT(std::filesystem::file_size(dir + "/t2.csv"), 100u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/fig.csv"));
}

TEST(ReportGnuplot, ScriptsEmitted) {
  const std::string dir = ::testing::TempDir() + "/pcap_gp";
  apps::stride::StrideResults results;
  results.cells = {{4096, 8, 1.5}, {4096, 64, 1.6}, {8192, 64, 2.0}};
  write_figure_gnuplot(dir + "/fig.gp", dir + "/fig.csv", "t", true);
  write_stride_gnuplot(dir + "/stride.gp", dir + "/stride.csv", "t", results);
  for (const char* name : {"/fig.gp", "/stride.gp"}) {
    std::ifstream in(dir + name);
    ASSERT_TRUE(in.good()) << name;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("plot"), std::string::npos);
    EXPECT_NE(text.find("pngcairo"), std::string::npos);
  }
}

TEST(ReportStride, RenderAndCsv) {
  apps::stride::StrideResults results;
  results.cells = {{4096, 8, 1.5}, {4096, 64, 1.6}, {8192, 8, 1.5},
                   {8192, 64, 2.0}};
  std::ostringstream os;
  render_stride_figure(os, results, "stride test");
  EXPECT_NE(os.str().find("4K"), std::string::npos);
  EXPECT_NE(os.str().find("legend:"), std::string::npos);
  const std::string path = ::testing::TempDir() + "/stride.csv";
  write_stride_csv(path, results);
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(Cli, ParsesKnownFlags) {
  const char* argv[] = {"bench",        "--full",     "--reps=7",
                        "--jobs=3",     "--seed=42",  "--csv-dir=/tmp/x",
                        "--bench-junk"};
  const CliOptions options = parse_cli(7, const_cast<char**>(argv));
  EXPECT_TRUE(options.full);
  EXPECT_EQ(options.reps, 7);
  EXPECT_EQ(options.jobs, 3u);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.csv_dir, "/tmp/x");
}

TEST(Cli, RepetitionDefaults) {
  CliOptions options;
  EXPECT_EQ(options.repetitions(2), 2);
  options.full = true;
  EXPECT_EQ(options.repetitions(2), 5);
  options.reps = 9;
  EXPECT_EQ(options.repetitions(2), 9);
}

TEST(Cli, ZeroJobsClampedToOne) {
  const char* argv[] = {"bench", "--jobs=0"};
  const CliOptions options = parse_cli(2, const_cast<char**>(argv));
  EXPECT_EQ(options.jobs, 1u);
}

TEST(Cli, JobsDefaultsToHardwareConcurrency) {
  // Only the command line defaults to every core; in-process callers that
  // build CliOptions themselves stay serial.
  EXPECT_EQ(parse_cli(1, nullptr).jobs,
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(CliOptions{}.jobs, 1u);
  const char* argv[] = {"bench", "--jobs=2"};
  EXPECT_EQ(parse_cli(2, const_cast<char**>(argv)).jobs, 2u);
}

TEST(Cli, ParsesPredictorFlags) {
  // Defaults: everything off, window at the binary default.
  const CliOptions defaults = parse_cli(1, nullptr);
  EXPECT_FALSE(defaults.predictor);
  EXPECT_FALSE(defaults.learn_online);
  EXPECT_EQ(defaults.phase_window, 0u);

  const char* argv[] = {"bench", "--predictor", "--phase-window=32",
                        "--learn-online"};
  const CliOptions options = parse_cli(4, const_cast<char**>(argv));
  EXPECT_TRUE(options.predictor);
  EXPECT_TRUE(options.learn_online);
  EXPECT_EQ(options.phase_window, 32u);

  // Non-positive window falls back to the predictor default.
  const char* bad[] = {"bench", "--phase-window=-3"};
  EXPECT_EQ(parse_cli(2, const_cast<char**>(bad)).phase_window, 0u);
}

TEST(Cli, NonFiniteNumbersReadAsUnset) {
  // An infinite subsystem cap would turn NaN when the BMC clamps the caps'
  // sum to a package cap, so every numeric flag reads inf/nan as 0.
  const char* argv[] = {"bench", "--subsystem-caps=inf,nan,50",
                        "--budget=inf", "--ambient=nan"};
  const CliOptions options = parse_cli(4, const_cast<char**>(argv));
  EXPECT_EQ(options.subsystem_caps_w[0], 0.0);
  EXPECT_EQ(options.subsystem_caps_w[1], 0.0);
  EXPECT_EQ(options.subsystem_caps_w[2], 50.0);
  EXPECT_TRUE(options.subsystem_caps_set);
  EXPECT_EQ(options.budget_w, 0.0);
  EXPECT_EQ(options.ambient_c, 0.0);
}

}  // namespace
}  // namespace pcap::harness
