// Reproduces Table II: for both applications, power / energy / average
// frequency / execution time and L1/L2/L3/TLB miss counts at baseline and
// at the paper's nine power caps (160..120 W), with % diff columns and the
// paper's published values printed alongside. Figures 1 and 2 are the same
// two studies with every series normalised to its maximum: Figure 1 SIRE/RSM
// (ITLB misses, frequency, time, power, energy), Figure 2 Stereo Matching
// (plus the L2/L3 miss-rate series the paper adds for it).
//
// Quick by default (1 repetition); --full runs the paper's five.
#include <cstdio>
#include <iostream>
#include <memory>

#include "apps/sar/workload.hpp"
#include "apps/stereo/workload.hpp"
#include "harness/agreement.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"

int main(int argc, char** argv) {
  using namespace pcap;
  const harness::CliOptions cli = harness::parse_cli(argc, argv);

  harness::StudyConfig config;
  config.repetitions = cli.repetitions(1);
  config.jobs = cli.jobs;
  config.seed = cli.seed;
  harness::apply_cli_thermal(config, cli);

  harness::StudyConfig stereo_config = config;
  harness::apply_cli_telemetry(stereo_config, cli, "table2_stereo");
  const harness::StudyResult stereo = harness::run_power_cap_study(
      "Stereo Matching",
      [] { return std::make_unique<apps::stereo::StereoWorkload>(); },
      stereo_config);
  harness::render_table2(std::cout, stereo, harness::paper_stereo_rows());
  harness::write_table2_csv(cli.csv_dir + "/table2_stereo.csv", stereo);
  const auto stereo_fit =
      harness::shape_agreement(stereo, harness::paper_stereo_rows());
  std::printf(
      "shape agreement vs paper (Pearson on signed-log %%diff, %d caps): "
      "time %.3f, power %.3f, energy %.3f\n\n",
      stereo_fit.caps_compared, stereo_fit.time, stereo_fit.power,
      stereo_fit.energy);
  harness::render_normalized_figure(
      std::cout, stereo,
      "Figure 2: Stereo Matching normalized performance data vs power cap",
      /*include_cache_rates=*/true);
  harness::write_figure_csv(cli.csv_dir + "/fig2_stereo.csv", stereo, true);
  harness::write_figure_gnuplot(cli.csv_dir + "/fig2_stereo.gp",
                                cli.csv_dir + "/fig2_stereo.csv",
                                "Figure 2: Stereo Matching (normalized)", true);
  std::printf("\n");

  harness::StudyConfig sire_config = config;
  harness::apply_cli_telemetry(sire_config, cli, "table2_sire");
  const harness::StudyResult sire = harness::run_power_cap_study(
      "SIRE/RSM", [] { return std::make_unique<apps::sar::SireWorkload>(); },
      sire_config);
  harness::render_table2(std::cout, sire, harness::paper_sire_rows());
  harness::write_table2_csv(cli.csv_dir + "/table2_sire.csv", sire);
  const auto sire_fit =
      harness::shape_agreement(sire, harness::paper_sire_rows());
  std::printf(
      "shape agreement vs paper (Pearson on signed-log %%diff, %d caps): "
      "time %.3f, power %.3f, energy %.3f\n",
      sire_fit.caps_compared, sire_fit.time, sire_fit.power, sire_fit.energy);
  harness::render_normalized_figure(
      std::cout, sire,
      "Figure 1: SIRE/RSM normalized performance data vs power cap",
      /*include_cache_rates=*/false);
  harness::write_figure_csv(cli.csv_dir + "/fig1_sire.csv", sire, false);
  harness::write_figure_gnuplot(cli.csv_dir + "/fig1_sire.gp",
                                cli.csv_dir + "/fig1_sire.csv",
                                "Figure 1: SIRE/RSM (normalized)", false);

  std::cout << "\nwrote " << cli.csv_dir << "/table2_{stereo,sire}.csv, "
            << cli.csv_dir << "/fig1_sire.{csv,gp}, " << cli.csv_dir
            << "/fig2_stereo.{csv,gp}\n";
  return 0;
}
