// Table 1: timeline of all major experiments.
//
// Runs compressed versions of the three experiment campaigns (the
// Shadowsocks server experiment, the random-data Sink experiments, the
// Brdgrd toggling experiment) and prints the simulated spans next to the
// paper's.
#include "bench_common.h"

using namespace gfwsim;

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  analysis::print_banner(std::cout, "Table 1: Timeline of all major experiments");
  bench::BenchReporter report("table1_timeline", options);

  analysis::TextTable table({"Experiment", "Paper time span", "Simulated span",
                             "connections", "probes"});

  {
    const gfw::CampaignResult result = bench::run_standard_sharded(options, 0x7A11, 14);
    table.add_row({"Shadowsocks", "Sep 29, 2019 - Jan 21, 2020 (4 months)",
                   "14 simulated days (compressed)",
                   std::to_string(result.totals().connections_launched),
                   std::to_string(result.log.size())});
  }
  {
    gfw::Scenario scenario = bench::standard_scenario(14);
    scenario.raw_traffic = true;
    scenario.traffic = client::TrafficSpec::random_exp1();
    const gfw::CampaignResult result =
        bench::run_sharded(bench::with_options(scenario, options, 0x7A12, 14), options);
    table.add_row({"Sink", "May 16 - 31, 2020 (2 weeks)", "14 simulated days",
                   std::to_string(result.totals().connections_launched),
                   std::to_string(result.log.size())});
  }
  {
    gfw::Scenario scenario = bench::standard_scenario(17);
    scenario.use_brdgrd = true;
    const gfw::CampaignResult result =
        bench::run_sharded(bench::with_options(scenario, options, 0x7A13, 17), options);
    table.add_row({"Brdgrd", "Nov 2 - 19, 2019 (403 hours)", "408 simulated hours",
                   std::to_string(result.totals().connections_launched),
                   std::to_string(result.log.size())});
  }

  table.print(std::cout);
  std::cout << "\nNote: campaigns are time-compressed with an accelerated classifier\n"
               "trigger rate; distributional shapes, not absolute counts, are the\n"
               "reproduction target (see EXPERIMENTS.md). Counts above sum the\n"
               "campaign's shards.\n";
  return 0;
}
