// Robustness sweep: how the detection pipeline degrades on lossy paths.
//
// The paper's measurements ran over the real Internet, so every reported
// rate already includes path loss; the simulator's ideal mesh did not.
// This bench sweeps per-segment loss 0..5% (plus any --dup/--reorder/
// --jitter knobs applied to every arm) and reports how flag, probe, and
// block rates degrade, along with the fault-layer accounting (drops by
// cause, retransmissions, probe connect retries) and the teardown
// watchdog verdict for every arm. The loss=0 arm doubles as the
// inertness baseline: its fault counters must all be zero.
#include <algorithm>

#include "bench_common.h"

using namespace gfwsim;

namespace {

struct Arm {
  double loss = 0.0;
  gfw::CampaignResult result;
};

std::size_t probes_timed_out(const gfw::CampaignResult& result) {
  std::size_t n = 0;
  for (const auto& record : result.log.records()) {
    if (record.reaction == probesim::Reaction::kTimeout) ++n;
  }
  return n;
}

std::size_t blocked_shards(const gfw::CampaignResult& result) {
  std::size_t n = 0;
  for (const auto& shard : result.shards) {
    if (!shard.blocking_history.empty()) ++n;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  analysis::print_banner(std::cout, "Robustness: detection pipeline under path loss");
  bench::BenchReporter report("faults", options);

  std::vector<double> sweep = {0.0, 0.005, 0.01, 0.02, 0.05};
  if (options.loss > 0.0 &&
      std::find(sweep.begin(), sweep.end(), options.loss) == sweep.end()) {
    sweep.push_back(options.loss);
    std::sort(sweep.begin(), sweep.end());
  }

  std::vector<Arm> arms;
  for (const double loss : sweep) {
    gfw::Scenario scenario = bench::with_options(
        bench::standard_scenario(), options, /*default_seed=*/0xFA0175, /*default_days=*/7);
    scenario.faults.loss = loss;  // sweep overrides the --loss flag value
    std::cout << "Running loss=" << analysis::format_percent(loss) << " arm...\n";
    arms.push_back({loss, bench::run_sharded(scenario, options)});
  }
  bench::print_run_summary(std::cout, arms.front().result, options);

  analysis::TextTable table({"loss", "conns", "flagged", "flag/1k", "probes",
                             "probe t/o", "retries", "blocked", "retrans",
                             "lost segs", "teardown"});
  for (const Arm& arm : arms) {
    const gfw::ShardSummary totals = arm.result.totals();
    const std::uint64_t conns = totals.connections_launched;
    const std::uint64_t flagged = totals.flows_flagged;
    const std::size_t probes = arm.result.log.size();
    const double per_1k = conns == 0 ? 0.0 : 1000.0 * static_cast<double>(flagged) /
                                                 static_cast<double>(conns);
    const double timeout_frac =
        probes == 0 ? 0.0
                    : static_cast<double>(probes_timed_out(arm.result)) /
                          static_cast<double>(probes);
    table.add_row({analysis::format_percent(arm.loss),
                   std::to_string(conns),
                   std::to_string(flagged),
                   analysis::format_double(per_1k),
                   std::to_string(probes),
                   analysis::format_percent(timeout_frac),
                   std::to_string(totals.probe_connect_retries),
                   std::to_string(blocked_shards(arm.result)) + "/" +
                       std::to_string(arm.result.shards.size()),
                   std::to_string(totals.retransmissions),
                   std::to_string(totals.segments_dropped_loss),
                   arm.result.teardown_clean() ? "clean" : "DIRTY"});
  }
  table.print(std::cout);
  std::cout << "\n";

  const Arm& ideal = arms.front();
  const Arm& worst = arms.back();
  const auto flag_rate = [](const Arm& arm) {
    const gfw::ShardSummary totals = arm.result.totals();
    return totals.connections_launched == 0
               ? 0.0
               : static_cast<double>(totals.flows_flagged) /
                     static_cast<double>(totals.connections_launched);
  };

  report.metric("fault layer inert at loss=0",
                "byte-identical to the ideal mesh",
                (ideal.result.totals().segments_dropped_loss == 0 &&
                 ideal.result.totals().retransmissions == 0)
                    ? "0 lost, 0 retransmitted"
                    : "NONZERO fault counters");
  report.metric("flag rate degradation, loss 0% -> " +
                    analysis::format_percent(worst.loss),
                "n/a (paper rates already include real path loss)",
                analysis::format_percent(flag_rate(ideal)) + " -> " +
                    analysis::format_percent(flag_rate(worst)));
  report.metric("probe timeout reactions at " + analysis::format_percent(worst.loss) +
                    " loss",
                "probers give up in <10 s (sec. 5)",
                analysis::format_percent(
                    worst.result.log.size() == 0
                        ? 0.0
                        : static_cast<double>(probes_timed_out(worst.result)) /
                              static_cast<double>(worst.result.log.size())) +
                    " of probes");
  report.metric("probe connections relaunched under faults",
                "n/a (robustness extension)",
                std::to_string(worst.result.totals().probe_connect_retries) + " at " +
                    analysis::format_percent(worst.loss) + " loss");

  for (const Arm& arm : arms) {
    if (report.csv_enabled()) {
      report.metric("flag rate @ loss=" + analysis::format_percent(arm.loss),
                    "n/a", analysis::format_percent(flag_rate(arm)));
    }
    if (!arm.result.teardown_clean()) {
      std::cerr << "teardown watchdog DIRTY at loss="
                << analysis::format_percent(arm.loss) << "\n";
      return 1;
    }
  }
  return 0;
}
