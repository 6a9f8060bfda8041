// Shard scaling: the same 4-shard campaign executed serially and on a
// 4-thread pool must produce byte-identical merged logs, with the pool
// run close to 4x faster (shards are embarrassingly parallel worlds).
//
// This is the determinism + speedup demonstration for the sharded
// runner; the integration test asserts the equality, this bench puts
// numbers on the wall clock.
#include <chrono>
#include <thread>

#include "bench_common.h"

using namespace gfwsim;

namespace {

struct Timed {
  gfw::CampaignResult result;
  double seconds = 0.0;
};

Timed timed_run(const gfw::Scenario& scenario, std::uint32_t shards, unsigned threads) {
  gfw::ShardedRunner runner({shards, threads});
  const auto start = std::chrono::steady_clock::now();
  Timed timed{runner.run(scenario), 0.0};
  timed.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                      .count();
  return timed;
}

bool identical_logs(const gfw::ProbeLog& a, const gfw::ProbeLog& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a.records()[i];
    const auto& rb = b.records()[i];
    if (ra.sent_at != rb.sent_at || ra.type != rb.type || ra.src_ip != rb.src_ip ||
        ra.src_port != rb.src_port || ra.tsval != rb.tsval ||
        ra.payload_len != rb.payload_len || ra.reaction != rb.reaction) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  analysis::print_banner(std::cout,
                         "Shard scaling: serial vs thread-pool execution of one campaign");
  bench::BenchReporter report("shard_scaling", options);

  const std::uint32_t shards = options.shards;
  const unsigned pool_threads =
      options.threads != 0 ? options.threads : std::min<unsigned>(shards, 4);
  const gfw::Scenario scenario = bench::with_options(
      bench::standard_scenario(), options, 0x5CA1E, /*default_days=*/7);

  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << " (speedup is bounded by physical cores)\n";

  std::cout << "running " << shards << " shard(s) serially...\n";
  const Timed serial = timed_run(scenario, shards, 1);
  std::cout << "  " << analysis::format_double(serial.seconds, 2) << " s, "
            << serial.result.log.size() << " probes\n";

  std::cout << "running " << shards << " shard(s) on " << pool_threads
            << " threads...\n";
  const Timed pooled = timed_run(scenario, shards, pool_threads);
  std::cout << "  " << analysis::format_double(pooled.seconds, 2) << " s, "
            << pooled.result.log.size() << " probes\n";
  bench::print_run_summary(std::cout, pooled.result, options, pooled.seconds);
  std::cout << "\n";

  const bool identical = identical_logs(serial.result.log, pooled.result.log);
  const double speedup = pooled.seconds > 0.0 ? serial.seconds / pooled.seconds : 0.0;

  report.metric("merged ProbeLog across thread counts", "byte-identical (determinism)",
                identical ? "identical (" + std::to_string(serial.result.log.size()) +
                                " records compared)"
                          : "MISMATCH");
  report.metric(
      "speedup, " + std::to_string(shards) + " shards on " +
          std::to_string(pool_threads) + " threads vs serial",
      ">= 2.5x on 4 threads (embarrassingly parallel worlds)",
      analysis::format_double(speedup, 2) + "x (" +
          analysis::format_double(serial.seconds, 2) + " s -> " +
          analysis::format_double(pooled.seconds, 2) + " s)");
  const double serial_rate =
      serial.seconds > 0.0
          ? static_cast<double>(serial.result.events_processed()) / serial.seconds
          : 0.0;
  report.metric("event rate [serial]", "n/a (engine throughput)",
                std::to_string(static_cast<std::uint64_t>(serial_rate)) +
                    " events/sec (" + std::to_string(serial.result.events_processed()) +
                    " events)");
  return identical ? 0 : 1;
}
