// Shared harness for the bench binaries that regenerate the paper's
// tables and figures. Every bench binary parses the same command line,
// runs its campaigns through the Scenario/World/Runner layers (sharded
// across a thread pool by default), prints a banner, the simulated
// measurement, and the paper's reported value next to it — and, with
// --csv, mirrors the paper-vs-measured series to a machine-readable file.
//
// Scale note: the paper's Shadowsocks experiment ran four months across
// eleven servers and logged 51,837 probes. The benches run compressed
// campaign shards (weeks, one server per shard) with the classifier
// trigger rate scaled up so probe counts stay statistically useful; every
// *distributional shape* (who wins, ratios, CDF knees, remainder classes)
// is what the benches compare against the paper. Shards model the paper's
// independent vantage points: each has its own server, GFW, and seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/csv.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "gfw/runner.h"

namespace gfwsim::bench {

// Command line shared by every bench binary:
//   --shards N    independent campaign shards (default 4)
//   --threads N   worker threads (default: hardware concurrency)
//   --seed S      base-seed override (decimal or 0x-hex)
//   --days D      per-shard campaign length override, in days
//   --csv PATH    mirror the paper-vs-measured rows to PATH as CSV
//   --loss P      per-segment loss probability in [0,1] (default 0)
//   --dup P       per-segment duplication probability in [0,1]
//   --reorder P   per-segment reorder probability in [0,1]
//   --jitter MS   uniform extra one-way latency in [0, MS) milliseconds
//   --checkpoint PATH  journal completed shards to PATH as they finish
//   --resume           skip shards already recorded in --checkpoint
//                      (requires --checkpoint)
//   --shard-retries N  retries before quarantining a failing shard
//   --stall-timeout S  wall-clock stall watchdog deadline in seconds
//                      (0 = watchdog off)
//   --workers N   run the campaign across N forked worker PROCESSES
//                 (gfw/dist_runner.h) instead of a thread pool; crashes,
//                 kills, and stalls of a worker are contained and the
//                 merge stays bit-identical
//   --worker-kill-after K  chaos: SIGKILL one worker right after its
//                 K-th shard start (requires --workers); the campaign
//                 must still complete with an identical digest
//   --mem-budget BYTES  per-shard metered-allocation budget
//                 (net/resources.h; accepts k/m/g suffixes, 0 = off).
//                 A breach quarantines the shard as a kResource failure
//                 instead of crashing the campaign
//   --probe-queue-cap N  bound the GFW's concurrent in-flight probes;
//                 overflow beyond the same-depth admission queue is shed
//                 deterministically and reported per server
//   --worker-rlimit-as BYTES   setrlimit(RLIMIT_AS) in each forked
//                 worker (requires --workers; k/m/g suffixes)
//   --worker-rlimit-cpu S      setrlimit(RLIMIT_CPU) seconds per worker
struct BenchOptions {
  std::uint32_t shards = 4;
  unsigned threads = 0;    // 0 = hardware concurrency
  int days = 0;            // 0 = bench default
  std::uint64_t seed = 0;  // 0 = bench default
  std::string csv;

  // Fault-profile knobs; all zero leaves the network ideal.
  double loss = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  double jitter_ms = 0.0;

  // Supervision / checkpointing (gfw/supervisor.h, gfw/checkpoint.h).
  std::string checkpoint;
  bool resume = false;
  int shard_retries = 1;
  double stall_timeout_s = 0.0;

  // Process isolation (gfw/dist_runner.h). 0 = threaded ShardedRunner;
  // N > 0 runs the shards on N forked workers that pull them one at a
  // time, with --checkpoint doubling as the slot-journal prefix.
  unsigned workers = 0;
  int worker_kill_after = 0;  // chaos kill trigger; 0 = no chaos

  // Resource governance (net/resources.h, Scenario::resources) and
  // OS-level worker limits (gfw/dist_runner.h). All zero = inert.
  std::uint64_t mem_budget = 0;       // per-shard metered bytes
  std::size_t probe_queue_cap = 0;    // GFW in-flight probe bound
  std::uint64_t worker_rlimit_as = 0;   // bytes; --workers only
  std::uint64_t worker_rlimit_cpu = 0;  // seconds; --workers only

  bool faults_requested() const {
    return loss > 0.0 || dup > 0.0 || reorder > 0.0 || jitter_ms > 0.0;
  }
};

// Exits with usage on --help (status 0) or a malformed command line
// (status 2): an unknown flag, a missing value, a numeric value that is
// not a whole number token ("2x", "two"), or a flag whose prerequisite
// flag is absent. Also installs the
// graceful SIGTERM/SIGINT handlers (install_interrupt_handlers below),
// so every bench binary inherits resumable interruption for free.
BenchOptions parse_bench_args(int argc, char** argv);

// Numeric flags must consume their whole token: "2x", "two", "-1" or an
// empty string is a usage error, never a silent 0 or a truncated prefix.
// Returns `text` as one unsigned integer (decimal, 0x-hex or 0-octal) no
// larger than `max`, or nullopt for a sign, a blank, trailing characters
// or an overflow. Every bench flag and gfw_worker parse through it.
std::optional<std::uint64_t> whole_unsigned(const char* text, std::uint64_t max);

// The flag the SIGTERM/SIGINT handlers set; runner options point their
// `interrupt` member here. First signal: finish and journal in-flight
// shards, then return a partial result with `interrupted` set. Second
// signal: restore the default disposition and re-raise (the operator
// insists).
const std::atomic<int>* interrupt_flag();
void install_interrupt_handlers();

gfw::ShardedRunnerOptions runner_options(const BenchOptions& options);

// The standard measurement scenario: browsing traffic through an
// OutlineVPN v1.0.7 server (the implementation whose DATA responses
// unlock stage 2, so all seven probe types appear — as in the paper's
// OutlineVPN experiment).
gfw::Scenario standard_scenario(int days = 21);

// Applies the --loss/--dup/--reorder/--jitter fault knobs to a scenario.
gfw::Scenario with_fault_options(gfw::Scenario scenario, const BenchOptions& options);

// Applies --days/--seed overrides (and the fault knobs) on top of the
// bench's defaults.
gfw::Scenario with_options(gfw::Scenario scenario, const BenchOptions& options,
                           std::uint64_t default_seed, int default_days);

// Runs `scenario` across options.shards x options.threads and merges in
// shard order (bit-identical for any thread count).
gfw::CampaignResult run_sharded(const gfw::Scenario& scenario,
                                const BenchOptions& options);

// standard_scenario + overrides, sharded.
gfw::CampaignResult run_standard_sharded(const BenchOptions& options,
                                         std::uint64_t default_seed,
                                         int default_days = 21);

// One line of scale context under the banner: shards, threads,
// connections, probes.
void print_run_summary(std::ostream& os, const gfw::CampaignResult& result,
                       const BenchOptions& options);

// Same, plus an engine-throughput line (events fired across all shards'
// event loops, and events/sec when a positive wall time is given).
void print_run_summary(std::ostream& os, const gfw::CampaignResult& result,
                       const BenchOptions& options, double wall_seconds);

// Paper-vs-measured reporting. Rows print to stdout and, when --csv was
// given, land in the CSV mirror as (bench, metric, paper, measured).
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchOptions& options);

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  void metric(const std::string& metric, const std::string& paper,
              const std::string& measured);

  bool csv_enabled() const { return csv_ != nullptr; }

 private:
  std::string bench_;
  std::unique_ptr<analysis::CsvWriter> csv_;
};

}  // namespace gfwsim::bench
