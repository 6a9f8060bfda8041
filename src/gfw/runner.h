// Runner: execution policy over Worlds.
//
// Monte-Carlo campaign shards are embarrassingly parallel: each shard is
// an independent World built from the same Scenario with its own seed,
// derived via SplitMix64 from (base_seed, shard_index). ShardedRunner
// executes N shards across a std::thread pool and then merges ProbeLogs
// and summaries IN SHARD ORDER, so the merged result is bit-identical
// regardless of how many threads ran it — the determinism contract every
// bench and test relies on (asserted by tests/integration/
// sharded_runner_test.cpp).
//
// Supervision (gfw/supervisor.h): a shard that throws or is deadlined by
// the stall watchdog no longer kills the campaign. It is retried with
// its same seed up to `shard_retries` times, then quarantined — the
// campaign completes with the surviving shards merged in shard order
// (still bit-identical over the survivors) and the failure preserved in
// CampaignResult::failures. With a `checkpoint_path`, completed shards
// are journaled as they finish (gfw/checkpoint.h) and `resume` skips
// them on a rerun; a resumed merge is bit-identical to an uninterrupted
// one.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gfw/supervisor.h"
#include "gfw/world.h"
#include "net/resources.h"

namespace gfwsim::gfw {

// Independent per-shard seed stream: one SplitMix64 step over a mix of
// the base seed and the shard index. SplitMix64 is a bijection on 64-bit
// state, so distinct shards can never share a seed for a given base, and
// the xoshiro256** generators they seed start in uncorrelated states.
std::uint64_t shard_seed(std::uint64_t base_seed, std::uint32_t shard_index);

// One server's probe-shed tally inside a ShardResources verdict: probes
// the GFW's bounded admission queue refused outright because both the
// in-flight window and the deferral queue were full.
struct ShedRecord {
  std::uint16_t server_id = 0;
  std::string region;
  std::uint64_t count = 0;
};

// Resource-governance verdict for one shard (net/resources.h +
// Gfw admission queue + Network queue caps). All-zero whenever
// Scenario::resources is disarmed, and journaled as its own checkpoint
// frame (kind 4, written only when any() — see gfw/checkpoint.h) so the
// pinned kind-1/kind-2 shard payloads stay byte-identical.
struct ShardResources {
  std::uint64_t probes_shed = 0;      // admission-queue overflow, dropped
  std::uint64_t probes_deferred = 0;  // parked in the queue, later launched
  std::uint64_t queue_overflow_drops = 0;  // DropCause::kQueueOverflow
  std::uint64_t peak_metered_bytes = 0;    // governor peak_bytes()
  std::uint64_t acquisitions = 0;          // governor acquisitions()
  // Governor per-kind peaks, indexed by net::ResourceKind.
  std::array<std::uint64_t, net::kResourceKindCount> peak_units{};
  // Per-server shed breakdown, in server-id order.
  std::vector<ShedRecord> sheds;

  bool any() const {
    if (probes_shed != 0 || probes_deferred != 0 || queue_overflow_drops != 0 ||
        peak_metered_bytes != 0 || acquisitions != 0 || !sheds.empty()) {
      return true;
    }
    for (std::uint64_t peak : peak_units) {
      if (peak != 0) return true;
    }
    return false;
  }
};

// What one finished shard contributes beyond its ProbeLog.
struct ShardSummary {
  std::uint32_t shard_index = 0;
  std::uint64_t seed = 0;

  std::size_t connections_launched = 0;
  std::size_t control_contacts = 0;
  std::size_t flows_inspected = 0;
  std::size_t flows_flagged = 0;
  std::size_t segments_transmitted = 0;

  // Fault-layer accounting (all zero when the scenario's FaultProfile is
  // disabled) and the shard's teardown invariant scan.
  std::size_t segments_delivered = 0;
  // Data payload bytes handed to destination connections (the goodput
  // numerator of the benchmark suite's goodput_MBps).
  std::uint64_t payload_bytes_delivered = 0;
  std::size_t segments_dropped_middlebox = 0;
  std::size_t segments_dropped_loss = 0;
  std::size_t segments_dropped_outage = 0;
  std::size_t segments_duplicated = 0;
  std::size_t segments_reordered = 0;
  std::size_t retransmissions = 0;
  std::size_t probe_connect_retries = 0;
  // Events fired by this shard's EventLoop — the engine-throughput
  // numerator for the benches. Like log_offset, this is NOT serialized
  // into checkpoints (a resumed shard reports 0): it describes the run,
  // not the simulation state.
  std::uint64_t events_processed = 0;
  net::TeardownReport teardown;

  // This shard's slice of CampaignResult::log: records
  // [log_offset, log_offset + probes). Lets single-vantage analyses
  // (e.g. TSval process clustering) work per shard on the merged log.
  std::size_t log_offset = 0;
  std::size_t probes = 0;

  // Blocking events observed by this shard's GFW.
  std::vector<BlockingModule::BlockEntry> blocking_history;

  // Per-server rows (World::server_stats): one entry per fleet server,
  // empty for single-server scenarios. Fleet shards are journaled with
  // the extended checkpoint frame; legacy shards keep format version 1.
  std::vector<ServerStats> servers;

  // Resource-governance verdict; all-zero (and absent from the journal)
  // unless the scenario armed Scenario::resources.
  ShardResources resources;
};

// Shard-ordered merge of a whole campaign. `shards` holds the SURVIVING
// shards only (in shard order, each keeping its original shard_index);
// quarantined shards appear in `failures` instead.
struct CampaignResult {
  ProbeLog log;  // surviving shards' records, in shard order
  std::vector<ShardSummary> shards;
  // One entry per shard that ever failed, in shard order: quarantined
  // shards (retries exhausted, excluded from the merge) plus recovered
  // ones (a retry succeeded; flagged nondeterministic, results merged).
  std::vector<ShardFailure> failures;
  // Worker IO degradation totals, summed from the kind-5 journal frames
  // of a distributed run (gfw/checkpoint.h); always zero under the
  // in-process runners and on clean distributed runs.
  std::uint64_t worker_heartbeats_dropped = 0;
  std::uint64_t worker_heartbeat_retries = 0;
  std::uint64_t worker_journal_retries = 0;
  // An operator interrupt (ShardedRunnerOptions::interrupt /
  // DistRunnerOptions::interrupt) stopped the campaign early: the merge
  // covers only the shards that finished before the signal. With a
  // journal armed, a --resume rerun picks up exactly where this left off.
  bool interrupted = false;

  std::size_t connections_launched() const;
  std::size_t control_contacts() const;
  std::size_t flows_flagged() const;
  std::size_t segments_dropped_loss() const;
  std::size_t retransmissions() const;
  std::uint64_t payload_bytes_delivered() const;
  // Events fired across all surviving shards' event loops.
  std::uint64_t events_processed() const;
  // True iff every shard's teardown watchdog came back clean.
  bool teardown_clean() const;
  // "" when clean; otherwise one "shard N: <violations>" line per dirty
  // shard (net::TeardownReport::describe) for test failure messages.
  std::string teardown_failures() const;
  // Per-server aggregation across surviving shards, by server id (fleet
  // campaigns; empty when the scenario had no fleet). Counter fields sum;
  // descriptive fields come from the first shard that saw the server.
  std::vector<ServerStats> fleet_totals() const;
  // Resource-governance rollups across surviving shards (all zero when
  // Scenario::resources was disarmed).
  std::uint64_t probes_shed() const;
  std::uint64_t probes_deferred() const;
  std::uint64_t queue_overflow_drops() const;
  // Largest peak_metered_bytes across surviving shards (peaks are
  // per-shard high-water marks, so the campaign verdict takes the max).
  std::uint64_t peak_metered_bytes() const;
  // Shards that failed with FailureKind::kResource (quarantined or
  // recovered): budget breaches, injected exhaustion, rlimit deaths.
  std::size_t resource_failures() const;
  // Shards excluded from the merge after exhausting retries.
  std::size_t shards_quarantined() const;
  // True iff every shard's results made it into the merge.
  bool complete() const { return shards_quarantined() == 0; }
};

class Runner {
 public:
  virtual ~Runner() = default;
  virtual CampaignResult run(const Scenario& scenario) = 0;
};

// Hooks run on the worker (thread or process) that owns the shard.
// `before` runs after World construction and before run() (runtime
// toggles like BlockingModule::set_sensitive_period); `after` runs after
// run() and before the World is destroyed (harvesting state the summary
// does not carry). Hooks must only touch their own shard's World and any
// per-shard slot indexed by the shard argument. NOTE: under the
// process-isolated DistRunner, hooks execute in the WORKER process —
// `before` toggles work, but state harvested by `after` into coordinator
// memory never travels back.
using ShardHook = std::function<void(World&, std::uint32_t shard)>;

// One shard run to completion under the containment contract shared by
// the threaded ShardedRunner and the process-isolated DistRunner worker
// (gfw/dist_runner.h): up to `max_attempts - attempt_base` same-seed
// attempts, each fully guarded (exceptions and stall aborts become
// structured ShardFailures), with the deterministic-failure signature
// comparison from gfw/supervisor.h.
//
// `attempt_base` counts attempts already spent on this shard in earlier
// (dead) worker processes, so attempt numbering — and the
// Scenario::debug_fail_shard fail_attempts window — stays global across
// the process boundary. `progress`, when non-null, replaces the
// attempt-local heartbeat so an external sampler (the worker's heartbeat
// thread) can observe the running loop; it must outlive the call.
struct ShardRun {
  bool completed = false;
  ShardSummary summary;  // meaningful only when completed
  ProbeLog log;          // meaningful only when completed
  // The first failure observed, if any attempt failed: quarantined when
  // the attempt budget ran out (completed == false), otherwise a
  // recovered failure flagged per the nondeterminism rules.
  std::optional<ShardFailure> failure;
};
ShardRun run_shard_supervised(const Scenario& scenario, std::uint32_t shard,
                              int max_attempts, int attempt_base,
                              StallWatchdog* watchdog, const ShardHook& before,
                              const ShardHook& after,
                              net::LoopProgress* progress = nullptr);

struct ShardedRunnerOptions {
  ShardedRunnerOptions() = default;
  // The historical (shards, threads) shorthand; supervision fields keep
  // their defaults.
  ShardedRunnerOptions(std::uint32_t shards_, unsigned threads_)
      : shards(shards_), threads(threads_) {}

  std::uint32_t shards = 4;
  // 0 = std::thread::hardware_concurrency(). 1 = run inline on the
  // calling thread (the serial baseline for speedup comparisons).
  unsigned threads = 0;

  // Supervision policy. A failing shard is retried with its same seed up
  // to `shard_retries` times (0 = quarantine on first failure).
  int shard_retries = 1;
  // Wall-clock deadline for a shard whose event loop stops making
  // progress; 0 disables the stall watchdog (no supervisor thread runs).
  std::chrono::milliseconds stall_timeout{0};
  // Journal completed shards to this file as they finish (empty = no
  // journal). Without `resume` the file is recreated; with it, completed
  // shards recorded there are restored instead of re-run (the header
  // must match the campaign: shard count, base seed, scenario
  // fingerprint — gfw/checkpoint.h).
  std::string checkpoint_path;
  bool resume = false;

  // Graceful-interrupt hook: when non-null and set nonzero (by a
  // SIGTERM/SIGINT handler — bench/bench_common.cpp), workers finish the
  // shard they are on, journal it, and stop claiming new ones; run()
  // returns a partial CampaignResult with `interrupted` set instead of
  // the process dying mid-write. The pointee must outlive run().
  const std::atomic<int>* interrupt = nullptr;
};

class ShardedRunner : public Runner {
 public:
  // Kept as a member alias for existing callers; see gfw::ShardHook.
  using ShardHook = gfw::ShardHook;

  explicit ShardedRunner(ShardedRunnerOptions options = {});

  void set_before_run(ShardHook hook) { before_ = std::move(hook); }
  void set_after_run(ShardHook hook) { after_ = std::move(hook); }

  const ShardedRunnerOptions& options() const { return options_; }
  // The thread count actually used for a run (resolves 0).
  unsigned resolved_threads() const;

  CampaignResult run(const Scenario& scenario) override;

 private:
  ShardedRunnerOptions options_;
  ShardHook before_;
  ShardHook after_;
};

// One-shard convenience: build a World from the scenario (shard 0 seed
// derivation) and run it to completion serially.
CampaignResult run_serial(const Scenario& scenario);

}  // namespace gfwsim::gfw
