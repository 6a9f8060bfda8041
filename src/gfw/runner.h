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

#include <algorithm>
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

// How one counter combines across shards or workers: kSum adds, kMax
// keeps the largest (a per-shard high-water mark).
enum class Merge : std::uint8_t { kSum, kMax };

// Counter tables: each counter record (ShardResources, ShardSummary,
// ServerStats, WorkerIoStats) declares its counters once, as rows of a
// table next to the struct; the checkpoint codec, the shard harvest, the
// campaign rollup and the worker-IO fold loop over the rows. A row gives
// the counter's name, its field and its merge rule; rows of the per-shard
// tables also give `read`, the World accessor the harvest takes the value
// from. Row order is the checkpoint wire order (gfw/checkpoint.h).
template <typename Record>
struct Counter {
  const char* name;
  std::uint64_t Record::*field;
  Merge merge;
  std::uint64_t (*read)(World&) = nullptr;
};

// Folds `from` into `into`, each row by its own rule.
template <typename Table, typename Record>
void merge_counters(const Table& table, Record& into, const Record& from) {
  for (const auto& row : table) {
    const std::uint64_t value = from.*row.field;
    std::uint64_t& total = into.*row.field;
    total = row.merge == Merge::kMax ? std::max(total, value) : total + value;
  }
}

// True iff any counter of `table` is nonzero in `record`.
template <typename Table, typename Record>
bool any_counter(const Table& table, const Record& record) {
  for (const auto& row : table) {
    if (record.*row.field != 0) return true;
  }
  return false;
}

// Per-server statistics harvested from a fleet World. Single-server
// scenarios report an empty vector, so legacy summaries, checkpoints,
// and digests are untouched.
struct ServerStats {
  std::uint16_t server_id = 0;
  net::Endpoint endpoint;
  std::string region;
  std::string impl;
  std::string cipher;
  std::uint64_t connections_launched = 0;
  // Data bytes delivered to or from this endpoint (per-endpoint goodput
  // split out of the shared network).
  std::uint64_t payload_bytes = 0;
  std::uint64_t probes = 0;  // GFW probes aimed at this server
  std::uint64_t blocks = 0;  // block entries that match this endpoint
};

// ServerStats's counters; CampaignResult::fleet_totals merges each
// server's rows across shards by them.
inline constexpr Counter<ServerStats> kServerCounters[] = {
    {"connections_launched", &ServerStats::connections_launched, Merge::kSum},
    {"payload_bytes", &ServerStats::payload_bytes, Merge::kSum},
    {"probes", &ServerStats::probes, Merge::kSum},
    {"blocks", &ServerStats::blocks, Merge::kSum},
};

// Resource-governance verdict for one shard (net/resources.h +
// Gfw admission queue + Network queue caps). All-zero whenever
// Scenario::resources is disarmed; journaled inside the shard's
// checkpoint frame (gfw/checkpoint.h).
struct ShardResources {
  std::uint64_t probes_shed = 0;      // admission-queue overflow, dropped
  std::uint64_t probes_deferred = 0;  // parked in the queue, later launched
  std::uint64_t queue_overflow_drops = 0;  // DropCause::kQueueOverflow
  std::uint64_t peak_metered_bytes = 0;    // governor peak_bytes()
  std::uint64_t acquisitions = 0;          // governor acquisitions()
  // Governor per-kind peaks, indexed by net::ResourceKind.
  std::array<std::uint64_t, net::kResourceKindCount> peak_units{};
  // Per-server shed breakdown (Gfw::probe_sheds), in endpoint order.
  std::vector<ShedRecord> sheds;

  bool any() const;
};

// ShardResources's scalar counters. The peak array and the shed list
// are coded and checked on their own.
inline constexpr Counter<ShardResources> kResourceCounters[] = {
    {"probes_shed", &ShardResources::probes_shed, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.gfw().probes_shed(); }},
    {"probes_deferred", &ShardResources::probes_deferred, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.gfw().probes_deferred(); }},
    {"queue_overflow_drops", &ShardResources::queue_overflow_drops, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_dropped_queue(); }},
    {"peak_metered_bytes", &ShardResources::peak_metered_bytes, Merge::kMax,
     [](World& w) -> std::uint64_t { return w.governor().peak_bytes(); }},
    {"acquisitions", &ShardResources::acquisitions, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.governor().acquisitions(); }},
};

// What one finished shard contributes beyond its ProbeLog.
struct ShardSummary {
  std::uint32_t shard_index = 0;
  std::uint64_t seed = 0;

  std::uint64_t connections_launched = 0;
  std::uint64_t control_contacts = 0;
  std::uint64_t flows_inspected = 0;
  std::uint64_t flows_flagged = 0;
  std::uint64_t segments_transmitted = 0;

  // Fault-layer accounting (all zero when the scenario's FaultProfile is
  // disabled) and the shard's teardown invariant scan.
  std::uint64_t segments_delivered = 0;
  // Data payload bytes handed to destination connections (the goodput
  // numerator of the benchmark suite's goodput_MBps).
  std::uint64_t payload_bytes_delivered = 0;
  std::uint64_t segments_dropped_middlebox = 0;
  std::uint64_t segments_dropped_loss = 0;
  std::uint64_t segments_dropped_outage = 0;
  std::uint64_t segments_duplicated = 0;
  std::uint64_t segments_reordered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t probe_connect_retries = 0;
  // Events fired by this shard's EventLoop — the engine-throughput
  // numerator for the benches. Journaled with the shard, so a resumed or
  // gathered shard reports the same count as one run in process.
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
  // empty for single-server scenarios.
  std::vector<ServerStats> servers;

  // Resource-governance verdict; all-zero unless the scenario armed
  // Scenario::resources.
  ShardResources resources;
};

// ShardSummary's counters, each with the World accessor the harvest reads.
inline constexpr Counter<ShardSummary> kShardCounters[] = {
    {"connections_launched", &ShardSummary::connections_launched, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.connections_launched(); }},
    {"control_contacts", &ShardSummary::control_contacts, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.control_host_contacts(); }},
    {"flows_inspected", &ShardSummary::flows_inspected, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.gfw().flows_inspected(); }},
    {"flows_flagged", &ShardSummary::flows_flagged, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.gfw().flows_flagged(); }},
    {"segments_transmitted", &ShardSummary::segments_transmitted, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_transmitted(); }},
    {"segments_delivered", &ShardSummary::segments_delivered, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_delivered(); }},
    {"payload_bytes_delivered", &ShardSummary::payload_bytes_delivered, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().payload_bytes_delivered(); }},
    {"segments_dropped_middlebox", &ShardSummary::segments_dropped_middlebox, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_dropped_middlebox(); }},
    {"segments_dropped_loss", &ShardSummary::segments_dropped_loss, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_dropped_loss(); }},
    {"segments_dropped_outage", &ShardSummary::segments_dropped_outage, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_dropped_outage(); }},
    {"segments_duplicated", &ShardSummary::segments_duplicated, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_duplicated(); }},
    {"segments_reordered", &ShardSummary::segments_reordered, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().segments_reordered(); }},
    {"retransmissions", &ShardSummary::retransmissions, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.network().retransmissions(); }},
    {"probe_connect_retries", &ShardSummary::probe_connect_retries, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.gfw().probe_connect_retries(); }},
    {"events_processed", &ShardSummary::events_processed, Merge::kSum,
     [](World& w) -> std::uint64_t { return w.loop().events_processed(); }},
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
  // Worker IO degradation totals, summed by kWorkerIoCounters from the
  // kind-5 journal frames of a distributed run (gfw/checkpoint.h); always
  // zero under the in-process runners and on clean distributed runs.
  std::uint64_t worker_heartbeats_dropped = 0;
  std::uint64_t worker_heartbeat_retries = 0;
  std::uint64_t worker_journal_retries = 0;
  // An operator interrupt (ShardedRunnerOptions::interrupt /
  // DistRunnerOptions::interrupt) stopped the campaign early: the merge
  // covers only the shards that finished before the signal. With a
  // journal armed, a --resume rerun picks up exactly where this left off.
  bool interrupted = false;

  // Every kShardCounters and kResourceCounters row merged across the
  // surviving shards by its rule: counters sum, peak_metered_bytes takes
  // the largest per-shard peak. Identity fields, the teardown report and
  // the vectors stay empty.
  ShardSummary totals() const;
  // The goodput numerator bench/suite/gfw_bench.cpp reads.
  std::uint64_t payload_bytes_delivered() const { return totals().payload_bytes_delivered; }
  // True iff every shard's teardown watchdog came back clean.
  bool teardown_clean() const;
  // "" when clean; otherwise one "shard N: <violations>" line per dirty
  // shard (net::TeardownReport::describe) for test failure messages.
  std::string teardown_failures() const;
  // Per-server aggregation across surviving shards, by server id (fleet
  // campaigns; empty when the scenario had no fleet). Counters merge by
  // kServerCounters; descriptive fields come from the first shard that
  // saw the server.
  std::vector<ServerStats> fleet_totals() const;
  // Shards that failed with FailureKind::kResource (quarantined or
  // recovered): budget breaches, injected exhaustion, rlimit deaths.
  std::size_t resource_failures() const;
  // Shards excluded from the merge after exhausting retries.
  std::size_t shards_quarantined() const;
  // True iff every shard's results made it into the merge.
  bool complete() const { return shards_quarantined() == 0; }
};

// WorkerIoStats's counters (gfw/supervisor.h), each with the CampaignResult
// field that a distributed run's gather reports its total in.
struct WorkerIoCounter {
  const char* name;
  std::uint64_t WorkerIoStats::*field;
  Merge merge;
  std::uint64_t CampaignResult::*total;
};
inline constexpr WorkerIoCounter kWorkerIoCounters[] = {
    {"heartbeats_dropped", &WorkerIoStats::heartbeats_dropped, Merge::kSum,
     &CampaignResult::worker_heartbeats_dropped},
    {"heartbeat_retries", &WorkerIoStats::heartbeat_retries, Merge::kSum,
     &CampaignResult::worker_heartbeat_retries},
    {"journal_retries", &WorkerIoStats::journal_retries, Merge::kSum,
     &CampaignResult::worker_journal_retries},
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
  // Also true for a shard restored from a journal's shard frame
  // (gfw/checkpoint.h), which never carries a failure.
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

// The shard-ordered merge both runners end with: `runs` holds one slot
// per shard, in shard order. Completed shards' logs and summaries are
// appended in that order, with log_offset recomputed; every slot's
// failure joins CampaignResult::failures. The result is identical for
// any thread count, worker count or resume point.
CampaignResult merge_in_shard_order(std::vector<ShardRun>& runs, bool interrupted);

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
