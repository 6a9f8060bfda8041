#include "gfw/runner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "gfw/checkpoint.h"

namespace gfwsim::gfw {

std::uint64_t shard_seed(std::uint64_t base_seed, std::uint32_t shard_index) {
  // SplitMix64 finalizer over the base seed advanced by the shard index
  // (golden-ratio increment, as in the reference generator).
  std::uint64_t z = base_seed +
                    0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(shard_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool ShardResources::any() const {
  return any_counter(kResourceCounters, *this) || !sheds.empty() ||
         std::any_of(peak_units.begin(), peak_units.end(),
                     [](std::uint64_t peak) { return peak != 0; });
}

bool WorkerIoStats::any() const { return any_counter(kWorkerIoCounters, *this); }

ShardSummary CampaignResult::totals() const {
  ShardSummary sum;
  for (const ShardSummary& shard : shards) {
    merge_counters(kShardCounters, sum, shard);
    merge_counters(kResourceCounters, sum.resources, shard.resources);
  }
  return sum;
}

bool CampaignResult::teardown_clean() const {
  for (const auto& shard : shards) {
    if (!shard.teardown.clean()) return false;
  }
  return true;
}

std::string CampaignResult::teardown_failures() const {
  std::string out;
  for (const auto& shard : shards) {
    if (shard.teardown.clean()) continue;
    if (!out.empty()) out += '\n';
    out += "shard " + std::to_string(shard.shard_index) + ": " +
           shard.teardown.describe();
  }
  return out;
}

std::vector<ServerStats> CampaignResult::fleet_totals() const {
  std::map<std::uint16_t, ServerStats> by_id;
  for (const auto& shard : shards) {
    for (const ServerStats& server : shard.servers) {
      auto [it, inserted] = by_id.try_emplace(server.server_id, server);
      if (!inserted) merge_counters(kServerCounters, it->second, server);
    }
  }
  std::vector<ServerStats> totals;
  totals.reserve(by_id.size());
  for (auto& [id, stats] : by_id) totals.push_back(std::move(stats));
  return totals;
}

std::size_t CampaignResult::resource_failures() const {
  std::size_t n = 0;
  for (const auto& failure : failures) {
    if (failure.kind == FailureKind::kResource) ++n;
  }
  return n;
}

std::size_t CampaignResult::shards_quarantined() const {
  std::size_t n = 0;
  for (const auto& failure : failures) {
    if (failure.quarantined) ++n;
  }
  return n;
}

ShardedRunner::ShardedRunner(ShardedRunnerOptions options)
    : options_(std::move(options)) {}

unsigned ShardedRunner::resolved_threads() const {
  if (options_.threads != 0) return options_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

// One attempt at one shard, fully guarded: every exception (including
// the stall watchdog's LoopAborted) is converted into a ShardFailure.
// `attempt` is the GLOBAL attempt index (earlier processes' attempts
// included), so World::set_debug_attempt sees the same numbering whether
// retries happen in-thread or across a respawned worker process.
ShardRun run_shard_attempt(const Scenario& scenario, std::uint32_t shard, int attempt,
                           StallWatchdog* watchdog, const ShardHook& before,
                           const ShardHook& after, net::LoopProgress* external_progress) {
  ShardRun out;
  ShardFailure failure;
  failure.shard_index = shard;
  failure.seed = shard_seed(scenario.base_seed, shard);
  failure.attempts = attempt + 1;

  // Declared before the World so the loop's raw pointer to it can never
  // dangle (locals destroy in reverse order). An external progress (the
  // distributed worker's shared heartbeat) takes precedence; its owner
  // guarantees it outlives the attempt.
  net::LoopProgress local_progress;
  net::LoopProgress* progress =
      external_progress != nullptr ? external_progress : &local_progress;
  if (external_progress != nullptr) {
    // A fresh attempt must not inherit the previous attempt's abort.
    external_progress->abort.store(false, std::memory_order_relaxed);
  }
  std::unique_ptr<World> world;
  ShardPhase phase = ShardPhase::kBuild;
  bool watched = false;
  try {
    world = std::make_unique<World>(scenario, failure.seed, shard);
    world->set_debug_attempt(attempt);
    world->loop().set_progress(progress);
    if (watchdog != nullptr) {
      watchdog->watch(shard, progress);
      watched = true;
    }
    if (before) before(*world, shard);
    phase = ShardPhase::kRun;
    world->run();
    phase = ShardPhase::kHarvest;
    if (after) after(*world, shard);

    ShardSummary& summary = out.summary;
    summary.shard_index = shard;
    summary.seed = world->seed();
    for (const auto& row : kShardCounters) summary.*row.field = row.read(*world);
    summary.teardown = world->teardown_report();
    summary.probes = world->log().size();
    summary.blocking_history = world->gfw().blocking().history();
    summary.servers = world->server_stats();
    // Resource verdict: all-zero when Scenario::resources left the
    // governor disarmed.
    for (const auto& row : kResourceCounters) {
      summary.resources.*row.field = row.read(*world);
    }
    for (std::size_t kind = 0; kind < net::kResourceKindCount; ++kind) {
      summary.resources.peak_units[kind] =
          world->governor().peak(static_cast<net::ResourceKind>(kind));
    }
    summary.resources.sheds = world->gfw().probe_sheds();
    out.log = world->log();
    out.completed = true;
  } catch (const net::LoopAborted& aborted) {
    failure.kind = FailureKind::kStall;
    failure.phase = phase;
    failure.what = aborted.what();
  } catch (const net::ResourceExhausted& exhausted) {
    // Governor budget breach or injected exhaustion: seed-deterministic,
    // so the normal retry/signature comparison applies.
    failure.kind = FailureKind::kResource;
    failure.phase = phase;
    failure.what = exhausted.what();
  } catch (const std::bad_alloc&) {
    // The allocator itself refused — RLIMIT_AS or a true OOM. Attributed
    // as resource exhaustion rather than a generic exception so the
    // campaign verdict separates "out of budget" from logic bugs.
    failure.kind = FailureKind::kResource;
    failure.phase = phase;
    failure.what = "std::bad_alloc (allocation refused: RLIMIT_AS/OOM)";
  } catch (const std::exception& error) {
    failure.kind = FailureKind::kException;
    failure.phase = phase;
    failure.what = error.what();
  } catch (...) {
    failure.kind = FailureKind::kException;
    failure.phase = phase;
    failure.what = "unknown exception";
  }
  if (watched) watchdog->unwatch(shard);
  if (out.completed) return out;
  if (world != nullptr) {
    // Best-effort snapshot of what the dying World left behind.
    try {
      failure.teardown = world->teardown_report();
    } catch (...) {
    }
  }
  out.failure = std::move(failure);
  return out;
}

}  // namespace

ShardRun run_shard_supervised(const Scenario& scenario, std::uint32_t shard,
                              int max_attempts, int attempt_base,
                              StallWatchdog* watchdog, const ShardHook& before,
                              const ShardHook& after, net::LoopProgress* progress) {
  std::optional<ShardFailure> first_failure;
  for (int attempt = attempt_base; attempt < max_attempts; ++attempt) {
    ShardRun outcome =
        run_shard_attempt(scenario, shard, attempt, watchdog, before, after, progress);
    if (outcome.completed) {
      if (first_failure) {
        // The identical seed succeeded on retry: the failure did not
        // reproduce. Keep it on record, flagged, but merge the shard.
        first_failure->nondeterministic = true;
        first_failure->attempts = attempt + 1;
        outcome.failure = std::move(first_failure);
      }
      return outcome;
    }
    if (!first_failure) {
      first_failure = std::move(outcome.failure);
    } else {
      // Same (phase, kind, what) signature = the failure reproduced
      // deterministically; anything else is evidence of a race.
      if (first_failure->phase != outcome.failure->phase ||
          first_failure->kind != outcome.failure->kind ||
          first_failure->what != outcome.failure->what) {
        first_failure->nondeterministic = true;
      }
      first_failure->attempts = attempt + 1;
    }
  }
  ShardRun run;
  if (first_failure) {
    first_failure->quarantined = true;
    run.failure = std::move(first_failure);
  }
  return run;
}

CampaignResult ShardedRunner::run(const Scenario& scenario) {
  validate(scenario);
  const std::uint32_t shards = std::max<std::uint32_t>(1, options_.shards);
  const unsigned threads =
      static_cast<unsigned>(std::min<std::uint64_t>(resolved_threads(), shards));

  // Checkpoint plumbing: restore completed shards on resume, journal
  // newly completed ones as workers finish them.
  const CheckpointHeader header{kCheckpointVersion, shards, scenario.base_seed,
                               scenario_fingerprint(scenario)};
  // Slot-per-shard outputs: workers write only their own index, so the
  // merge is independent of which thread ran which shard.
  std::vector<ShardRun> runs(shards);
  if (options_.resume && !options_.checkpoint_path.empty() &&
      checkpoint_exists(options_.checkpoint_path)) {
    Checkpoint restored = load_checkpoint(options_.checkpoint_path);
    require_same_campaign(restored.header, header, options_.checkpoint_path);
    for (auto& [index, shard_run] : restored.shards) runs[index] = std::move(shard_run);
  }
  std::unique_ptr<CheckpointWriter> writer;
  std::mutex writer_mu;
  if (!options_.checkpoint_path.empty()) {
    writer = std::make_unique<CheckpointWriter>(options_.checkpoint_path, header,
                                                /*append=*/options_.resume);
  }

  std::optional<StallWatchdog> watchdog;
  if (options_.stall_timeout.count() > 0) watchdog.emplace(options_.stall_timeout);
  StallWatchdog* watchdog_ptr = watchdog ? &*watchdog : nullptr;

  const int max_attempts = 1 + std::max(0, options_.shard_retries);
  const std::atomic<int>* interrupt = options_.interrupt;
  std::atomic<std::uint32_t> next{0};
  const auto worker = [&] {
    for (;;) {
      // Graceful interrupt: stop claiming new shards; the ones already
      // running finish and are journaled, so a --resume rerun continues
      // exactly where the operator's SIGTERM landed.
      if (interrupt != nullptr && interrupt->load(std::memory_order_relaxed) != 0) {
        return;
      }
      const std::uint32_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;
      if (runs[shard].completed) continue;  // restored from the checkpoint

      runs[shard] = run_shard_supervised(scenario, shard, max_attempts,
                                         /*attempt_base=*/0, watchdog_ptr, before_, after_);
      if (runs[shard].completed && writer) {
        std::lock_guard<std::mutex> lock(writer_mu);
        writer->append_shard(runs[shard].summary, runs[shard].log);
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  return merge_in_shard_order(
      runs, interrupt != nullptr && interrupt->load(std::memory_order_relaxed) != 0);
}

CampaignResult merge_in_shard_order(std::vector<ShardRun>& runs, bool interrupted) {
  CampaignResult result;
  result.interrupted = interrupted;
  std::size_t total = 0;
  for (const ShardRun& run : runs) {
    if (run.completed) total += run.log.size();
  }
  result.log.reserve(total);
  for (ShardRun& run : runs) {
    if (run.failure) result.failures.push_back(std::move(*run.failure));
    if (!run.completed) continue;
    run.summary.log_offset = result.log.size();
    result.log.merge(run.log);
    result.shards.push_back(std::move(run.summary));
  }
  return result;
}

CampaignResult run_serial(const Scenario& scenario) {
  ShardedRunner runner({/*shards=*/1, /*threads=*/1});
  return runner.run(scenario);
}

}  // namespace gfwsim::gfw
