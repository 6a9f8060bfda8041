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

std::size_t CampaignResult::connections_launched() const {
  std::size_t n = 0;
  for (const auto& shard : shards) n += shard.connections_launched;
  return n;
}

std::size_t CampaignResult::control_contacts() const {
  std::size_t n = 0;
  for (const auto& shard : shards) n += shard.control_contacts;
  return n;
}

std::size_t CampaignResult::flows_flagged() const {
  std::size_t n = 0;
  for (const auto& shard : shards) n += shard.flows_flagged;
  return n;
}

std::size_t CampaignResult::segments_dropped_loss() const {
  std::size_t n = 0;
  for (const auto& shard : shards) n += shard.segments_dropped_loss;
  return n;
}

std::size_t CampaignResult::retransmissions() const {
  std::size_t n = 0;
  for (const auto& shard : shards) n += shard.retransmissions;
  return n;
}

std::uint64_t CampaignResult::payload_bytes_delivered() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards) n += shard.payload_bytes_delivered;
  return n;
}

std::uint64_t CampaignResult::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards) n += shard.events_processed;
  return n;
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
      if (inserted) continue;
      it->second.connections_launched += server.connections_launched;
      it->second.payload_bytes += server.payload_bytes;
      it->second.probes += server.probes;
      it->second.blocks += server.blocks;
    }
  }
  std::vector<ServerStats> totals;
  totals.reserve(by_id.size());
  for (auto& [id, stats] : by_id) totals.push_back(std::move(stats));
  return totals;
}

std::uint64_t CampaignResult::probes_shed() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards) n += shard.resources.probes_shed;
  return n;
}

std::uint64_t CampaignResult::probes_deferred() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards) n += shard.resources.probes_deferred;
  return n;
}

std::uint64_t CampaignResult::queue_overflow_drops() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards) n += shard.resources.queue_overflow_drops;
  return n;
}

std::uint64_t CampaignResult::peak_metered_bytes() const {
  std::uint64_t peak = 0;
  for (const auto& shard : shards) {
    peak = std::max(peak, shard.resources.peak_metered_bytes);
  }
  return peak;
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
struct ShardAttemptOutcome {
  bool ok = false;
  ShardSummary summary;
  ProbeLog log;
  ShardFailure failure;  // meaningful only when !ok
};

// `attempt` is the GLOBAL attempt index (earlier processes' attempts
// included), so World::set_debug_attempt sees the same numbering whether
// retries happen in-thread or across a respawned worker process.
ShardAttemptOutcome run_shard_attempt(const Scenario& scenario, std::uint32_t shard,
                                      int attempt, StallWatchdog* watchdog,
                                      const ShardHook& before, const ShardHook& after,
                                      net::LoopProgress* external_progress) {
  ShardAttemptOutcome out;
  out.failure.shard_index = shard;
  out.failure.seed = shard_seed(scenario.base_seed, shard);
  out.failure.attempts = attempt + 1;

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
    world = std::make_unique<World>(scenario, out.failure.seed, shard);
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
    summary.connections_launched = world->connections_launched();
    summary.control_contacts = world->control_host_contacts();
    summary.flows_inspected = world->gfw().flows_inspected();
    summary.flows_flagged = world->gfw().flows_flagged();
    summary.segments_transmitted = world->network().segments_transmitted();
    summary.segments_delivered = world->network().segments_delivered();
    summary.payload_bytes_delivered = world->network().payload_bytes_delivered();
    summary.segments_dropped_middlebox =
        world->network().segments_dropped_middlebox();
    summary.segments_dropped_loss = world->network().segments_dropped_loss();
    summary.segments_dropped_outage = world->network().segments_dropped_outage();
    summary.segments_duplicated = world->network().segments_duplicated();
    summary.segments_reordered = world->network().segments_reordered();
    summary.retransmissions = world->network().retransmissions();
    summary.probe_connect_retries = world->gfw().probe_connect_retries();
    summary.events_processed = world->loop().events_processed();
    summary.teardown = world->teardown_report();
    summary.probes = world->log().size();
    summary.blocking_history = world->gfw().blocking().history();
    summary.servers = world->server_stats();
    // Resource verdict: all-zero when Scenario::resources left the
    // governor disarmed.
    summary.resources.probes_shed = world->gfw().probes_shed();
    summary.resources.probes_deferred = world->gfw().probes_deferred();
    summary.resources.queue_overflow_drops =
        world->network().segments_dropped_queue();
    summary.resources.peak_metered_bytes = world->governor().peak_bytes();
    summary.resources.acquisitions = world->governor().acquisitions();
    for (std::size_t kind = 0; kind < net::kResourceKindCount; ++kind) {
      summary.resources.peak_units[kind] =
          world->governor().peak(static_cast<net::ResourceKind>(kind));
    }
    for (const Gfw::ProbeShed& shed : world->gfw().probe_sheds()) {
      summary.resources.sheds.push_back(
          ShedRecord{shed.server_id, shed.region, shed.count});
    }
    out.log = world->log();
    out.ok = true;
  } catch (const net::LoopAborted& aborted) {
    out.failure.kind = FailureKind::kStall;
    out.failure.phase = phase;
    out.failure.what = aborted.what();
  } catch (const net::ResourceExhausted& exhausted) {
    // Governor budget breach or injected exhaustion: seed-deterministic,
    // so the normal retry/signature comparison applies.
    out.failure.kind = FailureKind::kResource;
    out.failure.phase = phase;
    out.failure.what = exhausted.what();
  } catch (const std::bad_alloc&) {
    // The allocator itself refused — RLIMIT_AS or a true OOM. Attributed
    // as resource exhaustion rather than a generic exception so the
    // campaign verdict separates "out of budget" from logic bugs.
    out.failure.kind = FailureKind::kResource;
    out.failure.phase = phase;
    out.failure.what = "std::bad_alloc (allocation refused: RLIMIT_AS/OOM)";
  } catch (const std::exception& error) {
    out.failure.kind = FailureKind::kException;
    out.failure.phase = phase;
    out.failure.what = error.what();
  } catch (...) {
    out.failure.kind = FailureKind::kException;
    out.failure.phase = phase;
    out.failure.what = "unknown exception";
  }
  if (watched) watchdog->unwatch(shard);
  if (!out.ok && world != nullptr) {
    // Best-effort snapshot of what the dying World left behind.
    try {
      out.failure.teardown = world->teardown_report();
    } catch (...) {
    }
  }
  return out;
}

}  // namespace

ShardRun run_shard_supervised(const Scenario& scenario, std::uint32_t shard,
                              int max_attempts, int attempt_base,
                              StallWatchdog* watchdog, const ShardHook& before,
                              const ShardHook& after, net::LoopProgress* progress) {
  ShardRun run;
  std::optional<ShardFailure> first_failure;
  for (int attempt = attempt_base; attempt < max_attempts; ++attempt) {
    ShardAttemptOutcome outcome =
        run_shard_attempt(scenario, shard, attempt, watchdog, before, after, progress);
    if (outcome.ok) {
      if (first_failure) {
        // The identical seed succeeded on retry: the failure did not
        // reproduce. Keep it on record, flagged, but merge the shard.
        first_failure->nondeterministic = true;
        first_failure->attempts = attempt + 1;
        run.failure = std::move(first_failure);
      }
      run.summary = std::move(outcome.summary);
      run.log = std::move(outcome.log);
      run.completed = true;
      return run;
    }
    if (!first_failure) {
      first_failure = std::move(outcome.failure);
    } else {
      // Same (phase, kind, what) signature = the failure reproduced
      // deterministically; anything else is evidence of a race.
      if (first_failure->phase != outcome.failure.phase ||
          first_failure->kind != outcome.failure.kind ||
          first_failure->what != outcome.failure.what) {
        first_failure->nondeterministic = true;
      }
      first_failure->attempts = attempt + 1;
    }
  }
  if (first_failure) {
    first_failure->quarantined = true;
    run.failure = std::move(first_failure);
  }
  return run;
}

CampaignResult ShardedRunner::run(const Scenario& scenario) {
  const std::uint32_t shards = std::max<std::uint32_t>(1, options_.shards);
  const unsigned threads =
      static_cast<unsigned>(std::min<std::uint64_t>(resolved_threads(), shards));

  // Checkpoint plumbing: restore completed shards on resume, journal
  // newly completed ones as workers finish them.
  const CheckpointHeader header{kCheckpointVersion, shards, scenario.base_seed,
                               scenario_fingerprint(scenario)};
  std::vector<char> completed(shards, 0);
  std::vector<ProbeLog> logs(shards);
  std::vector<ShardSummary> summaries(shards);
  if (options_.resume && !options_.checkpoint_path.empty() &&
      checkpoint_exists(options_.checkpoint_path)) {
    Checkpoint restored = load_checkpoint(options_.checkpoint_path);
    require_same_campaign(restored.header, header, options_.checkpoint_path);
    for (auto& [index, shard_checkpoint] : restored.shards) {
      logs[index] = std::move(shard_checkpoint.log);
      summaries[index] = std::move(shard_checkpoint.summary);
      completed[index] = 1;
    }
  }
  std::unique_ptr<CheckpointWriter> writer;
  std::mutex writer_mu;
  if (!options_.checkpoint_path.empty()) {
    writer = std::make_unique<CheckpointWriter>(options_.checkpoint_path, header,
                                                /*append=*/options_.resume);
  }

  // Slot-per-shard outputs: workers write only their own index, so the
  // merge below is independent of which thread ran which shard.
  std::vector<std::optional<ShardFailure>> failures(shards);

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
      if (completed[shard]) continue;  // restored from the checkpoint

      ShardRun run = run_shard_supervised(scenario, shard, max_attempts,
                                          /*attempt_base=*/0, watchdog_ptr, before_,
                                          after_);
      if (run.failure) failures[shard] = std::move(run.failure);
      if (!run.completed) continue;
      summaries[shard] = std::move(run.summary);
      logs[shard] = std::move(run.log);
      completed[shard] = 1;
      if (writer) {
        std::lock_guard<std::mutex> lock(writer_mu);
        writer->append_shard(summaries[shard], logs[shard]);
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

  // Shard-ordered merge over the survivors: identical regardless of
  // thread count, and identical to an uninterrupted run when resuming.
  CampaignResult result;
  result.interrupted =
      interrupt != nullptr && interrupt->load(std::memory_order_relaxed) != 0;
  std::size_t total = 0;
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    if (completed[shard]) total += logs[shard].size();
  }
  result.log.reserve(total);
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    if (failures[shard]) result.failures.push_back(std::move(*failures[shard]));
    if (!completed[shard]) continue;
    summaries[shard].log_offset = result.log.size();
    result.log.merge(logs[shard]);
    result.shards.push_back(std::move(summaries[shard]));
  }
  return result;
}

CampaignResult run_serial(const Scenario& scenario) {
  ShardedRunner runner({/*shards=*/1, /*threads=*/1});
  return runner.run(scenario);
}

}  // namespace gfwsim::gfw
