// Supervision layer for sharded campaigns: the failure taxonomy one
// crashed/stalled shard is reduced to, and the wall-clock stall watchdog
// that deadlines shards whose event loop stops making progress.
//
// Containment contract (implemented by gfw::ShardedRunner): a shard that
// throws, trips the teardown watchdog, or is deadlined by the stall
// watchdog becomes a structured ShardFailure instead of killing the
// campaign. Failed shards are retried with the SAME SplitMix64 seed — a
// deterministic failure reproduces bit-identically, so a retry that
// succeeds (or fails differently) is evidence of nondeterminism (e.g. a
// real data race) and is flagged as such. Once retries are exhausted the
// shard is quarantined: excluded from the merge, its failure preserved
// in CampaignResult::failures.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "net/event_loop.h"
#include "net/network.h"

namespace gfwsim::gfw {

// Where in a shard's lifecycle the failure surfaced.
enum class ShardPhase {
  kBuild,    // World construction / before_run hook
  kRun,      // the campaign itself (World::run)
  kHarvest,  // after_run hook / summary extraction
};

enum class FailureKind {
  kException,  // an exception escaped the shard
  kStall,      // the stall watchdog (or the distributed coordinator's
               // heartbeat deadline) deadlined the shard
  // Process-level kinds recorded by the distributed coordinator
  // (gfw/dist_runner.h) when a whole worker process dies with this shard
  // in flight. They carry no (phase, kind, what) signature comparison —
  // an external SIGKILL or an OOM kill says nothing about determinism —
  // so they never set `nondeterministic`.
  kCrash,  // the worker died on a signal (segfault, unattributed SIGKILL)
  kExit,   // the worker exited with a nonzero status
  // Resource exhaustion, attributed deterministically where possible: a
  // ResourceGovernor budget breach or injected failure
  // (net::ResourceExhausted), a std::bad_alloc (allocation refused under
  // RLIMIT_AS or a true OOM), or a worker killed by SIGXCPU / OOM-killed
  // under a configured RLIMIT_AS (waitpid attribution in the distributed
  // coordinator). Governor breaches are seed-deterministic and follow the
  // normal retry/signature rules; the process-level attributions, like
  // kCrash/kExit, never set `nondeterministic`.
  kResource,
};

const char* shard_phase_name(ShardPhase phase);
const char* failure_kind_name(FailureKind kind);

// Everything the campaign keeps about one misbehaving shard.
struct ShardFailure {
  std::uint32_t shard_index = 0;
  std::uint64_t seed = 0;  // the shard's SplitMix64 seed — reruns reproduce
  ShardPhase phase = ShardPhase::kRun;
  FailureKind kind = FailureKind::kException;
  std::string what;  // exception what() / abort reason
  int attempts = 1;  // total attempts, including the first
  // Retries exhausted; the shard is excluded from the merged result.
  // False means a retry succeeded and the shard's results are good.
  bool quarantined = false;
  // A retry with the identical seed succeeded or failed with a different
  // (phase, kind, what) signature — the failure did not reproduce.
  bool nondeterministic = false;
  // Best-effort teardown scan of the failed World, when it survived long
  // enough to be scanned (all-zero otherwise).
  net::TeardownReport teardown;
};

// One line: "shard 3 (seed 0x...) stall during run after 2 attempt(s): ..."
std::string describe(const ShardFailure& failure);

// A distributed worker's pipe/journal IO verdict (gfw/dist_runner.h),
// journaled as a kind-5 frame at worker exit when any counter is nonzero
// (gfw/checkpoint.h). Its counter table is kWorkerIoCounters
// (gfw/runner.h).
struct WorkerIoStats {
  std::uint32_t worker_id = 0;
  // Heartbeat messages irrecoverably lost after the EINTR/partial-write
  // retry loop gave up (the coordinator saw a stale heartbeat instead).
  std::uint64_t heartbeats_dropped = 0;
  // Heartbeat writes that needed at least one retry but went through.
  std::uint64_t heartbeat_retries = 0;
  // Journal/pipe opens retried with backoff under fd exhaustion
  // (EMFILE/ENFILE) before succeeding.
  std::uint64_t journal_retries = 0;

  bool any() const;
};

// "3 heartbeat(s) dropped, 19 heartbeat write(s) retried, 1 journal
// open(s) retried"
std::string describe(const WorkerIoStats& io);

// Wall-clock supervisor thread. Workers register their shard's
// net::LoopProgress before running it; the watchdog samples every
// registered heartbeat a few times per timeout period and, when a
// shard's (events, sim_time) pair has not advanced for `timeout`, sets
// the loop's abort flag — the shard's own thread then throws
// net::LoopAborted between events and the runner records a kStall
// failure. Sampling is wall-clock and thus nondeterministic in *when* it
// fires, but which shards stall (and everything in the merged result) is
// simulation-deterministic.
class StallWatchdog {
 public:
  explicit StallWatchdog(std::chrono::milliseconds timeout);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  // Registers/unregisters a shard's heartbeat. `progress` must stay
  // alive until the matching unwatch() returns.
  void watch(std::uint32_t shard, net::LoopProgress* progress);
  void unwatch(std::uint32_t shard);

  // Has the watchdog ever deadlined this shard (any attempt)?
  bool fired(std::uint32_t shard) const;

 private:
  struct Watch {
    net::LoopProgress* progress = nullptr;
    std::uint64_t last_events = 0;
    std::int64_t last_sim_time = 0;
    std::chrono::steady_clock::time_point last_advance;
  };

  void poll_loop();

  const std::chrono::milliseconds timeout_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<std::uint32_t, Watch> watches_;
  std::set<std::uint32_t> fired_;
  std::thread thread_;
};

}  // namespace gfwsim::gfw
