#include "gfw/supervisor.h"

#include <algorithm>
#include <sstream>

namespace gfwsim::gfw {

const char* shard_phase_name(ShardPhase phase) {
  switch (phase) {
    case ShardPhase::kBuild: return "build";
    case ShardPhase::kRun: return "run";
    case ShardPhase::kHarvest: return "harvest";
  }
  return "?";
}

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kException: return "exception";
    case FailureKind::kStall: return "stall";
    case FailureKind::kCrash: return "crash";
    case FailureKind::kExit: return "exit";
    case FailureKind::kResource: return "resource";
  }
  return "?";
}

std::string describe(const ShardFailure& failure) {
  std::ostringstream out;
  out << "shard " << failure.shard_index << " (seed 0x" << std::hex << failure.seed
      << std::dec << ") " << failure_kind_name(failure.kind) << " during "
      << shard_phase_name(failure.phase) << " after " << failure.attempts
      << " attempt(s)";
  if (failure.quarantined) out << " [quarantined]";
  if (failure.nondeterministic) out << " [nondeterministic]";
  out << ": " << failure.what;
  if (!failure.teardown.clean()) {
    out << " (teardown: " << failure.teardown.describe() << ")";
  }
  return out.str();
}

std::string describe(const WorkerIoStats& io) {
  return std::to_string(io.heartbeats_dropped) + " heartbeat(s) dropped, " +
         std::to_string(io.heartbeat_retries) + " heartbeat write(s) retried, " +
         std::to_string(io.journal_retries) + " journal open(s) retried";
}

StallWatchdog::StallWatchdog(std::chrono::milliseconds timeout)
    : timeout_(std::max(timeout, std::chrono::milliseconds(10))),
      thread_([this] { poll_loop(); }) {}

StallWatchdog::~StallWatchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StallWatchdog::watch(std::uint32_t shard, net::LoopProgress* progress) {
  std::lock_guard<std::mutex> lock(mu_);
  Watch watch;
  watch.progress = progress;
  watch.last_events = progress->events.load(std::memory_order_relaxed);
  watch.last_sim_time = progress->sim_time_ns.load(std::memory_order_relaxed);
  watch.last_advance = std::chrono::steady_clock::now();
  watches_[shard] = watch;
}

void StallWatchdog::unwatch(std::uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  watches_.erase(shard);
}

bool StallWatchdog::fired(std::uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_.count(shard) > 0;
}

void StallWatchdog::poll_loop() {
  // Sample several times per timeout so a stall is caught within
  // ~1.25x the configured deadline.
  const auto interval =
      std::max<std::chrono::milliseconds>(timeout_ / 4, std::chrono::milliseconds(5));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [shard, watch] : watches_) {
      const std::uint64_t events =
          watch.progress->events.load(std::memory_order_relaxed);
      const std::int64_t sim_time =
          watch.progress->sim_time_ns.load(std::memory_order_relaxed);
      if (events != watch.last_events || sim_time != watch.last_sim_time) {
        watch.last_events = events;
        watch.last_sim_time = sim_time;
        watch.last_advance = now;
        continue;
      }
      if (now - watch.last_advance >= timeout_) {
        watch.progress->abort.store(true, std::memory_order_relaxed);
        fired_.insert(shard);
        // Keep watching: the abort is picked up between events, and the
        // worker unwatches when its attempt unwinds.
        watch.last_advance = now;
      }
    }
  }
}

}  // namespace gfwsim::gfw
