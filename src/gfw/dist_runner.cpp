#include "gfw/dist_runner.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/bytes.h"
#include "gfw/checkpoint.h"

namespace gfwsim::gfw {

namespace {

using Clock = std::chrono::steady_clock;

// ---- worker channel protocol ----------------------------------------------
//
// Each worker has one AF_UNIX SOCK_SEQPACKET socket pair with the
// coordinator. Every send is one record and every recv returns exactly
// one, so the heartbeat thread and the shard thread share the worker's
// end without their messages ever interleaving.
//
// Worker → coordinator, fixed 13-byte little-endian messages:
//   u8 tag, u32 shard, u64 event counter.
constexpr std::size_t kMsgSize = 13;
constexpr std::uint8_t kMsgHeartbeat = 'H';   // liveness; events sampled
constexpr std::uint8_t kMsgShardStart = 'S';  // shard = starting shard
constexpr std::uint8_t kMsgShardDone = 'D';   // shard completed + journaled
constexpr std::uint8_t kMsgShardFailed = 'F';  // shard quarantined in-worker
constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

// Coordinator → worker, one 8-byte reply to each 'D' or 'F' (which is
// therefore also the request for the next shard): u32 shard, u32 attempt
// base. kNoShard = exit 0.
constexpr std::size_t kAssignSize = 8;

// How often each worker sends a heartbeat.
constexpr std::chrono::milliseconds kHeartbeatInterval{25};

// Worker exit codes the coordinator understands.
constexpr int kExitOk = 0;           // told kNoShard: nothing left to run
constexpr int kExitJournal = 2;      // could not open/write the slot journal
constexpr int kExitInterrupted = 3;  // SIGTERM honored between shards, or orphaned

// Hardened channel send: EINTR retries (a signal — SIGTERM from the
// stall ladder, SIGXCPU nearing an rlimit — landing mid-send must not
// silently eat a liveness message), transient kernel-side refusals
// (EAGAIN/ENOBUFS/ENOMEM) get a bounded spin, and only then is the
// message counted as irrecoverably dropped. EPIPE means the coordinator
// is gone: a seqpacket send raises no SIGPIPE, so the orphaned worker
// exits here.
void send_msg(int fd, std::uint8_t tag, std::uint32_t shard, std::uint64_t events,
              WorkerIoStats& io) {
  std::uint8_t buf[kMsgSize];
  buf[0] = tag;
  store_le32(buf + 1, shard);
  store_le64(buf + 5, events);
  bool sent = false;
  bool retried = false;
  int transient_spins = 0;
  while (!sent) {
    if (::send(fd, buf, kMsgSize, MSG_NOSIGNAL) == static_cast<ssize_t>(kMsgSize)) {
      sent = true;
    } else if (errno == EPIPE) {
      std::_Exit(kExitInterrupted);
    } else if (errno == EINTR) {
      retried = true;
    } else if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
                errno == ENOMEM) &&
               ++transient_spins <= 64) {
      retried = true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      break;  // EBADF and friends, or the coordinator hopelessly behind
    }
  }
  // The heartbeat thread and the shard loop both send, so the counters
  // are bumped atomically.
  static_assert(alignof(std::uint64_t) >= std::atomic_ref<std::uint64_t>::required_alignment);
  if (!sent) {
    std::atomic_ref(io.heartbeats_dropped).fetch_add(1, std::memory_order_relaxed);
  } else if (retried) {
    std::atomic_ref(io.heartbeat_retries).fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- worker process --------------------------------------------------------

// SIGTERM = graceful stop: finish (and journal) the in-flight shard,
// then exit 3 instead of claiming the next one. A worker too wedged to
// get here is exactly what the coordinator's SIGKILL rung is for.
volatile std::sig_atomic_t g_worker_stop = 0;
void worker_term_handler(int) { g_worker_stop = 1; }

// Blocks for the coordinator's reply to a 'D' or 'F' and returns the
// assigned shard. EOF (the coordinator is gone) reads as kNoShard.
std::uint32_t recv_assignment(int fd, int& attempt_base) {
  std::uint8_t buf[kAssignSize];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) < 0 && errno == EINTR) {
  }
  if (n != static_cast<ssize_t>(kAssignSize)) return kNoShard;
  attempt_base = static_cast<int>(load_le32(buf + 4));
  return load_le32(buf);
}

// Everything a worker needs, captured in coordinator memory immediately
// before fork(): the child reads the fork-time snapshot, so the scenario,
// hooks and first assignment need no serialization and no round trip.
struct WorkerConfig {
  const Scenario* scenario = nullptr;
  const ShardHook* before = nullptr;
  const ShardHook* after = nullptr;
  std::string journal_path;
  CheckpointHeader header;
  std::uint32_t first_shard = kNoShard;
  int first_attempt_base = 0;  // attempts the shard spent in dead processes
  int max_attempts = 1;
  int fd = -1;  // the worker's end of its channel
  std::chrono::milliseconds stall_timeout{0};
  // Slot index, recorded in the kind-5 worker-io frame.
  std::uint32_t worker_id = 0;
  // setrlimit values applied in the child (0 = inherit).
  std::uint64_t rlimit_as = 0;
  std::uint64_t rlimit_cpu = 0;
  std::uint64_t rlimit_nofile = 0;
};

// Applies one rlimit in the freshly forked child. Best effort: lowering
// is always allowed; an EPERM (raising over the hard limit without
// privilege) keeps the inherited limit, which is the conservative
// outcome.
void apply_rlimit(int resource, std::uint64_t value) {
  if (value == 0) return;
  struct rlimit rl;
  rl.rlim_cur = static_cast<rlim_t>(value);
  rl.rlim_max = static_cast<rlim_t>(value);
  if (::setrlimit(resource, &rl) != 0) {
    // Retry with only the soft limit under the existing hard ceiling.
    struct rlimit cur;
    if (::getrlimit(resource, &cur) == 0) {
      rl.rlim_max = cur.rlim_max;
      if (rl.rlim_cur > cur.rlim_max) rl.rlim_cur = cur.rlim_max;
      ::setrlimit(resource, &rl);
    }
  }
}

// Sends a heartbeat every kHeartbeatInterval until destroyed. The destructor wakes
// the thread through a condition variable and joins it, so a finishing
// worker does not wait out an interval before it can be reaped, and an
// exception leaving the shard loop never destroys a joinable thread.
class Heartbeat {
 public:
  Heartbeat(int fd, const std::atomic<std::uint32_t>& shard,
            const net::LoopProgress& progress, WorkerIoStats& io)
      : thread_([this, fd, &shard, &progress, &io] {
          std::unique_lock lock(mutex_);
          while (!stop_) {
            lock.unlock();
            send_msg(fd, kMsgHeartbeat, shard.load(std::memory_order_relaxed),
                     progress.events.load(std::memory_order_relaxed), io);
            lock.lock();
            wake_.wait_for(lock, kHeartbeatInterval, [this] { return stop_; });
          }
        }) {}
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;
  ~Heartbeat() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: starts once the members it reads exist
};

[[noreturn]] void worker_main(const WorkerConfig& cfg) {
  std::signal(SIGTERM, worker_term_handler);
  std::signal(SIGINT, SIG_IGN);  // the coordinator orchestrates interrupts

  // OS-level budgets, applied before any journal or simulation work so
  // every allocation this process makes is under them. Deaths they cause
  // (SIGXCPU, OOM kill under RLIMIT_AS) are attributed kResource by the
  // coordinator's waitpid ladder.
  apply_rlimit(RLIMIT_AS, cfg.rlimit_as);
  apply_rlimit(RLIMIT_CPU, cfg.rlimit_cpu);
  apply_rlimit(RLIMIT_NOFILE, cfg.rlimit_nofile);

  // IO degradation counters, journaled as a kind-5 frame at worker exit
  // (only when nonzero) so the coordinator and `gfw_worker --describe`
  // can surface degraded-channel runs.
  WorkerIoStats io;
  io.worker_id = cfg.worker_id;
  int exit_code = kExitOk;
  try {
    // Append mode resumes a dead predecessor's journal: the header is
    // validated and any torn tail frame from the death is truncated.
    // Opening can lose a race for the last file descriptors (tight
    // RLIMIT_NOFILE, a leaky sibling): retry with backoff instead of
    // dying on the first EMFILE/ENFILE, counting each retry.
    std::optional<CheckpointWriter> writer;
    for (int attempt = 0;; ++attempt) {
      errno = 0;
      try {
        writer.emplace(cfg.journal_path, cfg.header, /*append=*/true);
        break;
      } catch (const CheckpointError&) {
        const bool fd_exhaustion =
            errno == EMFILE || errno == ENFILE || errno == EINTR;
        if (!fd_exhaustion || attempt >= 5) throw;
        ++io.journal_retries;  // before any other thread exists
        std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
      }
    }

    // Same in-simulation stall semantics as the threaded runner; the
    // coordinator's heartbeat deadline is the PROCESS-level layer above.
    std::optional<StallWatchdog> watchdog;
    if (cfg.stall_timeout.count() > 0) watchdog.emplace(cfg.stall_timeout);

    net::LoopProgress progress;
    std::atomic<std::uint32_t> current_shard{kNoShard};
    std::optional<Heartbeat> heartbeat;
    heartbeat.emplace(cfg.fd, current_shard, progress, io);

    std::uint32_t shard = cfg.first_shard;
    int attempt_base = cfg.first_attempt_base;
    while (shard != kNoShard && g_worker_stop == 0) {
      current_shard.store(shard, std::memory_order_relaxed);
      send_msg(cfg.fd, kMsgShardStart, shard, static_cast<std::uint64_t>(attempt_base), io);
      ShardRun run = run_shard_supervised(
          *cfg.scenario, shard, cfg.max_attempts, attempt_base,
          watchdog ? &*watchdog : nullptr, *cfg.before, *cfg.after, &progress);
      if (run.failure) writer->append_failure(*run.failure);
      if (run.completed) writer->append_shard(run.summary, run.log);
      current_shard.store(kNoShard, std::memory_order_relaxed);
      send_msg(cfg.fd, run.completed ? kMsgShardDone : kMsgShardFailed, shard,
               progress.events.load(std::memory_order_relaxed), io);
      if (g_worker_stop != 0) break;
      shard = recv_assignment(cfg.fd, attempt_base);
    }
    if (g_worker_stop != 0) exit_code = kExitInterrupted;
    heartbeat.reset();
    // IO degradation verdict, journaled after the heartbeat thread has
    // stopped touching the counters — and only when something actually
    // degraded, so clean journals gain no bytes.
    if (io.any()) writer->append_worker_io(io);
  } catch (...) {
    // Journal trouble (unwritable path, corrupt predecessor file the
    // coordinator failed to sanitize). The coordinator sees kExit and
    // decides whether a respawn is worth it.
    std::_Exit(kExitJournal);
  }
  // _Exit, not exit: a forked child must not run the parent's atexit
  // chain or flush the parent's inherited stdio buffers.
  std::_Exit(exit_code);
}

// ---- coordinator-side worker bookkeeping -----------------------------------

struct WorkerProc {
  pid_t pid = -1;
  int slot = -1;
  int fd = -1;  // channel, coordinator's end
  std::uint32_t in_flight = kNoShard;  // set when the shard is assigned
  bool started = false;                // 'S' seen for in_flight
  Clock::time_point last_msg;
  Clock::time_point term_deadline;
  bool stall_initiated = false;  // WE sent SIGTERM for heartbeat silence
  int shard_starts = 0;          // chaos trigger counter
  bool alive = true;
};

// A worker's channel, retrying with backoff under fd exhaustion: a
// coordinator briefly out of descriptors (EMFILE/ENFILE, e.g. dead
// workers' ends not yet closed by a racing reap) should wait for the
// pressure to clear, not abort the campaign.
void open_channel(int fds[2]) {
  for (int attempt = 0;; ++attempt) {
    if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds) == 0) return;
    const bool fd_exhaustion = errno == EMFILE || errno == ENFILE || errno == EINTR;
    if (!fd_exhaustion || attempt >= 5) {
      throw std::runtime_error(std::string("DistRunner: socketpair failed: ") +
                               std::strerror(errno));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
  }
}

std::string signal_text(int sig) {
  const char* name = strsignal(sig);
  return std::to_string(sig) + (name != nullptr ? std::string(" (") + name + ")" : "");
}

}  // namespace

DistRunner::DistRunner(DistRunnerOptions options) : options_(std::move(options)) {}

CampaignResult DistRunner::run(const Scenario& scenario) {
  validate(scenario);
  const std::uint32_t shards = std::max<std::uint32_t>(1, options_.shards);
  const unsigned workers = std::max<unsigned>(
      1, std::min<unsigned>(options_.workers, shards));
  const int max_attempts = 1 + std::max(0, options_.shard_retries);
  if (options_.chaos_kill_after_shards > 0 && options_.chaos_signal == SIGSTOP &&
      options_.stall_timeout.count() <= 0) {
    throw std::invalid_argument(
        "DistRunner: SIGSTOP chaos needs stall_timeout > 0 — a stopped worker "
        "is collected only by the heartbeat-deadline SIGKILL ladder");
  }

  const CheckpointHeader header{kCheckpointVersion, shards, scenario.base_seed,
                                scenario_fingerprint(scenario)};

  // Journal prefix: operator-provided prefixes persist (that is the
  // resume story); an empty prefix gets a private temp dir torn down
  // after the merge.
  std::string prefix = options_.journal_prefix;
  std::string tmpdir;
  if (prefix.empty()) {
    std::string templ = "/tmp/gfwdist.XXXXXX";
    const char* env = std::getenv("TMPDIR");
    if (env != nullptr && *env != '\0') {
      templ = std::string(env) + "/gfwdist.XXXXXX";
    }
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("DistRunner: mkdtemp failed: " +
                               std::string(std::strerror(errno)));
    }
    tmpdir.assign(buf.data());
    prefix = tmpdir + "/campaign";
  }
  const auto journal_path = [&](int slot) {
    return prefix + ".worker" + std::to_string(slot);
  };

  // Campaign state, owned by the coordinator alone. `done` = completed OR
  // quarantined; `home[shard]` is the slot whose journal holds a
  // completed shard's results (-1: not completed); `pool` holds the undone
  // shards no live worker holds, handed out lowest index first.
  std::vector<char> done(shards, 0);
  std::vector<int> home(shards, -1);
  std::vector<int> attempts(shards, 0);
  std::set<std::uint32_t> pool;
  // Process-level failure records (worker deaths); journal kind-3 frames
  // are folded in at merge time and win ties.
  std::map<std::uint32_t, ShardFailure> death_failures;

  // Validate-or-delete one slot journal. A parseable journal marks its
  // shards done; a corrupt one (CRC mismatch, implausible length, bad
  // magic) is DELETED so its shards re-run — suspect bytes never merge.
  // Returns false when the journal was removed or absent.
  const auto sanitize_journal = [&](int slot) -> bool {
    const std::string path = journal_path(slot);
    if (!checkpoint_exists(path)) return false;
    Checkpoint ck;
    try {
      ck = load_checkpoint(path);
    } catch (const CheckpointError&) {
      std::remove(path.c_str());
      return false;
    }
    // Another campaign's journal is refused, never deleted: it is not
    // this run's to discard.
    require_same_campaign(ck.header, header, path);
    for (const auto& [index, shard_checkpoint] : ck.shards) {
      done[index] = 1;
      home[index] = slot;
    }
    for (const ShardFailure& f : ck.failures) {
      attempts[f.shard_index] = std::max(attempts[f.shard_index], f.attempts);
      if (f.quarantined && home[f.shard_index] < 0) done[f.shard_index] = 1;
    }
    return true;
  };

  // Journals may sit in any slot below `shards` (workers are clamped to
  // it): a resume reads them all, whatever worker count wrote them or
  // gfw_worker named them for, and a fresh run clears them all.
  for (std::uint32_t slot = 0; slot < shards; ++slot) {
    if (options_.resume) {
      sanitize_journal(static_cast<int>(slot));
    } else {
      std::remove(journal_path(static_cast<int>(slot)).c_str());
    }
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (!done[s]) pool.insert(pool.end(), s);
  }

  // Best-effort persistence of a process-death verdict into the dead
  // worker's own journal, so resumed runs keep the attempt count and the
  // final merge surfaces the recovery even if this coordinator dies too.
  const auto journal_death = [&](int slot, const ShardFailure& f) {
    try {
      CheckpointWriter w(journal_path(slot), header, /*append=*/true);
      w.append_failure(f);
    } catch (const CheckpointError&) {
      // The in-memory record still reaches the merge.
    }
  };

  const std::atomic<int>* interrupt = options_.interrupt;
  bool interrupt_seen = false;
  bool interrupt_sent = false;

  const int chaos_slot = options_.chaos_kill_after_shards <= 0
                             ? -1
                             : static_cast<int>(scenario.base_seed % workers);
  bool chaos_fired = false;

  // Safety valve on replacement forks: every shard could burn its whole
  // retry budget as a process death. When the budget runs out and no
  // worker is left alive, the shards still in the pool are quarantined
  // instead of forking forever.
  const int respawn_limit = static_cast<int>(shards) * max_attempts + static_cast<int>(workers);
  int respawns_used = 0;

  std::vector<WorkerProc> procs;
  procs.reserve(workers * 2);

  // Forks a worker into `slot` with the pool's lowest shard as its first
  // assignment, handed over through the fork-time WorkerConfig snapshot:
  // the first World is built without waiting on a round trip. Callers
  // guarantee a non-empty pool.
  const auto spawn = [&](int slot) {
    int channel[2];
    open_channel(channel);
    const std::uint32_t first = pool.extract(pool.begin()).value();
    WorkerConfig cfg;
    cfg.scenario = &scenario;
    cfg.before = &before_;
    cfg.after = &after_;
    cfg.journal_path = journal_path(slot);
    cfg.header = header;
    cfg.first_shard = first;
    cfg.first_attempt_base = attempts[first];
    cfg.max_attempts = max_attempts;
    cfg.fd = channel[1];
    cfg.stall_timeout = options_.stall_timeout;
    cfg.worker_id = static_cast<std::uint32_t>(slot);
    cfg.rlimit_as = options_.worker_rlimit_as;
    cfg.rlimit_cpu = options_.worker_rlimit_cpu;
    cfg.rlimit_nofile = options_.worker_rlimit_nofile;

    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(channel[0]);
      ::close(channel[1]);
      throw std::runtime_error("DistRunner: fork failed: " + std::string(std::strerror(err)));
    }
    if (pid == 0) {
      // Keep only this worker's own end. A sibling's coordinator-side
      // end held open here would stop that sibling from seeing EOF or
      // EPIPE on its channel when the coordinator dies.
      for (const WorkerProc& p : procs) {
        if (p.fd >= 0) ::close(p.fd);
      }
      ::close(channel[0]);
      worker_main(cfg);  // noreturn; child sees the fork-time snapshot
    }
    ::close(channel[1]);

    WorkerProc proc;
    proc.pid = pid;
    proc.slot = slot;
    proc.fd = channel[0];
    proc.in_flight = first;
    proc.last_msg = Clock::now();
    procs.push_back(std::move(proc));
  };

  // Answers a worker's 'D' or 'F' with the pool's lowest shard, or
  // kNoShard once the pool is empty or the campaign is interrupted. A
  // worker already reaped (handle_death drains its last messages) is
  // answered with nothing. One that died since it asked but is not reaped
  // yet makes the send fail with EPIPE, which is ignored because waitpid
  // reports the death. A worker that sent its 'D' or 'F' on its way out
  // after a SIGTERM never reads the reply; handle_death returns the shard.
  const auto assign_next = [&](WorkerProc& w) {
    w.in_flight = kNoShard;
    w.started = false;
    if (!w.alive) return;
    if (!pool.empty() && !interrupt_seen) w.in_flight = pool.extract(pool.begin()).value();
    std::uint8_t reply[kAssignSize];
    store_le32(reply, w.in_flight);
    store_le32(reply + 4, w.in_flight == kNoShard
                              ? 0u
                              : static_cast<std::uint32_t>(attempts[w.in_flight]));
    while (::send(w.fd, reply, sizeof reply, MSG_NOSIGNAL) < 0 && errno == EINTR) {
    }
  };

  // Attribute a worker death to its in-flight shard: the attempt that
  // died counts against the shard's retry budget, and an exhausted
  // budget quarantines the shard exactly like repeated throws do.
  const auto attribute_death = [&](WorkerProc& w, FailureKind kind,
                                   const std::string& what) {
    if (w.in_flight == kNoShard || !w.started) return;
    const std::uint32_t shard = w.in_flight;
    ++attempts[shard];  // the attempt that died with the process
    ShardFailure f;
    f.shard_index = shard;
    f.seed = shard_seed(scenario.base_seed, shard);
    f.phase = ShardPhase::kRun;
    f.kind = kind;
    f.what = what;
    f.attempts = attempts[shard];
    if (attempts[shard] >= max_attempts) {
      f.quarantined = true;
      done[shard] = 1;
    }
    death_failures[shard] = f;
    journal_death(w.slot, f);
  };

  // Handles every message queued on a worker's channel, one record per
  // recv; stops at EAGAIN or at EOF (the worker is gone).
  const auto read_channel = [&](WorkerProc& w) {
    std::uint8_t msg[kMsgSize];
    ssize_t n;
    while ((n = ::recv(w.fd, msg, sizeof msg, MSG_DONTWAIT)) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n != static_cast<ssize_t>(kMsgSize)) continue;
      w.last_msg = Clock::now();
      const std::uint32_t shard = load_le32(msg + 1);
      switch (msg[0]) {
        case kMsgHeartbeat:
          break;
        case kMsgShardStart:
          w.started = true;
          ++w.shard_starts;
          if (!chaos_fired && w.slot == chaos_slot &&
              w.shard_starts >= options_.chaos_kill_after_shards) {
            ::kill(w.pid, options_.chaos_signal);
            chaos_fired = true;
          }
          break;
        case kMsgShardDone:
          if (shard < shards) {
            done[shard] = 1;
            home[shard] = w.slot;
            // A shard that burned attempts in dead processes and then
            // completed is a RECOVERY: count the attempt that succeeded
            // (journaled death frames only count the ones that died).
            auto it = death_failures.find(shard);
            if (it != death_failures.end()) {
              it->second.attempts = attempts[shard] + 1;
            }
          }
          assign_next(w);
          break;
        case kMsgShardFailed:
          // Quarantined in-worker; the journal carries the kind-3 frame.
          if (shard < shards) {
            done[shard] = 1;
            attempts[shard] = std::max(attempts[shard], max_attempts);
          }
          assign_next(w);
          break;
        default:
          break;  // unknown tags are skippable, like unknown frame kinds
      }
    }
  };

  // Takes an INDEX, not a reference: `spawn` below appends to `procs`,
  // which can reallocate the vector, so no WorkerProc reference may be
  // held across it. Everything the post-spawn path needs is copied out
  // first, and `spawn` is only ever the tail call.
  const auto handle_death = [&](std::size_t idx, int status) {
    WorkerProc& w = procs[idx];
    // Process everything the worker said before it died, THEN attribute:
    // a 'D' that raced the death must clear in_flight first. It is
    // marked dead first so that a last 'D' or 'F' gets no shard.
    w.alive = false;
    read_channel(w);
    ::close(w.fd);
    w.fd = -1;

    if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      // waitpid attribution of resource-limit deaths: SIGXCPU is the
      // kernel's RLIMIT_CPU verdict regardless of who else wanted the
      // worker dead, and an unexplained SIGKILL while RLIMIT_AS is
      // configured is recorded as a probable OOM kill — kResource, not
      // an anonymous kCrash, so the campaign verdict separates "out of
      // budget" from genuine crashes.
      if (sig == SIGXCPU) {
        attribute_death(w, FailureKind::kResource,
                        "worker exceeded RLIMIT_CPU (killed by SIGXCPU)");
      } else if (w.stall_initiated) {
        attribute_death(
            w, FailureKind::kStall,
            "worker heartbeat silent past the stall deadline; escalated "
            "SIGTERM→SIGKILL, died on signal " + signal_text(sig));
      } else if (sig == SIGKILL && options_.worker_rlimit_as != 0) {
        attribute_death(
            w, FailureKind::kResource,
            "worker killed by SIGKILL with RLIMIT_AS configured (likely OOM "
            "kill under the address-space budget)");
      } else {
        attribute_death(w, FailureKind::kCrash,
                        "worker killed by signal " + signal_text(sig));
      }
    } else if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code != kExitOk && code != kExitInterrupted) {
        attribute_death(w, FailureKind::kExit,
                        "worker exited with status " + std::to_string(code));
      }
      // Exit 0 (told kNoShard) or 3 (a SIGTERM honoured between shards)
      // failed nothing; a shard it was assigned but never ran is simply
      // returned below.
    }

    // The held shard goes back to the pool. The worker may have died
    // mid-append, so its journal is re-validated first; a journal that
    // had to be deleted returns every shard whose results lived in it.
    const int slot = w.slot;
    const std::uint32_t held = w.in_flight;
    if (held != kNoShard) {
      if (!sanitize_journal(slot)) {
        for (std::uint32_t s = 0; s < shards; ++s) {
          if (home[s] != slot) continue;
          home[s] = -1;
          done[s] = 0;
          pool.insert(s);
        }
      }
      if (!done[held]) pool.insert(held);
    }

    // A respawn happens when undone shards are left that no live worker
    // holds. Live workers drain the pool too, so only when none is left
    // does an exhausted respawn budget quarantine what remains, instead
    // of forking forever.
    if (interrupt_seen || pool.empty()) return;
    if (respawns_used < respawn_limit) {
      ++respawns_used;
      spawn(slot);  // may reallocate `procs`; `w` is dangling past here
      return;
    }
    if (std::any_of(procs.begin(), procs.end(), [](const WorkerProc& p) { return p.alive; })) {
      return;
    }
    for (const std::uint32_t s : pool) {
      ShardFailure f;
      f.shard_index = s;
      f.seed = shard_seed(scenario.base_seed, s);
      f.phase = ShardPhase::kRun;
      f.kind = FailureKind::kExit;
      f.what = "worker respawn budget exhausted (" +
               std::to_string(respawn_limit) + " respawns); shard abandoned";
      f.attempts = std::max(1, attempts[s]);
      f.quarantined = true;
      done[s] = 1;
      death_failures[s] = f;
      journal_death(slot, f);
    }
    pool.clear();
  };

  // Tear down the private temp dir (operator-provided prefixes persist;
  // that is the resume story). Shared by the normal exit and the
  // exception guard below.
  const auto cleanup_tmpdir = [&]() {
    if (tmpdir.empty() || options_.keep_journals) return;
    for (unsigned slot = 0; slot < workers; ++slot) {
      std::remove(journal_path(static_cast<int>(slot)).c_str());
    }
    ::rmdir(tmpdir.c_str());
  };

  // Exception guard: a throw after the first fork (socketpair/fork
  // failure in a respawn, a campaign-mismatch CheckpointError from
  // sanitize) must not strand live children. SIGKILL — not SIGTERM — so
  // SIGSTOPped workers are collected too, then reap and release the
  // channel fds.
  const auto abort_workers = [&]() noexcept {
    for (WorkerProc& w : procs) {
      if (!w.alive) continue;
      ::kill(w.pid, SIGKILL);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (w.fd >= 0) ::close(w.fd);
      w.fd = -1;
      w.alive = false;
    }
  };

  try {
    for (unsigned slot = 0; slot < workers && !pool.empty(); ++slot) {
      spawn(static_cast<int>(slot));
    }

    // ---- supervision loop --------------------------------------------------
    std::vector<pollfd> pfds;
    std::vector<std::pair<std::size_t, int>> deaths;  // (index, status)
    while (true) {
      bool any_alive = false;
      pfds.clear();
      for (WorkerProc& w : procs) {
        if (!w.alive) continue;
        any_alive = true;
        pfds.push_back(pollfd{w.fd, POLLIN, 0});
      }
      if (!any_alive) break;

      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), /*timeout_ms=*/20);

      // Operator interrupt: tell everyone once; workers finish their
      // in-flight shard, journal it, and exit 3. Checked before the
      // channels are read, so no request read after the flag is answered
      // with a shard.
      if (interrupt != nullptr &&
          interrupt->load(std::memory_order_relaxed) != 0) {
        interrupt_seen = true;
        if (!interrupt_sent) {
          for (WorkerProc& w : procs) {
            if (w.alive) ::kill(w.pid, SIGTERM);
          }
          interrupt_sent = true;
        }
      }

      for (WorkerProc& w : procs) {
        if (w.alive) read_channel(w);
      }
      const auto now = Clock::now();

      // Heartbeat-deadline ladder: silence → SIGTERM → grace → SIGKILL.
      // Message ARRIVAL is the liveness signal (a SIGSTOPped or D-state
      // worker sends nothing at all; a busy worker's heartbeat thread
      // keeps sending even between shards).
      if (options_.stall_timeout.count() > 0) {
        for (WorkerProc& w : procs) {
          if (!w.alive) continue;
          if (!w.stall_initiated) {
            if (now - w.last_msg > options_.stall_timeout) {
              w.stall_initiated = true;
              w.term_deadline = now + options_.term_grace;
              ::kill(w.pid, SIGTERM);
            }
          } else if (now >= w.term_deadline) {
            ::kill(w.pid, SIGKILL);  // takes down stopped processes too
            w.term_deadline = now + options_.term_grace;
          }
        }
      }

      // Reap first, respawn after: handle_death → spawn appends to
      // `procs`, which would invalidate any iterator a range-for held.
      // Indices stay valid across push_back, references do not.
      deaths.clear();
      for (std::size_t i = 0; i < procs.size(); ++i) {
        if (!procs[i].alive) continue;
        int status = 0;
        const pid_t reaped = ::waitpid(procs[i].pid, &status, WNOHANG);
        if (reaped == procs[i].pid) deaths.emplace_back(i, status);
      }
      for (const auto& [idx, status] : deaths) handle_death(idx, status);
    }
  } catch (...) {
    abort_workers();
    cleanup_tmpdir();
    throw;
  }

  // ---- gather: load slot journals, fold failures, merge in shard order ----
  std::vector<ShardRun> runs(shards);
  WorkerIoStats worker_io;  // summed over every slot journal's kind-5 frames
  const auto fold_failure = [&](const ShardFailure& f) {
    std::optional<ShardFailure>& have = runs[f.shard_index].failure;
    // Quarantine verdicts dominate; otherwise the record that saw the
    // most attempts is the freshest.
    if (!have || (f.quarantined && !have->quarantined) ||
        (f.quarantined == have->quarantined && f.attempts > have->attempts)) {
      have = f;
    }
  };

  for (std::uint32_t slot = 0; slot < shards; ++slot) {
    const std::string path = journal_path(static_cast<int>(slot));
    if (!checkpoint_exists(path)) continue;
    Checkpoint ck;
    try {
      ck = load_checkpoint(path);
      require_same_campaign(ck.header, header, path);
    } catch (const CheckpointError&) {
      continue;  // defensive; sanitize passes make this unreachable
    }
    for (auto& [index, shard_run] : ck.shards) {
      if (!runs[index].completed) runs[index] = std::move(shard_run);  // first copy wins
    }
    for (const ShardFailure& f : ck.failures) fold_failure(f);
    for (const auto& io : ck.worker_io) merge_counters(kWorkerIoCounters, worker_io, io);
  }
  for (const auto& [shard, f] : death_failures) fold_failure(f);

  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    const bool have = runs[shard].completed;
    std::optional<ShardFailure>& failure = runs[shard].failure;
    if (have && failure && failure->quarantined) {
      // The shard completed on some attempt after all: it recovered.
      failure->quarantined = false;
      failure->nondeterministic = failure->kind == FailureKind::kException ||
                                  failure->kind == FailureKind::kStall;
    }
    if (!have && !interrupt_seen && (!failure || !failure->quarantined)) {
      // No results, no quarantine verdict, and nobody interrupted us:
      // account for the loss instead of silently shrinking the merge.
      ShardFailure f;
      f.shard_index = shard;
      f.seed = shard_seed(scenario.base_seed, shard);
      f.phase = ShardPhase::kRun;
      f.kind = FailureKind::kExit;
      f.what = "shard lost without a journal record";
      f.attempts = std::max(1, attempts[shard]);
      f.quarantined = true;
      fold_failure(f);
    }
  }

  CampaignResult result = merge_in_shard_order(runs, interrupt_seen);
  for (const auto& row : kWorkerIoCounters) result.*row.total = worker_io.*row.field;
  cleanup_tmpdir();
  return result;
}

}  // namespace gfwsim::gfw
