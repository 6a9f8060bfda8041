#include "gfw/dist_runner.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/bytes.h"
#include "gfw/checkpoint.h"

namespace gfwsim::gfw {

namespace {

using Clock = std::chrono::steady_clock;

// ---- heartbeat pipe protocol ----------------------------------------------
//
// Worker → coordinator, fixed 13-byte little-endian messages:
//   u8 tag, u32 shard, u64 event counter.
// 13 < PIPE_BUF, so each write is atomic even though the heartbeat
// thread and the shard thread share the fd — messages never interleave.
constexpr std::size_t kMsgSize = 13;
constexpr std::uint8_t kMsgHeartbeat = 'H';   // liveness; events sampled
constexpr std::uint8_t kMsgShardStart = 'S';  // shard = starting shard
constexpr std::uint8_t kMsgShardDone = 'D';   // shard completed + journaled
constexpr std::uint8_t kMsgShardFailed = 'F';  // shard quarantined in-worker
constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

// Worker exit codes the coordinator understands.
constexpr int kExitOk = 0;           // range finished
constexpr int kExitJournal = 2;      // could not open/write the slot journal
constexpr int kExitInterrupted = 3;  // SIGTERM honored between shards

// Hardened heartbeat write: EINTR and partial writes retry (a signal —
// SIGTERM from the stall ladder, SIGXCPU nearing an rlimit — landing
// mid-write must not silently eat a liveness message), transient
// kernel-side refusals (EAGAIN/ENOBUFS/ENOMEM) get a bounded spin, and
// only then is the message counted as irrecoverably dropped. If the
// coordinator is gone the default SIGPIPE disposition terminates the
// worker, which is exactly the orphan cleanup we want.
void send_msg(int fd, std::uint8_t tag, std::uint32_t shard, std::uint64_t events,
              WorkerIoStats* io = nullptr) {
  std::uint8_t buf[kMsgSize];
  buf[0] = tag;
  store_le32(buf + 1, shard);
  store_le64(buf + 5, events);
  std::size_t sent = 0;
  bool retried = false;
  int transient_spins = 0;
  while (sent < kMsgSize) {
    const ssize_t n = ::write(fd, buf + sent, kMsgSize - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      if (sent < kMsgSize) retried = true;  // partial: finish the message
      continue;
    }
    if (n < 0 && errno == EINTR) {
      retried = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
                  errno == ENOMEM)) {
      if (++transient_spins > 64) break;  // coordinator hopelessly behind
      retried = true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    break;  // EBADF and friends: nothing to retry against
  }
  if (io == nullptr) return;
  // The heartbeat thread and the shard loop both send, so the counters
  // are bumped atomically.
  static_assert(alignof(std::uint64_t) >= std::atomic_ref<std::uint64_t>::required_alignment);
  if (sent < kMsgSize) {
    std::atomic_ref(io->heartbeats_dropped).fetch_add(1, std::memory_order_relaxed);
  } else if (retried) {
    std::atomic_ref(io->heartbeat_retries).fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- worker process --------------------------------------------------------

// SIGTERM = graceful stop: finish (and journal) the in-flight shard,
// then exit 3 instead of claiming the next one. A worker too wedged to
// get here is exactly what the coordinator's SIGKILL rung is for.
volatile std::sig_atomic_t g_worker_stop = 0;
void worker_term_handler(int) { g_worker_stop = 1; }

// Everything a worker needs, captured in coordinator memory immediately
// before fork(): the child reads the fork-time snapshot, so the
// scenario, hooks, and skip/attempt state need no serialization at all.
struct WorkerConfig {
  const Scenario* scenario = nullptr;
  const ShardHook* before = nullptr;
  const ShardHook* after = nullptr;
  std::string journal_path;
  CheckpointHeader header;
  std::uint32_t range_lo = 0;
  std::uint32_t range_hi = 0;
  const std::vector<char>* done = nullptr;  // completed or quarantined
  const std::vector<int>* attempts = nullptr;  // spent in dead processes
  int max_attempts = 1;
  int hb_fd = -1;
  std::chrono::milliseconds heartbeat_interval{25};
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

[[noreturn]] void worker_main(const WorkerConfig& cfg) {
  std::signal(SIGTERM, worker_term_handler);
  std::signal(SIGINT, SIG_IGN);   // the coordinator orchestrates interrupts
  std::signal(SIGPIPE, SIG_DFL);  // die on heartbeat write if orphaned

  // OS-level budgets, applied before any journal or simulation work so
  // every allocation this process makes is under them. Deaths they cause
  // (SIGXCPU, OOM kill under RLIMIT_AS) are attributed kResource by the
  // coordinator's waitpid ladder.
  apply_rlimit(RLIMIT_AS, cfg.rlimit_as);
  apply_rlimit(RLIMIT_CPU, cfg.rlimit_cpu);
  apply_rlimit(RLIMIT_NOFILE, cfg.rlimit_nofile);

  // IO degradation counters, journaled as a kind-5 frame at worker exit
  // (only when nonzero) so the coordinator and `gfw_worker --describe`
  // can surface degraded-pipe runs.
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
    std::atomic<bool> hb_stop{false};
    std::thread heartbeat([&] {
      while (!hb_stop.load(std::memory_order_relaxed)) {
        send_msg(cfg.hb_fd, kMsgHeartbeat,
                 current_shard.load(std::memory_order_relaxed),
                 progress.events.load(std::memory_order_relaxed), &io);
        std::this_thread::sleep_for(cfg.heartbeat_interval);
      }
    });

    for (std::uint32_t shard = cfg.range_lo; shard < cfg.range_hi; ++shard) {
      if ((*cfg.done)[shard]) continue;
      if (g_worker_stop != 0) {
        exit_code = kExitInterrupted;
        break;
      }
      current_shard.store(shard, std::memory_order_relaxed);
      send_msg(cfg.hb_fd, kMsgShardStart, shard,
               static_cast<std::uint64_t>((*cfg.attempts)[shard]), &io);
      ShardRun run = run_shard_supervised(
          *cfg.scenario, shard, cfg.max_attempts,
          /*attempt_base=*/(*cfg.attempts)[shard],
          watchdog ? &*watchdog : nullptr, *cfg.before, *cfg.after, &progress);
      if (run.failure) writer->append_failure(*run.failure);
      if (run.completed) {
        writer->append_shard(run.summary, run.log);
        send_msg(cfg.hb_fd, kMsgShardDone, shard,
                 progress.events.load(std::memory_order_relaxed), &io);
      } else {
        send_msg(cfg.hb_fd, kMsgShardFailed, shard,
                 progress.events.load(std::memory_order_relaxed), &io);
      }
      current_shard.store(kNoShard, std::memory_order_relaxed);
    }
    if (g_worker_stop != 0) exit_code = kExitInterrupted;
    hb_stop.store(true, std::memory_order_relaxed);
    heartbeat.join();
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
  int fd = -1;  // heartbeat pipe, read end (nonblocking)
  std::uint32_t range_lo = 0;
  std::uint32_t range_hi = 0;
  std::uint32_t in_flight = kNoShard;
  Clock::time_point last_msg;
  bool term_sent = false;
  Clock::time_point term_deadline;
  bool stall_initiated = false;  // WE killed it for heartbeat silence
  int shard_starts = 0;          // chaos trigger counter
  std::vector<std::uint8_t> rxbuf;
  bool alive = true;
};

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

  // Shared campaign state. `done` doubles as the workers' skip set
  // (completed OR quarantined); `completed` marks shards whose results
  // are expected in a journal.
  std::vector<char> done(shards, 0);
  std::vector<char> completed(shards, 0);
  std::vector<int> attempts(shards, 0);
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
      completed[index] = 1;
    }
    for (const ShardFailure& f : ck.failures) {
      attempts[f.shard_index] = std::max(attempts[f.shard_index], f.attempts);
      if (f.quarantined && !completed[f.shard_index]) done[f.shard_index] = 1;
    }
    return true;
  };

  for (unsigned slot = 0; slot < workers; ++slot) {
    if (options_.resume) {
      sanitize_journal(static_cast<int>(slot));
    } else {
      std::remove(journal_path(static_cast<int>(slot)).c_str());
    }
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

  const int chaos_slot =
      options_.chaos_kill_after_shards <= 0
          ? -1
          : (options_.chaos_worker >= 0
                 ? options_.chaos_worker % static_cast<int>(workers)
                 : static_cast<int>(scenario.base_seed % workers));
  bool chaos_fired = false;

  const int respawn_limit =
      options_.worker_respawn_limit > 0
          ? options_.worker_respawn_limit
          : static_cast<int>(shards) * max_attempts + static_cast<int>(workers);
  int respawns_used = 0;

  std::vector<WorkerProc> procs;
  procs.reserve(workers * 2);

  // Static contiguous scatter: worker w owns [w*S/W, (w+1)*S/W). Static
  // ranges are what make the slot journal both spill file and
  // checkpoint: every shard has exactly one home journal.
  const auto range_lo = [&](unsigned slot) {
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(slot) * shards / workers);
  };

  const auto spawn = [&](int slot) {
    // A replacement may be adopting a journal its predecessor tore or
    // corrupted mid-write; validate it now. If the journal had to be
    // deleted, un-complete the range's shards so they re-run (static
    // ranges: every completed shard in this range lived in this file).
    if (!sanitize_journal(slot) ) {
      for (std::uint32_t s = range_lo(static_cast<unsigned>(slot));
           s < range_lo(static_cast<unsigned>(slot) + 1); ++s) {
        if (completed[s]) {
          completed[s] = 0;
          done[s] = 0;
        }
      }
    }
    // Heartbeat pipe, with retry-with-backoff under fd exhaustion: a
    // coordinator briefly out of descriptors (EMFILE/ENFILE — e.g. many
    // dead workers' read ends not yet closed by a racing reap) should
    // wait for the pressure to clear, not abort the campaign.
    int fds[2];
    for (int attempt = 0;; ++attempt) {
      if (::pipe(fds) == 0) break;
      const bool fd_exhaustion =
          errno == EMFILE || errno == ENFILE || errno == EINTR;
      if (!fd_exhaustion || attempt >= 5) {
        throw std::runtime_error("DistRunner: pipe failed: " +
                                 std::string(std::strerror(errno)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
    WorkerConfig cfg;
    cfg.scenario = &scenario;
    cfg.before = &before_;
    cfg.after = &after_;
    cfg.journal_path = journal_path(slot);
    cfg.header = header;
    cfg.range_lo = range_lo(static_cast<unsigned>(slot));
    cfg.range_hi = range_lo(static_cast<unsigned>(slot) + 1);
    cfg.done = &done;
    cfg.attempts = &attempts;
    cfg.max_attempts = max_attempts;
    cfg.hb_fd = fds[1];
    cfg.heartbeat_interval = options_.heartbeat_interval;
    cfg.stall_timeout = options_.stall_timeout;
    cfg.worker_id = static_cast<std::uint32_t>(slot);
    cfg.rlimit_as = options_.worker_rlimit_as;
    cfg.rlimit_cpu = options_.worker_rlimit_cpu;
    cfg.rlimit_nofile = options_.worker_rlimit_nofile;

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("DistRunner: fork failed: " +
                               std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      ::close(fds[0]);
      worker_main(cfg);  // noreturn; child sees the fork-time snapshot
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

    WorkerProc proc;
    proc.pid = pid;
    proc.slot = slot;
    proc.fd = fds[0];
    proc.range_lo = cfg.range_lo;
    proc.range_hi = cfg.range_hi;
    proc.last_msg = Clock::now();
    procs.push_back(std::move(proc));
  };

  const auto range_pending = [&](const WorkerProc& w) {
    for (std::uint32_t s = w.range_lo; s < w.range_hi; ++s) {
      if (!done[s]) return true;
    }
    return false;
  };

  // Attribute a worker death to its in-flight shard: the attempt that
  // died counts against the shard's retry budget, and an exhausted
  // budget quarantines the shard exactly like repeated throws do.
  const auto attribute_death = [&](WorkerProc& w, FailureKind kind,
                                   const std::string& what) {
    if (w.in_flight == kNoShard) return;
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

  // Parse every complete 13-byte message sitting in a worker's buffer.
  const auto drain_messages = [&](WorkerProc& w) {
    std::size_t off = 0;
    while (w.rxbuf.size() - off >= kMsgSize) {
      const std::uint8_t* msg = w.rxbuf.data() + off;
      off += kMsgSize;
      const std::uint8_t tag = msg[0];
      const std::uint32_t shard = load_le32(msg + 1);
      switch (tag) {
        case kMsgHeartbeat:
          break;
        case kMsgShardStart:
          w.in_flight = shard;
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
            completed[shard] = 1;
            // A shard that burned attempts in dead processes and then
            // completed is a RECOVERY: count the attempt that succeeded
            // (journaled death frames only count the ones that died).
            auto it = death_failures.find(shard);
            if (it != death_failures.end()) {
              it->second.attempts = attempts[shard] + 1;
            }
          }
          w.in_flight = kNoShard;
          break;
        case kMsgShardFailed:
          // Quarantined in-worker; the journal carries the kind-3 frame.
          if (shard < shards) {
            done[shard] = 1;
            attempts[shard] = std::max(attempts[shard], max_attempts);
          }
          w.in_flight = kNoShard;
          break;
        default:
          break;  // unknown tags are skippable, like unknown frame kinds
      }
    }
    if (off > 0) w.rxbuf.erase(w.rxbuf.begin(), w.rxbuf.begin() + off);
  };

  const auto read_pipe = [&](WorkerProc& w) {
    std::uint8_t buf[4096];
    bool any = false;
    for (;;) {
      const ssize_t n = ::read(w.fd, buf, sizeof buf);
      if (n > 0) {
        w.rxbuf.insert(w.rxbuf.end(), buf, buf + n);
        any = true;
        continue;
      }
      break;  // 0 = EOF (worker gone), -1 = EAGAIN/EINTR
    }
    if (any) {
      w.last_msg = Clock::now();
      drain_messages(w);
    }
  };

  // Takes an INDEX, not a reference: `spawn` below appends to `procs`,
  // which can reallocate the vector, so no WorkerProc reference may be
  // held across it. Everything the post-spawn path needs is copied out
  // first, and `spawn` is only ever the tail call.
  const auto handle_death = [&](std::size_t idx, int status) {
    WorkerProc& w = procs[idx];
    // Process everything the worker said before it died, THEN attribute:
    // a 'D' that raced the death must clear in_flight first.
    read_pipe(w);
    ::close(w.fd);
    w.fd = -1;
    w.alive = false;

    bool respawnable = false;
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
      respawnable = true;
    } else if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code != kExitOk && code != kExitInterrupted) {
        attribute_death(w, FailureKind::kExit,
                        "worker exited with status " + std::to_string(code));
        respawnable = true;
      } else if (!interrupt_seen) {
        // A graceful exit nobody asked for: the stall ladder SIGTERMed a
        // worker that then recovered, journaled its in-flight shard, and
        // stopped between shards (exit 3) — or a worker stopped early
        // for any other reason. Nothing failed, but the undone rest of
        // its range must be re-run, not abandoned to a false "lost
        // without a journal record" quarantine at merge time.
        respawnable = true;
      }
    }
    if (!respawnable || interrupt_seen) return;
    if (!range_pending(w)) return;
    const int slot = w.slot;
    const std::uint32_t lo = w.range_lo;
    const std::uint32_t hi = w.range_hi;
    if (respawns_used < respawn_limit) {
      ++respawns_used;
      spawn(slot);  // may reallocate `procs`; `w` is dangling past here
      return;
    }
    // Graceful degradation: out of respawn budget. Quarantine what is
    // left of the range instead of forking forever.
    for (std::uint32_t s = lo; s < hi; ++s) {
      if (done[s]) continue;
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

  // Exception guard: a throw after the first fork (pipe/fork failure in
  // a respawn, a campaign-mismatch CheckpointError from sanitize) must
  // not strand live children. SIGKILL — not SIGTERM — so SIGSTOPped
  // workers are collected too, then reap and release the pipe fds.
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
    for (unsigned slot = 0; slot < workers; ++slot) {
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
      for (WorkerProc& w : procs) {
        if (w.alive) read_pipe(w);
      }

      const auto now = Clock::now();

      // Operator interrupt: tell everyone once; workers finish their
      // in-flight shard, journal it, and exit 3.
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

      // Heartbeat-deadline ladder: silence → SIGTERM → grace → SIGKILL.
      // Message ARRIVAL is the liveness signal (a SIGSTOPped or D-state
      // worker sends nothing at all; a busy worker's heartbeat thread
      // keeps sending even between shards).
      if (options_.stall_timeout.count() > 0) {
        for (WorkerProc& w : procs) {
          if (!w.alive) continue;
          if (!w.term_sent) {
            if (now - w.last_msg > options_.stall_timeout) {
              w.stall_initiated = true;
              w.term_sent = true;
              w.term_deadline = now + options_.term_grace;
              ::kill(w.pid, SIGTERM);
            }
          } else if (w.stall_initiated && now >= w.term_deadline) {
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

  for (unsigned slot = 0; slot < workers; ++slot) {
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
