// DistRunner: process-isolated campaign execution.
//
// The threaded ShardedRunner contains exceptions and stalls, but a
// worker that segfaults, gets OOM-killed, or wedges inside a syscall
// takes the whole campaign with it. DistRunner hands the shards out to
// forked WORKER PROCESSES so the campaign survives anything the OS can
// do to one of them, then gathers results through checkpoint journals
// into the exact same shard-ordered, bit-identical merge.
//
// Topology (one coordinator, W workers, shards pulled one at a time):
//
//   coordinator ──fork(first shard 0)──▶ worker 0  journal .worker0
//               ──fork(first shard 1)──▶ worker 1  journal .worker1
//               ──fork──▶ ...
//   worker ──'D'/'F'──▶ coordinator ──{shard, attempt base}──▶ worker  (one channel)
//
//   * Workers inherit the Scenario by address space (fork, not exec) —
//     no scenario serialization, bit-identical inputs by construction.
//     A worker's first shard (the pool's lowest) rides in that fork-time
//     snapshot, so the first World is built without a round trip.
//   * After each shard a worker reports it done ('D') or quarantined
//     ('F') and blocks on its channel for the reply, the next shard;
//     kNoShard tells it to exit.
//     The coordinator alone owns which shards are done, which are in
//     flight and how many attempts each has spent, and answers with the
//     lowest shard that is neither done nor held by a live worker. A
//     slow shard or a slow vCPU therefore holds back only its own worker.
//   * Each worker journals completed shards (and supervision verdicts)
//     to its own slot file `<prefix>.worker<slot>` using the
//     gfw/checkpoint.h format: the journal is simultaneously the result
//     spill file and the crash-recovery checkpoint. Any shard may land in
//     any slot's journal; the coordinator records which one.
//   * Each worker talks to the coordinator over one AF_UNIX
//     SOCK_SEQPACKET socket pair: heartbeats and 'S'/'D'/'F' (13-byte
//     records: tag, shard, event counter) one way, assignments the
//     other. Each send is one record, so the heartbeat thread and the
//     shard thread share the fd without interleaving. A worker whose
//     coordinator is gone sees EPIPE on its next send (or EOF on its
//     next recv) and exits.
//
// Failure ladder (coordinator side):
//   1. heartbeat silence > stall_timeout  → SIGTERM the worker
//   2. still alive after term_grace       → SIGKILL
//   3. waitpid() reaps the death; the in-flight shard becomes a
//      ShardFailure: kStall when the coordinator initiated the kill,
//      kCrash when the worker died on a signal (segfault, OOM killer,
//      external SIGKILL), kExit on a nonzero exit status.
//   4. The dead worker's shard goes back to the pool, and any worker may
//      run it next, with GLOBAL attempt numbering — the dead process's
//      attempts count against the shard's retry budget, and a shard
//      that keeps killing workers is quarantined just like a shard that
//      keeps throwing. A worker that died holding a shard may have torn
//      its journal mid-append, so that journal is re-validated. When
//      undone shards are left that no live worker holds, a replacement
//      is forked into the slot; it appends to the same journal (torn
//      tails from the death are truncated).
//   5. A journal that cannot be parsed (CheckpointError: CRC mismatch,
//      insane length) is deleted and the shards it held re-run —
//      corrupt bytes never reach the merge.
//
// Merge contract: identical to ShardedRunner. Completed shards are
// loaded from the slot journals and merged IN SHARD ORDER with
// log_offset recomputed, so for any (workers, kill schedule) the merged
// ProbeLog and summaries are bit-identical to an undisturbed in-process
// run over the surviving shards (tests/integration/dist_runner_test.cpp
// pins this with SHA-1 digests under SIGKILL/SIGSTOP chaos).
#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>

#include "gfw/runner.h"

namespace gfwsim::gfw {

struct DistRunnerOptions {
  std::uint32_t shards = 8;
  // Worker processes; clamped to `shards`. 1 still forks (the
  // containment boundary is the point), it just doesn't parallelize.
  unsigned workers = 2;

  // Same-seed retry budget per shard (0 = quarantine on first failure).
  // Attempts spent in dead worker processes count toward this budget.
  int shard_retries = 1;

  // Heartbeat silence deadline (workers send one every 25 ms): a worker
  // whose channel has been quiet this long is presumed wedged or stopped
  // and enters the SIGTERM→SIGKILL ladder. 0 disables the deadline (crashes are still contained —
  // waitpid sees them without any timeout). Workers also arm an
  // in-process StallWatchdog with this timeout, so an in-simulation
  // stall is deadlined exactly as under the threaded runner.
  std::chrono::milliseconds stall_timeout{0};
  // Grace between SIGTERM and SIGKILL on the ladder.
  std::chrono::milliseconds term_grace{500};

  // Slot journals live at `<journal_prefix>.worker<slot>`. Empty: a
  // private temp directory is created and removed after the merge.
  // Non-empty (operator-provided): journals persist, and `resume`
  // restores completed shards from every slot journal below `shards`,
  // whatever worker count wrote it — the distributed analogue of
  // ShardedRunnerOptions::{checkpoint_path, resume}.
  std::string journal_prefix;
  bool keep_journals = false;
  bool resume = false;

  // Graceful interrupt (same contract as ShardedRunnerOptions): when the
  // pointee goes nonzero the coordinator SIGTERMs every worker; workers
  // finish and journal their in-flight shard, the partial merge returns
  // with `interrupted` set, and a resume rerun picks up from the
  // journals.
  const std::atomic<int>* interrupt = nullptr;

  // Chaos injection (bench --worker-kill-after): after the chaos worker
  // (slot base_seed % workers) announces its Nth shard start, the
  // coordinator sends it `chaos_signal`. Only a worker's first shard is
  // fixed at fork, so only N = 1 has a reproducible kill site; later
  // shards go to whichever worker asks first. 0 disables chaos.
  int chaos_kill_after_shards = 0;
  // SIGKILL models a crash/OOM kill; SIGSTOP models a wedged process
  // (no heartbeats, not dead) and requires stall_timeout > 0 to ever be
  // collected — the ladder's SIGKILL takes down stopped processes too.
  int chaos_signal = SIGKILL;

  // OS-level resource enforcement applied inside each worker child
  // immediately after fork (setrlimit, both soft and hard limit; 0 =
  // inherit the coordinator's limit, the default). Deaths under these
  // limits are ATTRIBUTED by the coordinator: SIGXCPU becomes a
  // FailureKind::kResource failure, and an unexplained SIGKILL while
  // `worker_rlimit_as` is configured is recorded as kResource (likely
  // OOM kill) instead of an anonymous kCrash.
  std::uint64_t worker_rlimit_as = 0;      // bytes of address space
  std::uint64_t worker_rlimit_cpu = 0;     // CPU seconds
  std::uint64_t worker_rlimit_nofile = 0;  // open file descriptors
};

class DistRunner : public Runner {
 public:
  explicit DistRunner(DistRunnerOptions options = {});

  // CALLER CONTRACT: run() must be invoked from a process with no other
  // live threads. Workers are fork()ed WITHOUT exec — that is what makes
  // the Scenario free to inherit — so the children run non-async-signal-
  // safe code (std::thread, heap allocation, iostream journaling) from a
  // fork context. With a single-threaded parent this is well-defined;
  // with concurrent threads in the parent a child can inherit a lock
  // (e.g. malloc's) held mid-operation and deadlock or corrupt state.
  // For use from threaded hosts, scatter via the tools/gfw_worker binary
  // (fork+exec) instead.

  // Hooks execute in the WORKER process (see gfw::ShardHook): `before`
  // toggles propagate into the shard's World, but state harvested by
  // `after` into worker memory dies with the worker.
  void set_before_run(ShardHook hook) { before_ = std::move(hook); }
  void set_after_run(ShardHook hook) { after_ = std::move(hook); }

  const DistRunnerOptions& options() const { return options_; }

  CampaignResult run(const Scenario& scenario) override;

 private:
  DistRunnerOptions options_;
  ShardHook before_;
  ShardHook after_;
};

}  // namespace gfwsim::gfw
