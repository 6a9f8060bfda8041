// Campaign checkpoint journal: versioned binary serialization of
// completed shards (ShardSummary + the shard's ProbeLog slice +
// BlockEntry history + TeardownReport) in an append-only file, so a
// multi-day campaign killed mid-run resumes by re-running only the
// shards that never finished — and the resumed merge is bit-identical
// to an uninterrupted run.
//
// File layout (all integers little-endian, fixed-width):
//   header (32 bytes):
//     0..7   magic "GFWCKPT1"
//     8..11  format version (u32, currently 3)
//     12..15 shard count of the campaign (u32)
//     16..23 scenario base seed (u64)
//     24..31 scenario fingerprint (u64) — resuming under a different
//            scenario is rejected instead of silently merging apples
//            with oranges
//   then zero or more frames:
//     u32 frame kind: 1 = completed shard, 3 = shard failure, 5 = worker
//         IO stats; any other kind is a CheckpointError
//     u64 payload size (bounded by kMaxFramePayload; a larger claim is
//         treated as corruption, not an allocation request)
//     u32 CRC-32 (IEEE) of the payload
//     payload (serialize_shard / serialize_failure / serialize_worker_io;
//              see checkpoint.cpp)
// A shard frame carries every ShardSummary field but log_offset (the
// merge recomputes it): index, seed, the kShardCounters rows in row order
// (gfw/runner.h), teardown, blocks, probes, server rows (identity, then
// kServerCounters) and resources (kResourceCounters, peaks, sheds). A
// single server is a fleet of one, so every shard is written the same
// way. Failure frames carry a quarantined or recovered ShardFailure, how
// a distributed worker ships its supervision verdicts back to the
// coordinator (gfw/dist_runner.h); worker-IO frames carry its worker id
// and kWorkerIoCounters rows, appended at worker exit when nonzero.
// Older versions are refused with a clear error — journals are
// per-campaign scratch, not archives. A shard or failure frame whose
// shard index is outside the header's shard count is corruption.
// A torn tail frame (the process died mid-append) is detected by its
// short payload and ignored: that shard simply reruns on resume.
// Mid-file corruption that survives the framing checks (a payload byte
// flip, an insane length, a CRC mismatch) throws CheckpointError — the
// distributed coordinator responds by discarding the journal and
// re-running its shards, never by merging suspect bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "gfw/runner.h"

namespace gfwsim::gfw {

inline constexpr std::uint32_t kCheckpointVersion = 3;

// Hard ceiling on a single frame's payload. Real frames are a few KB per
// thousand probes; anything claiming more than this is a corrupt or
// hostile length field and is rejected before any allocation happens.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;  // 1 GiB

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

struct CheckpointHeader {
  std::uint32_t version = kCheckpointVersion;
  std::uint32_t shard_count = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t scenario_fingerprint = 0;
};

// FNV-1a over every row of the Scenario's row tables (gfw/scenario.h),
// walked in table order, minus the skip rows. Two scenarios with equal
// fingerprints produce interchangeable shards for checkpoint purposes.
std::uint64_t scenario_fingerprint(const Scenario& scenario);

// The one campaign-identity check: throws CheckpointError unless the
// journal at `path`, whose header is `journal`, was written by the
// campaign `campaign` describes (same shard count, base seed and
// scenario fingerprint).
void require_same_campaign(const CheckpointHeader& journal,
                           const CheckpointHeader& campaign,
                           const std::string& path);

// Shard frame payload codec (frame kind 1), exposed for the
// format-stability golden tests: parse(serialize(x)) == x and
// serialize(parse(bytes)) == bytes.
Bytes serialize_shard(const ShardSummary& summary, const ProbeLog& log);
ShardRun parse_shard(ByteSpan payload);  // completed; throws CheckpointError

// Kept only because bench/suite/gfw_bench.cpp calls them, and that file
// changes only with the benchmark suite: whether a shard carries server
// ids, regions or server rows, and an alias of serialize_shard.
bool shard_has_fleet_data(const ShardSummary& summary, const ProbeLog& log);
inline Bytes serialize_shard_fleet(const ShardSummary& summary, const ProbeLog& log) {
  return serialize_shard(summary, log);
}

// Failure frame payload codec (frame kind 3): one ShardFailure —
// quarantine verdicts and recovered-failure records cross the worker
// process boundary in the same journal as the results they annotate.
Bytes serialize_failure(const ShardFailure& failure);
ShardFailure parse_failure(ByteSpan payload);  // throws CheckpointError

// Worker IO-stats frame payload codec (frame kind 5): a distributed
// worker's WorkerIoStats (gfw/supervisor.h), appended once at worker exit
// when any counter is nonzero (gfw/dist_runner.cpp).
Bytes serialize_worker_io(const WorkerIoStats& io);
WorkerIoStats parse_worker_io(ByteSpan payload);  // throws CheckpointError

// Appends completed shards to the journal as they finish. In fresh mode
// the file is truncated and a new header written; in append mode an
// existing file must belong to the same campaign (require_same_campaign;
// missing file: same as fresh). Each append_shard is flushed before
// returning, so a kill between appends loses at most the in-flight frame.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, const CheckpointHeader& header,
                   bool append);

  void append_shard(const ShardSummary& summary, const ProbeLog& log);
  // Journals a supervision verdict (kind-3 frame): distributed workers
  // record quarantines and recovered failures here so the coordinator's
  // merge can surface them even after the worker process is gone.
  void append_failure(const ShardFailure& failure);
  // Journals a worker's IO verdict (kind-5 frame); callers gate on
  // io.any() so clean runs add no bytes.
  void append_worker_io(const WorkerIoStats& io);

 private:
  void append_frame(std::uint32_t kind, const Bytes& payload);

  std::ofstream out_;
  std::string path_;
};

struct Checkpoint {
  CheckpointHeader header;
  std::map<std::uint32_t, ShardRun> shards;  // completed, by shard_index
  // Kind-3 supervision verdicts, in file order (distributed workers
  // append them; in-process journals have none).
  std::vector<ShardFailure> failures;
  // Kind-5 worker IO verdicts, in file order (distributed workers with
  // degraded channel/journal IO append them; clean runs have none).
  std::vector<WorkerIoStats> worker_io;
  // Bytes of a torn tail frame that were ignored (0 on a clean file).
  std::size_t torn_tail_bytes = 0;
};

// Loads a journal. Throws CheckpointError on a bad magic, an unsupported
// version, an unknown frame kind, an out-of-range shard index, or a
// corrupt frame body; a truncated *tail* is tolerated (see
// torn_tail_bytes). A duplicate shard frame (e.g. two non-resume runs
// pointed at the same file) keeps the first occurrence.
Checkpoint load_checkpoint(const std::string& path);

// Returns true iff `path` exists and is non-empty (resume decides
// between "fresh start" and "load and verify").
bool checkpoint_exists(const std::string& path);

}  // namespace gfwsim::gfw
