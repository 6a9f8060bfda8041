// gfw_worker: operator tool for distributed campaign journals.
//
// Two modes:
//
//   gfw_worker --describe PATH
//     Inspect a GFWCKPT1 slot journal: header, completed shards with
//     their resource verdicts, supervision verdicts, worker IO verdicts,
//     torn-tail bytes. A corrupt journal (CRC mismatch, implausible
//     frame length, unknown frame kind) exits 2 with the structured
//     error — the same verdict the DistRunner coordinator acts on by
//     discarding the file.
//
//   gfw_worker --run --range LO:HI --journal PATH [--shards N]
//              [--seed S] [--days D] [--shard-retries R]
//     Manual scatter: run shards [LO, HI) of the standard campaign and
//     append them to PATH. Naming the journals <prefix>.worker<slot>
//     makes them gatherable by a resumed `bench_checkpoint --workers N
//     --checkpoint <prefix> --resume` on the machine that merges.
//     Re-running after a kill resumes from the journal (completed
//     shards are skipped), mirroring the in-process DistRunner worker.
//     Numeric values must be whole unsigned tokens; anything else exits 2.
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "gfw/checkpoint.h"
#include "gfw/dist_runner.h"

using namespace gfwsim;

namespace {

[[noreturn]] void usage(int exit_code) {
  std::ostream& os = exit_code == 0 ? std::cout : std::cerr;
  os << "usage: gfw_worker --describe PATH\n"
     << "       gfw_worker --run --range LO:HI --journal PATH [--shards N]\n"
     << "                  [--seed S] [--days D] [--shard-retries R]\n";
  std::exit(exit_code);
}

int describe_journal(const std::string& path) {
  if (!gfw::checkpoint_exists(path)) {
    std::cerr << "gfw_worker: " << path << " does not exist or is empty\n";
    return 2;
  }
  gfw::Checkpoint ck;
  try {
    ck = gfw::load_checkpoint(path);
  } catch (const gfw::CheckpointError& error) {
    std::cerr << "gfw_worker: " << path << ": " << error.what() << "\n";
    return 2;
  }
  std::cout << path << ":\n"
            << "  format version:       " << ck.header.version << "\n"
            << "  campaign shard count: " << ck.header.shard_count << "\n"
            << "  base seed:            0x" << std::hex << ck.header.base_seed
            << std::dec << "\n"
            << "  scenario fingerprint: 0x" << std::hex
            << ck.header.scenario_fingerprint << std::dec << "\n"
            << "  completed shards:     " << ck.shards.size() << "\n";
  for (const auto& [index, shard] : ck.shards) {
    std::cout << "    shard " << index << ": seed 0x" << std::hex
              << shard.summary.seed << std::dec << ", "
              << shard.summary.connections_launched << " connections, "
              << shard.log.size() << " probes, "
              << shard.summary.blocking_history.size() << " block(s)"
              << (shard.summary.servers.empty()
                      ? ""
                      : ", " + std::to_string(shard.summary.servers.size()) +
                            " fleet server row(s)")
              << "\n";
    // Resource verdict, nonzero only when the shard ran under an armed
    // governor and something was metered/shed/dropped.
    const gfw::ShardResources& res = shard.summary.resources;
    if (res.any()) {
      std::cout << "      resources: peak " << res.peak_metered_bytes
                << " metered bytes over " << res.acquisitions
                << " acquisition(s), " << res.probes_shed << " probe(s) shed, "
                << res.probes_deferred << " deferred, "
                << res.queue_overflow_drops << " queue-overflow drop(s)\n";
      for (const gfw::ShedRecord& s : res.sheds) {
        std::cout << "        server " << s.server_id
                  << (s.region.empty() ? "" : " [" + s.region + "]") << ": "
                  << s.count << " probe(s) shed\n";
      }
    }
  }
  if (!ck.failures.empty()) {
    std::cout << "  supervision verdicts: " << ck.failures.size() << "\n";
    for (const auto& failure : ck.failures) {
      std::cout << "    " << gfw::describe(failure) << "\n";
    }
  }
  // Worker IO verdicts: pipe/journal degradation the worker survived —
  // including heartbeats it could not deliver at all.
  if (!ck.worker_io.empty()) {
    std::cout << "  worker io verdicts:   " << ck.worker_io.size() << "\n";
    for (const gfw::WorkerIoStats& io : ck.worker_io) {
      std::cout << "    worker " << io.worker_id << ": " << gfw::describe(io) << "\n";
    }
  }
  if (ck.torn_tail_bytes > 0) {
    std::cout << "  torn tail: " << ck.torn_tail_bytes
              << " byte(s) of an unfinished frame (dropped on load; "
                 "truncated on the next append)\n";
  }
  return 0;
}

// A whole unsigned token no larger than `max`, or usage and exit 2.
std::uint64_t number(const std::string& text, std::uint64_t max) {
  const std::optional<std::uint64_t> value = bench::whole_unsigned(text.c_str(), max);
  if (!value) usage(2);
  return *value;
}

bool parse_range(const std::string& arg, std::uint32_t& lo, std::uint32_t& hi) {
  const auto colon = arg.find(':');
  if (colon == std::string::npos) return false;
  lo = static_cast<std::uint32_t>(number(arg.substr(0, colon), UINT32_MAX));
  hi = static_cast<std::uint32_t>(number(arg.substr(colon + 1), UINT32_MAX));
  return hi > lo;
}

int run_range(const std::string& journal, std::uint32_t lo, std::uint32_t hi,
              std::uint32_t shards, std::uint64_t seed, int days, int retries) {
  if (hi > shards) {
    std::cerr << "gfw_worker: range " << lo << ":" << hi << " exceeds --shards "
              << shards << "\n";
    return 2;
  }
  gfw::Scenario scenario = bench::standard_scenario(days);
  scenario.base_seed = seed;
  const gfw::CheckpointHeader header{gfw::kCheckpointVersion, shards,
                                     scenario.base_seed,
                                     gfw::scenario_fingerprint(scenario)};
  // Resume semantics match a respawned DistRunner worker: already
  // journaled shards are skipped, a torn tail is truncated on open. The
  // skip set covers only this range, so a huge --shards costs nothing.
  std::vector<char> done(hi - lo, 0);
  const auto mark_done = [&](std::uint32_t shard) {
    if (shard >= lo && shard < hi) done[shard - lo] = 1;
  };
  if (gfw::checkpoint_exists(journal)) {
    try {
      const gfw::Checkpoint existing = gfw::load_checkpoint(journal);
      gfw::require_same_campaign(existing.header, header, journal);
      for (const auto& [index, shard] : existing.shards) mark_done(index);
      for (const auto& failure : existing.failures) {
        if (failure.quarantined) mark_done(failure.shard_index);
      }
    } catch (const gfw::CheckpointError& error) {
      std::cerr << "gfw_worker: " << journal << ": " << error.what()
                << " — delete it (or pick a fresh path) before rerunning\n";
      return 2;
    }
  }
  gfw::CheckpointWriter writer(journal, header, /*append=*/true);

  const int max_attempts = 1 + std::max(0, retries);
  bool all_ok = true;
  for (std::uint32_t shard = lo; shard < hi; ++shard) {
    if (done[shard - lo]) {
      std::cout << "shard " << shard << ": already journaled, skipping\n";
      continue;
    }
    gfw::ShardRun run = gfw::run_shard_supervised(
        scenario, shard, max_attempts, /*attempt_base=*/0,
        /*watchdog=*/nullptr, /*before=*/{}, /*after=*/{});
    if (run.failure) writer.append_failure(*run.failure);
    if (run.completed) {
      writer.append_shard(run.summary, run.log);
      std::cout << "shard " << shard << ": "
                << run.summary.connections_launched << " connections, "
                << run.log.size() << " probes\n";
    } else {
      all_ok = false;
      std::cout << "shard " << shard << ": "
                << (run.failure ? gfw::describe(*run.failure) : "failed") << "\n";
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string describe_path;
  bool run_mode = false;
  std::string journal;
  std::uint32_t lo = 0, hi = 0;
  std::uint32_t shards = 8;
  std::uint64_t seed = 0x0C4E;
  int days = 3;
  int retries = 1;

  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else if (std::strcmp(arg, "--describe") == 0) {
      describe_path = value(i);
    } else if (std::strcmp(arg, "--run") == 0) {
      run_mode = true;
    } else if (std::strcmp(arg, "--range") == 0) {
      if (!parse_range(value(i), lo, hi)) usage(2);
    } else if (std::strcmp(arg, "--journal") == 0) {
      journal = value(i);
    } else if (std::strcmp(arg, "--shards") == 0) {
      shards = static_cast<std::uint32_t>(number(value(i), UINT32_MAX));
      if (shards == 0) usage(2);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = number(value(i), UINT64_MAX);
    } else if (std::strcmp(arg, "--days") == 0) {
      days = static_cast<int>(number(value(i), INT_MAX));
      if (days == 0) usage(2);
    } else if (std::strcmp(arg, "--shard-retries") == 0) {
      retries = static_cast<int>(number(value(i), INT_MAX));
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }

  if (!describe_path.empty()) return describe_journal(describe_path);
  if (run_mode) {
    if (journal.empty() || hi <= lo) usage(2);
    return run_range(journal, lo, hi, shards, seed, days, retries);
  }
  usage(2);
}
