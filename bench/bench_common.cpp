#include "bench_common.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "crypto/cpu.h"
#include "gfw/dist_runner.h"

namespace gfwsim::bench {

namespace {

// "aes=simd ghash=simd chacha=simd poly1305=portable" — what the crypto
// substrate dispatches to on this host/build, for run summaries (timings
// are only comparable within one tier configuration).
std::string kernel_tier_string() {
  const crypto::KernelTiers tiers = crypto::active_kernel_tiers();
  std::string out = "aes=";
  out += crypto::tier_name(tiers.aes);
  out += " ghash=";
  out += crypto::tier_name(tiers.ghash);
  out += " chacha=";
  out += crypto::tier_name(tiers.chacha);
  out += " poly1305=";
  out += crypto::tier_name(tiers.poly1305);
  return out;
}

[[noreturn]] void usage(const char* argv0, int exit_code) {
  std::ostream& os = exit_code == 0 ? std::cout : std::cerr;
  os << "usage: " << (argv0 ? argv0 : "bench") << " [options]\n"
     << "  --shards N    independent campaign shards (default 4)\n"
     << "  --threads N   worker threads (default: hardware concurrency)\n"
     << "  --seed S      base-seed override (decimal or 0x-hex)\n"
     << "  --days D      per-shard campaign length override, in days\n"
     << "  --csv PATH    mirror paper-vs-measured rows to PATH as CSV\n"
     << "  --loss P      per-segment loss probability in [0,1] (default 0)\n"
     << "  --dup P       per-segment duplication probability in [0,1]\n"
     << "  --reorder P   per-segment reorder probability in [0,1]\n"
     << "  --jitter MS   uniform extra one-way latency in [0, MS) ms\n"
     << "  --checkpoint PATH  journal completed shards to PATH\n"
     << "  --resume           skip shards already in --checkpoint\n"
     << "                     (requires --checkpoint)\n"
     << "  --shard-retries N  retries before quarantining a failing shard\n"
     << "  --stall-timeout S  stall watchdog deadline in wall seconds (0=off)\n"
     << "  --workers N   run shards across N forked worker processes\n"
     << "                (crash/kill/stall containment; bit-identical merge)\n"
     << "  --worker-kill-after K  chaos: SIGKILL one worker right after its\n"
     << "                K-th shard start (requires --workers)\n"
     << "  --mem-budget BYTES  per-shard metered-allocation budget\n"
     << "                (k/m/g suffixes; 0 = off); a breach becomes a\n"
     << "                structured kResource shard failure, not a crash\n"
     << "  --probe-queue-cap N  bound concurrent in-flight GFW probes;\n"
     << "                overflow is shed deterministically per server\n"
     << "  --worker-rlimit-as BYTES  setrlimit(RLIMIT_AS) per forked worker\n"
     << "                (requires --workers; k/m/g suffixes)\n"
     << "  --worker-rlimit-cpu S     setrlimit(RLIMIT_CPU) per forked worker\n";
  std::exit(exit_code);
}

const char* flag_value(int argc, char** argv, int& i, const char* argv0) {
  if (i + 1 >= argc) usage(argv0, 2);
  return argv[++i];
}

// Parses the leading unsigned integer of `text` (decimal, 0x-hex or
// 0-octal) and points `rest` past it; a sign, a blank or an overflow
// yields nullopt.
std::optional<std::uint64_t> leading_unsigned(const char* text, const char*& rest) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text, &end, 0);
  if (errno == ERANGE) return std::nullopt;
  rest = end;
  return value;
}

std::uint64_t unsigned_flag(int argc, char** argv, int& i, const char* argv0,
                            std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> value =
      whole_unsigned(flag_value(argc, argv, i, argv0), max);
  if (!value) usage(argv0, 2);
  return *value;
}

// A finite, non-negative real.
double real_flag(int argc, char** argv, int& i, const char* argv0) {
  const char* text = flag_value(argc, argv, i, argv0);
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    usage(argv0, 2);
  }
  return value;
}

double probability_flag(int argc, char** argv, int& i, const char* argv0) {
  const double value = real_flag(argc, argv, i, argv0);
  if (value > 1.0) usage(argv0, 2);
  return value;
}

// Byte-size flag with optional k/m/g (binary) suffix: "64m" = 64 MiB.
std::uint64_t size_flag(int argc, char** argv, int& i, const char* argv0) {
  const char* rest = nullptr;
  const std::optional<std::uint64_t> leading =
      leading_unsigned(flag_value(argc, argv, i, argv0), rest);
  if (!leading) usage(argv0, 2);
  const std::uint64_t base = *leading;
  std::uint64_t scale = 1;
  switch (*rest) {
    case '\0': break;
    case 'k': case 'K': scale = 1ull << 10; ++rest; break;
    case 'm': case 'M': scale = 1ull << 20; ++rest; break;
    case 'g': case 'G': scale = 1ull << 30; ++rest; break;
    default: usage(argv0, 2);
  }
  if (*rest != '\0' || base > std::numeric_limits<std::uint64_t>::max() / scale) {
    usage(argv0, 2);
  }
  return base * scale;
}

// Splits "--csv dir/name.csv" into CsvWriter's (directory, name) form.
void split_csv_path(const std::string& path, std::string& directory, std::string& name) {
  const auto slash = path.find_last_of('/');
  directory = slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  name = slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() > 4 && name.substr(name.size() - 4) == ".csv") {
    name = name.substr(0, name.size() - 4);
  }
  if (directory.empty()) directory = "/";
  if (name.empty()) usage(nullptr, 2);
}

}  // namespace

std::optional<std::uint64_t> whole_unsigned(const char* text, std::uint64_t max) {
  const char* rest = nullptr;
  const std::optional<std::uint64_t> value = leading_unsigned(text, rest);
  if (!value || *rest != '\0' || *value > max) return std::nullopt;
  return value;
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions options;
  const char* argv0 = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv0, 0);
    } else if (std::strcmp(arg, "--shards") == 0) {
      options.shards = static_cast<std::uint32_t>(
          unsigned_flag(argc, argv, i, argv0, UINT32_MAX));
      if (options.shards == 0) usage(argv0, 2);
    } else if (std::strcmp(arg, "--threads") == 0) {
      options.threads = static_cast<unsigned>(unsigned_flag(argc, argv, i, argv0, UINT_MAX));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = unsigned_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--days") == 0) {
      options.days = static_cast<int>(unsigned_flag(argc, argv, i, argv0, INT_MAX));
      if (options.days == 0) usage(argv0, 2);
    } else if (std::strcmp(arg, "--csv") == 0) {
      options.csv = flag_value(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--loss") == 0) {
      options.loss = probability_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--dup") == 0) {
      options.dup = probability_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--reorder") == 0) {
      options.reorder = probability_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--jitter") == 0) {
      options.jitter_ms = real_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      options.checkpoint = flag_value(argc, argv, i, argv0);
      if (options.checkpoint.empty()) usage(argv0, 2);
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--shard-retries") == 0) {
      options.shard_retries = static_cast<int>(unsigned_flag(argc, argv, i, argv0, INT_MAX));
    } else if (std::strcmp(arg, "--stall-timeout") == 0) {
      options.stall_timeout_s = real_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--workers") == 0) {
      options.workers = static_cast<unsigned>(unsigned_flag(argc, argv, i, argv0, UINT_MAX));
      if (options.workers == 0) usage(argv0, 2);
    } else if (std::strcmp(arg, "--worker-kill-after") == 0) {
      options.worker_kill_after =
          static_cast<int>(unsigned_flag(argc, argv, i, argv0, INT_MAX));
      if (options.worker_kill_after == 0) usage(argv0, 2);
    } else if (std::strcmp(arg, "--mem-budget") == 0) {
      options.mem_budget = size_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--probe-queue-cap") == 0) {
      options.probe_queue_cap = static_cast<std::size_t>(unsigned_flag(
          argc, argv, i, argv0, std::numeric_limits<std::size_t>::max()));
    } else if (std::strcmp(arg, "--worker-rlimit-as") == 0) {
      options.worker_rlimit_as = size_flag(argc, argv, i, argv0);
    } else if (std::strcmp(arg, "--worker-rlimit-cpu") == 0) {
      options.worker_rlimit_cpu = unsigned_flag(argc, argv, i, argv0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv0, 2);
    }
  }
  if (options.resume && options.checkpoint.empty()) {
    std::cerr << "--resume requires --checkpoint\n";
    usage(argv0, 2);
  }
  if (options.worker_kill_after > 0 && options.workers == 0) {
    std::cerr << "--worker-kill-after requires --workers\n";
    usage(argv0, 2);
  }
  if ((options.worker_rlimit_as != 0 || options.worker_rlimit_cpu != 0) &&
      options.workers == 0) {
    std::cerr << "--worker-rlimit-as/--worker-rlimit-cpu require --workers\n";
    usage(argv0, 2);
  }
  install_interrupt_handlers();
  return options;
}

namespace {

std::atomic<int> g_interrupt{0};

extern "C" void bench_interrupt_handler(int sig) {
  // First signal: graceful — runners stop claiming shards, in-flight
  // ones finish and are journaled. Second signal: the operator means it.
  if (g_interrupt.exchange(1, std::memory_order_relaxed) != 0) {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }
}

}  // namespace

const std::atomic<int>* interrupt_flag() { return &g_interrupt; }

void install_interrupt_handlers() {
  std::signal(SIGTERM, bench_interrupt_handler);
  std::signal(SIGINT, bench_interrupt_handler);
}

gfw::ShardedRunnerOptions runner_options(const BenchOptions& options) {
  gfw::ShardedRunnerOptions out(options.shards, options.threads);
  out.shard_retries = options.shard_retries;
  out.stall_timeout = std::chrono::milliseconds(
      static_cast<std::int64_t>(options.stall_timeout_s * 1000.0));
  out.checkpoint_path = options.checkpoint;
  out.resume = options.resume;
  out.interrupt = interrupt_flag();
  return out;
}

gfw::Scenario standard_scenario(int days) {
  gfw::Scenario scenario;
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.server.cipher = "chacha20-ietf-poly1305";
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(24 * days);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.35;
  return scenario;
}

gfw::Scenario with_fault_options(gfw::Scenario scenario, const BenchOptions& options) {
  if (options.loss > 0.0) scenario.faults.loss = options.loss;
  if (options.dup > 0.0) scenario.faults.duplicate = options.dup;
  if (options.reorder > 0.0) scenario.faults.reorder = options.reorder;
  if (options.jitter_ms > 0.0) {
    scenario.faults.jitter = net::from_seconds(options.jitter_ms / 1000.0);
  }
  // Resource-governance knobs ride with the fault knobs: both zero by
  // default, both provably inert until an operator arms them.
  if (options.mem_budget != 0) {
    scenario.resources.limits.total_bytes = options.mem_budget;
  }
  if (options.probe_queue_cap != 0) {
    scenario.resources.probe_queue_cap = options.probe_queue_cap;
  }
  return scenario;
}

gfw::Scenario with_options(gfw::Scenario scenario, const BenchOptions& options,
                           std::uint64_t default_seed, int default_days) {
  const int days = options.days > 0 ? options.days : default_days;
  scenario.duration = net::hours(24 * days);
  scenario.base_seed = options.seed != 0 ? options.seed : default_seed;
  return with_fault_options(std::move(scenario), options);
}

gfw::CampaignResult run_sharded(const gfw::Scenario& scenario,
                                const BenchOptions& options) {
  if (options.workers > 0) {
    gfw::DistRunnerOptions dist;
    dist.shards = options.shards;
    dist.workers = options.workers;
    dist.shard_retries = options.shard_retries;
    dist.stall_timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(options.stall_timeout_s * 1000.0));
    // --checkpoint doubles as the slot-journal prefix; empty means a
    // private temp dir (no resume across runs).
    dist.journal_prefix = options.checkpoint;
    dist.resume = options.resume;
    dist.interrupt = interrupt_flag();
    dist.chaos_kill_after_shards = options.worker_kill_after;
    dist.worker_rlimit_as = options.worker_rlimit_as;
    dist.worker_rlimit_cpu = options.worker_rlimit_cpu;
    gfw::DistRunner runner(dist);
    return runner.run(scenario);
  }
  gfw::ShardedRunner runner(runner_options(options));
  return runner.run(scenario);
}

gfw::CampaignResult run_standard_sharded(const BenchOptions& options,
                                         std::uint64_t default_seed, int default_days) {
  return run_sharded(
      with_options(standard_scenario(), options, default_seed, default_days), options);
}

void print_run_summary(std::ostream& os, const gfw::CampaignResult& result,
                       const BenchOptions& options) {
  const gfw::ShardSummary totals = result.totals();
  if (options.workers > 0) {
    os << "[" << result.shards.size() << " shard(s) x " << options.workers
       << " worker process(es): " << totals.connections_launched
       << " connections, " << result.log.size() << " probes]\n";
  } else {
    const unsigned threads = std::min<unsigned>(
        gfw::ShardedRunner(runner_options(options)).resolved_threads(),
        static_cast<unsigned>(result.shards.size()));
    os << "[" << result.shards.size() << " shard(s) x " << threads
       << " thread(s): " << totals.connections_launched << " connections, "
       << result.log.size() << " probes]\n";
  }
  os << "[cpu: " << crypto::cpu_feature_string() << "; kernels: "
     << kernel_tier_string() << "]\n";
  // Resource verdicts: shed/deferred probes, queue-overflow drops, peak
  // metered bytes, and rlimit-attributed deaths — printed only when the
  // governor (or a worker limit) actually did something.
  const gfw::ShardResources& res = totals.resources;
  const std::size_t resource_failures = result.resource_failures();
  if (res.probes_shed != 0 || res.probes_deferred != 0 || res.queue_overflow_drops != 0 ||
      res.peak_metered_bytes != 0 || resource_failures != 0) {
    os << "[resources: " << res.probes_shed << " probe(s) shed, " << res.probes_deferred
       << " deferred, " << res.queue_overflow_drops << " queue-overflow drop(s), peak "
       << res.peak_metered_bytes << " metered bytes, " << resource_failures
       << " resource failure(s)]\n";
  }
  // The campaign's worker-IO totals, gathered into one record for describe().
  gfw::WorkerIoStats io;
  for (const auto& row : gfw::kWorkerIoCounters) io.*row.field = result.*row.total;
  if (io.any()) os << "[worker io: " << gfw::describe(io) << "]\n";
  // Supervision verdicts: quarantined shards are missing from the
  // numbers above, so say so loudly.
  for (const auto& failure : result.failures) {
    os << "  !! " << gfw::describe(failure) << "\n";
  }
  if (result.interrupted) {
    os << "  !! interrupted: partial campaign (" << result.shards.size()
       << " shard(s) merged)";
    if (!options.checkpoint.empty()) {
      os << "; rerun with --checkpoint " << options.checkpoint
         << " --resume to continue";
    }
    os << "\n";
  }
}

void print_run_summary(std::ostream& os, const gfw::CampaignResult& result,
                       const BenchOptions& options, double wall_seconds) {
  print_run_summary(os, result, options);
  const std::uint64_t events = result.totals().events_processed;
  os << "[" << events << " events";
  if (wall_seconds > 0.0) {
    os << ", " << static_cast<std::uint64_t>(static_cast<double>(events) / wall_seconds)
       << " events/sec";
  }
  os << "]\n";
}

BenchReporter::BenchReporter(std::string bench_name, const BenchOptions& options)
    : bench_(std::move(bench_name)) {
  if (!options.csv.empty()) {
    std::string directory, name;
    split_csv_path(options.csv, directory, name);
    csv_ = std::make_unique<analysis::CsvWriter>(
        directory, name,
        std::vector<std::string>{"bench", "metric", "paper", "measured"});
  }
}

void BenchReporter::metric(const std::string& metric, const std::string& paper,
                           const std::string& measured) {
  std::cout << "  " << metric << "\n    paper:    " << paper
            << "\n    measured: " << measured << "\n";
  if (csv_) csv_->row({bench_, metric, paper, measured});
}

}  // namespace gfwsim::bench
