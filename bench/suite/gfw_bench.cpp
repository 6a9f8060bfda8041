// gfw_bench: the campaign benchmark. One binary, four named workloads,
// each a whole campaign driven through a public runner
// (gfw::ShardedRunner or gfw::DistRunner) and timed from outside.
//
//   gfw_bench --workload NAME [--seed S] [--reps N] [--seconds S]
//             [--trace] [--json PATH] [--scale full|smoke]
//             [--parallel N] [--tmpdir DIR] [--expect-digest HEX]
//             [--setup-only]
//
// Every rep is checked: a SHA-1 over the merged campaign (every probe
// record field, every ShardSummary counter, teardown report, blocking
// entry, server row and resource verdict; never events_processed or
// anything wall-clock) must be the same on every rep, and equal to
// --expect-digest when one is given. A dirty teardown, a quarantined or
// recovered shard, or an interrupted run also fails the rep. Any failure
// exits non-zero.
//
// End-to-end numbers come only from untraced reps. `--trace` adds one
// rep with the per-layer instruments armed, all of them outside the
// program: a pass-through net::Middlebox that times Gfw::on_segment,
// per-shard timestamps taken in the runner's before/after hooks (kept in
// a MAP_SHARED array so DistRunner workers can write them), the public
// checkpoint codec and load_checkpoint run over the rep's own journals,
// and a replay of the observed segment sizes through the proxy ciphers.
// README.md defines every metric.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/cpu.h"
#include "crypto/sha1.h"
#include "gfw/checkpoint.h"
#include "gfw/dist_runner.h"
#include "gfw/runner.h"
#include "proxy/aead_crypto.h"
#include "proxy/cipher.h"
#include "proxy/stream_crypto.h"

using namespace gfwsim;

namespace {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Workloads -------------------------------------------------------------

enum class Scale { kFull, kSmoke };

struct Workload {
  std::string_view name;
  std::uint64_t default_seed;
  bool dist;       // DistRunner worker processes instead of a thread pool
  unsigned lanes;  // threads or workers, capped at nproc
  std::uint32_t shards;
  int hours;  // simulated campaign length of each shard
  std::uint32_t smoke_shards;
  int smoke_hours;
  gfw::Scenario (*scenario)();
};

// Every workload keeps the blocking module running (evidence, per-segment
// block checks) but never lets its human-factor gate block a server: a
// block null-routes a server for one to three weeks, so one 5% draw would
// halve a rep's work and make the cost of a campaign depend on its seed.
gfw::Scenario unblocked() {
  gfw::Scenario scenario;
  scenario.gfw.blocking.block_probability = 0.0;
  scenario.gfw.blocking.sensitive_block_probability = 0.0;
  return scenario;
}

// The standard measurement scenario of the repository's benches:
// browsing traffic through OutlineVPN 1.0.7 (chacha20-ietf-poly1305),
// 60 s pacing, classifier rate 0.35.
gfw::Scenario standard() {
  gfw::Scenario scenario = unblocked();
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.server.cipher = "chacha20-ietf-poly1305";
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.35;
  return scenario;
}

gfw::Scenario faulted() {
  gfw::Scenario scenario = standard();
  scenario.faults.loss = 0.01;
  scenario.faults.duplicate = 0.005;
  scenario.faults.reorder = 0.01;
  scenario.faults.jitter = net::milliseconds(10);
  return scenario;
}

gfw::ServerSpec server(probesim::ServerSetup::Impl impl, const char* cipher,
                       const char* region) {
  gfw::ServerSpec spec;
  spec.server.impl = impl;
  spec.server.cipher = cipher;
  spec.region = region;
  return spec;
}

// bench_fleet's implementation x cipher x region grid in one World.
gfw::Scenario fleet() {
  using Impl = probesim::ServerSetup::Impl;
  gfw::Scenario scenario = unblocked();
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.connection_interval = net::seconds(90);
  scenario.classifier_base_rate = 0.35;
  scenario.fleet = {
      server(Impl::kOutline107, "chacha20-ietf-poly1305", "beijing"),
      server(Impl::kOutline107, "chacha20-ietf-poly1305", "unicom"),
      server(Impl::kOutline110, "chacha20-ietf-poly1305", "beijing"),
      server(Impl::kLibevNew, "aes-256-gcm", "beijing"),
      server(Impl::kLibevNew, "chacha20-ietf-poly1305", "unicom"),
      server(Impl::kLibevOld, "aes-256-ctr", "unicom"),
      server(Impl::kSsPython, "aes-256-cfb", "beijing"),
      server(Impl::kSsr, "rc4-md5", "unicom"),
  };
  return scenario;
}

// Sizes are chosen so one full-scale rep takes about a second on a
// 4-vCPU x86-64 VM; README.md records why each workload exists.
constexpr Workload kWorkloads[] = {
    {"bulk_ideal", 0xB01D, false, 1, 2, 24 * 7, 2, 12, standard},
    {"bulk_faulted", 0xFA17, false, 4, 8, 24 * 5, 4, 6, faulted},
    {"fleet_mixed", 0xF1EE7, false, 4, 8, 24 * 1, 4, 3, fleet},
    {"dist_journaled", 0xD157, true, 4, 64, 24 * 1, 8, 2, standard},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---- Campaign digest -------------------------------------------------------

class Digest {
 public:
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    store_le64(b, v);
    sha_.update(ByteSpan(b, sizeof b));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    sha_.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  void endpoint(const net::Endpoint& e) {
    u64(e.addr.value);
    u64(e.port);
  }
  std::string hex() {
    const auto d = sha_.finish();
    return hex_encode(ByteSpan(d.data(), d.size()));
  }

 private:
  crypto::Sha1 sha_;
};

// Written by hand rather than through the checkpoint serializer, so a
// change of the journal format cannot move it.
std::string campaign_digest(const gfw::CampaignResult& result) {
  Digest d;
  d.u64(result.log.size());
  for (const gfw::ProbeRecord& r : result.log.records()) {
    d.i64(r.sent_at.count());
    d.u64(static_cast<std::uint64_t>(r.type));
    d.endpoint(r.server);
    d.u64(r.server_id);
    d.u64(r.src_ip.value);
    d.i64(r.asn);
    d.u64(r.src_port);
    d.u64(r.ttl);
    d.u64(r.tsval);
    d.i64(r.tsval_process);
    d.u64(r.payload_len);
    d.u64(static_cast<std::uint64_t>(r.reaction));
    d.i64(r.connect_retries);
    d.i64(r.replay_delay.count());
    d.u64(r.is_first_replay_of_payload ? 1 : 0);
    d.u64(r.trigger_payload_hash);
  }
  d.u64(result.shards.size());
  for (const gfw::ShardSummary& s : result.shards) {
    for (const std::uint64_t v :
         {std::uint64_t{s.shard_index}, s.seed, std::uint64_t{s.connections_launched},
          std::uint64_t{s.control_contacts}, std::uint64_t{s.flows_inspected},
          std::uint64_t{s.flows_flagged}, std::uint64_t{s.segments_transmitted},
          std::uint64_t{s.segments_delivered}, s.payload_bytes_delivered,
          std::uint64_t{s.segments_dropped_middlebox},
          std::uint64_t{s.segments_dropped_loss},
          std::uint64_t{s.segments_dropped_outage}, std::uint64_t{s.segments_duplicated},
          std::uint64_t{s.segments_reordered}, std::uint64_t{s.retransmissions},
          std::uint64_t{s.probe_connect_retries}, std::uint64_t{s.log_offset},
          std::uint64_t{s.probes}}) {
      d.u64(v);
    }
    const net::TeardownReport& t = s.teardown;
    for (const std::uint64_t v :
         {std::uint64_t{t.leaked_established}, std::uint64_t{t.live_established},
          std::uint64_t{t.embryonic}, std::uint64_t{t.half_closed},
          std::uint64_t{t.stale_registrations}, std::uint64_t{t.expired_registrations},
          std::uint64_t{t.pending_timers}, std::uint64_t{t.timers_overdue},
          std::uint64_t{t.segments_in_flight}, std::uint64_t{t.accounting_balanced}}) {
      d.u64(v);
    }
    d.u64(s.blocking_history.size());
    for (const auto& b : s.blocking_history) {
      d.u64(b.server_ip.value);
      d.i64(b.port ? *b.port : -1);
      d.i64(b.blocked_at.count());
      d.i64(b.unblock_at.count());
      d.str(b.region);
    }
    d.u64(s.servers.size());
    for (const gfw::ServerStats& row : s.servers) {
      d.u64(row.server_id);
      d.endpoint(row.endpoint);
      d.str(row.region);
      d.str(row.impl);
      d.str(row.cipher);
      d.u64(row.connections_launched);
      d.u64(row.payload_bytes);
      d.u64(row.probes);
      d.u64(row.blocks);
    }
    const gfw::ShardResources& res = s.resources;
    d.u64(res.probes_shed);
    d.u64(res.probes_deferred);
    d.u64(res.queue_overflow_drops);
    d.u64(res.peak_metered_bytes);
    d.u64(res.acquisitions);
    for (const std::uint64_t peak : res.peak_units) d.u64(peak);
    d.u64(res.sheds.size());
    for (const gfw::ShedRecord& shed : res.sheds) {
      d.u64(shed.server_id);
      d.str(shed.region);
      d.u64(shed.count);
    }
  }
  return d.hex();
}

// ---- Shared trace memory ---------------------------------------------------

// Payload sizes above this land in the last bin (segments never exceed
// the 1448-byte MSS, so the clamp is a guard, not a truncation).
constexpr std::size_t kSizeBins = 2049;

// One shard's outside-in measurements. Each slot is written only by the
// worker running that shard; the coordinator reads after run() returns.
struct ShardTrace {
  std::int64_t before_ns = 0;
  std::int64_t after_ns = 0;
  std::int64_t gfw_ns = 0;
  std::uint64_t segments = 0;
  std::uint64_t data_segments = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t in_flight_max = 0;
  std::int64_t worker = 0;  // thread id (threads) or process id (workers)
};

// Anonymous MAP_SHARED memory: survives fork, so DistRunner workers write
// into the same pages the coordinator reads.
class SharedArena {
 public:
  explicit SharedArena(std::size_t bytes) : bytes_(bytes) {
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("gfw_bench: mmap failed");
    base_ = static_cast<std::uint8_t*>(p);
  }
  ~SharedArena() { ::munmap(base_, bytes_); }
  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;

  std::uint8_t* data() const { return base_; }

 private:
  std::size_t bytes_;
  std::uint8_t* base_ = nullptr;
};

struct TraceBuffers {
  TraceBuffers(std::size_t shards, std::size_t ciphers)
      : arena(shards * sizeof(ShardTrace) + ciphers * kSizeBins * sizeof(std::uint64_t)),
        shard(reinterpret_cast<ShardTrace*>(arena.data())),
        sizes(reinterpret_cast<std::uint64_t*>(arena.data() +
                                               shards * sizeof(ShardTrace))) {
    for (std::size_t i = 0; i < shards; ++i) new (&shard[i]) ShardTrace{};
  }

  SharedArena arena;  // zero-filled by mmap
  ShardTrace* shard;
  // [cipher index in proxy::all_ciphers()][payload size] -> segments
  std::uint64_t* sizes;
};

int cipher_index(const std::string& name) {
  const auto& all = proxy::all_ciphers();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

// Takes the GFW's place in the network's middlebox chain and forwards
// every segment to Gfw::on_segment, timing the call.
class TimedGfw final : public net::Middlebox {
 public:
  TimedGfw(gfw::World& world, ShardTrace& slot)
      : world_(world), slot_(slot),
        sizes_(proxy::all_ciphers().size() * kSizeBins, 0) {
    const gfw::Scenario& scenario = world.scenario();
    for (std::size_t i = 0; i < world.fleet_size(); ++i) {
      const std::string& cipher = scenario.fleet.empty()
                                      ? scenario.server.cipher
                                      : scenario.fleet[i].server.cipher;
      servers_.push_back({world.server_endpoint(i), cipher_index(cipher)});
    }
  }

  net::Verdict on_segment(const net::Segment& segment) override {
    const std::int64_t start = mono_ns();
    const net::Verdict verdict = world_.gfw().on_segment(segment);
    slot_.gfw_ns += mono_ns() - start;
    ++slot_.segments;
    slot_.pending_max = std::max<std::uint64_t>(slot_.pending_max, world_.loop().pending());
    slot_.in_flight_max =
        std::max<std::uint64_t>(slot_.in_flight_max, world_.network().segments_in_flight());
    if (segment.is_data()) {
      const std::size_t size = segment.payload.size();
      ++slot_.data_segments;
      slot_.data_bytes += size;
      for (const auto& [endpoint, cipher] : servers_) {
        if (cipher >= 0 && (segment.src == endpoint || segment.dst == endpoint)) {
          ++sizes_[static_cast<std::size_t>(cipher) * kSizeBins +
                   std::min(size, kSizeBins - 1)];
          break;
        }
      }
    }
    return verdict;
  }

  // Adds this shard's size histogram into the shared one.
  void flush(std::uint64_t* shared) const {
    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      if (sizes_[i] != 0) __atomic_fetch_add(&shared[i], sizes_[i], __ATOMIC_RELAXED);
    }
  }

 private:
  gfw::World& world_;
  ShardTrace& slot_;
  std::vector<std::pair<net::Endpoint, int>> servers_;
  std::vector<std::uint64_t> sizes_;
};

// ---- Process accounting ----------------------------------------------------

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

double peak_rss_mib() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// ---- Options ---------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool seed_given = false;
  int reps = 5;
  double seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
  std::string json;
  Scale scale = Scale::kFull;
  unsigned parallel = 0;  // 0 = the workload's own default
  std::string tmpdir = ".";
  std::string expect_digest;
};

[[noreturn]] void usage(int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: gfw_bench --workload NAME [--seed S] [--reps N] [--seconds S]\n"
        "                 [--trace] [--json PATH] [--scale full|smoke]\n"
        "                 [--parallel N] [--tmpdir DIR] [--expect-digest HEX]\n"
        "                 [--setup-only]\n"
        "workloads:";
  for (const Workload& w : kWorkloads) os << " " << w.name;
  os << "\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  const auto number = [&](int& i) {
    const std::string text = value(i);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || *end != '\0') usage(2);
    return static_cast<std::uint64_t>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--workload") {
      o.workload = find_workload(value(i));
      if (o.workload == nullptr) usage(2);
    } else if (arg == "--seed") {
      o.seed = number(i);
      o.seed_given = true;
    } else if (arg == "--reps") {
      o.reps = static_cast<int>(number(i));
      if (o.reps < 1 || o.reps > 1000) usage(2);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value(i).c_str(), nullptr);
      if (!(o.seconds >= 0.0 && o.seconds <= 3600.0)) usage(2);
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--json") {
      o.json = value(i);
    } else if (arg == "--scale") {
      const std::string scale = value(i);
      if (scale == "full") {
        o.scale = Scale::kFull;
      } else if (scale == "smoke") {
        o.scale = Scale::kSmoke;
      } else {
        usage(2);
      }
    } else if (arg == "--parallel") {
      o.parallel = static_cast<unsigned>(number(i));
      if (o.parallel < 1 || o.parallel > 64) usage(2);
    } else if (arg == "--tmpdir") {
      o.tmpdir = value(i);
    } else if (arg == "--expect-digest") {
      o.expect_digest = value(i);
    } else {
      std::cerr << "gfw_bench: unknown option " << arg << "\n";
      usage(2);
    }
  }
  if (o.workload == nullptr) usage(2);
  if (!o.seed_given) o.seed = o.workload->default_seed;
  return o;
}

// ---- One campaign ----------------------------------------------------------

struct Plan {
  const Workload* workload;
  gfw::Scenario scenario;
  std::uint32_t shards;
  unsigned parallel;
  std::string journal_prefix;  // DistRunner slot journals
};

Plan make_plan(const Options& o) {
  const Workload& w = *o.workload;
  Plan plan{&w, w.scenario(), 0, 0, ""};
  const bool smoke = o.scale == Scale::kSmoke;
  plan.scenario.duration = net::hours(smoke ? w.smoke_hours : w.hours);
  plan.scenario.base_seed = o.seed;
  plan.shards = smoke ? w.smoke_shards : w.shards;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  plan.parallel = o.parallel != 0 ? o.parallel : std::min(w.lanes, nproc);
  plan.journal_prefix = o.tmpdir + "/" + std::string(w.name) + ".journal";
  return plan;
}

struct Hooks {
  gfw::ShardHook before;
  gfw::ShardHook after;
  int shard_retries = 1;
  const std::atomic<int>* interrupt = nullptr;
};

gfw::CampaignResult run_campaign(const Plan& plan, const Hooks& hooks) {
  if (plan.workload->dist) {
    gfw::DistRunnerOptions options;
    options.shards = plan.shards;
    options.workers = plan.parallel;
    options.shard_retries = hooks.shard_retries;
    // Journals live in the benchmark's own directory: the trace reads
    // them back, and the benchmark writes nowhere else.
    options.journal_prefix = plan.journal_prefix;
    gfw::DistRunner runner(options);
    runner.set_before_run(hooks.before);
    runner.set_after_run(hooks.after);
    return runner.run(plan.scenario);
  }
  gfw::ShardedRunnerOptions options(plan.shards, plan.parallel);
  options.shard_retries = hooks.shard_retries;
  options.interrupt = hooks.interrupt;
  gfw::ShardedRunner runner(options);
  runner.set_before_run(hooks.before);
  runner.set_after_run(hooks.after);
  return runner.run(plan.scenario);
}

void remove_journals(const Plan& plan) {
  for (unsigned slot = 0; slot < plan.parallel; ++slot) {
    std::remove((plan.journal_prefix + ".worker" + std::to_string(slot)).c_str());
  }
}

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t payload_bytes = 0;
  std::string digest;
  std::size_t failures = 0;
  std::string problem;  // empty when the rep passed its checks
  gfw::CampaignResult result;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

Rep run_rep(const Plan& plan, const Hooks& hooks) {
  Rep rep;
  const double cpu0 = cpu_seconds();
  rep.start_ns = mono_ns();
  rep.result = run_campaign(plan, hooks);
  rep.end_ns = mono_ns();
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.wall_s = static_cast<double>(rep.end_ns - rep.start_ns) / 1e9;
  rep.payload_bytes = rep.result.payload_bytes_delivered();
  rep.digest = campaign_digest(rep.result);
  rep.failures = rep.result.failures.size();
  if (rep.failures != 0) {
    rep.problem = gfw::describe(rep.result.failures.front());
  } else if (!rep.result.complete() || rep.result.shards.size() != plan.shards) {
    rep.problem = "campaign incomplete";
  } else if (rep.result.interrupted) {
    rep.problem = "campaign interrupted";
  } else if (!rep.result.teardown_clean()) {
    rep.problem = "teardown not clean: " + rep.result.teardown_failures();
  } else if (rep.payload_bytes == 0) {
    rep.problem = "no payload delivered";
  }
  return rep;
}

// ---- Traced rep ------------------------------------------------------------

struct ReplayResult {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  bool ok = true;
};

// Seals and opens one payload per observed data segment, sized as
// observed, with the cipher of the server on that segment's path.
ReplayResult replay_crypto(const std::uint64_t* sizes) {
  ReplayResult out;
  Bytes plain(kSizeBins);
  for (std::size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<std::uint8_t>(i * 31);
  const auto& ciphers = proxy::all_ciphers();
  const std::int64_t start = mono_ns();
  for (std::size_t c = 0; c < ciphers.size(); ++c) {
    const std::uint64_t* row = sizes + c * kSizeBins;
    if (std::all_of(row, row + kSizeBins, [](std::uint64_t n) { return n == 0; })) continue;
    const proxy::CipherSpec& spec = *ciphers[c];
    const Bytes iv(spec.iv_len, 0x5a);
    if (spec.kind == proxy::CipherKind::kAead) {
      const Bytes key = proxy::aead_master_key(spec, "gfw_bench");
      proxy::AeadChunkWriter writer(spec, key, iv);
      proxy::AeadChunkReader reader(spec, key);
      Bytes opened;
      reader.feed(iv, opened);
      for (std::size_t size = 1; size < kSizeBins; ++size) {
        for (std::uint64_t k = 0; k < row[size]; ++k) {
          const Bytes sealed = writer.encode(ByteSpan(plain.data(), size));
          opened.clear();
          out.ok &= reader.feed(sealed, opened) == proxy::AeadChunkReader::Status::kData &&
                    opened.size() == size;
          out.bytes += size;
        }
      }
    } else {
      const Bytes key = proxy::stream_master_key(spec, "gfw_bench");
      proxy::StreamSession encrypt(spec, key, iv, proxy::StreamSession::Direction::kEncrypt);
      proxy::StreamSession decrypt(spec, key, iv, proxy::StreamSession::Direction::kDecrypt);
      for (std::size_t size = 1; size < kSizeBins; ++size) {
        for (std::uint64_t k = 0; k < row[size]; ++k) {
          const Bytes opened = decrypt.process(encrypt.process(ByteSpan(plain.data(), size)));
          out.ok &= opened.size() == size && opened[size - 1] == plain[size - 1];
          out.bytes += size;
        }
      }
    }
  }
  out.seconds = static_cast<double>(mono_ns() - start) / 1e9;
  return out;
}

gfw::ProbeLog shard_log(const gfw::CampaignResult& result, const gfw::ShardSummary& shard) {
  const auto first =
      result.log.records().begin() + static_cast<std::ptrdiff_t>(shard.log_offset);
  gfw::ProbeLog log;
  log.assign(std::vector<gfw::ProbeRecord>(
      first, first + static_cast<std::ptrdiff_t>(shard.probes)));
  return log;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Metrics = std::vector<std::pair<std::string, double>>;

// Runs the traced rep and derives every per-layer metric from it except
// trace.overhead, which needs the untraced reps (see run()).
Metrics traced_rep(const Plan& plan, Rep& rep, std::string& problem) {
  TraceBuffers trace(plan.shards, proxy::all_ciphers().size());
  std::vector<std::unique_ptr<TimedGfw>> wrappers(plan.shards);
  const bool dist = plan.workload->dist;

  Hooks hooks;
  hooks.before = [&](gfw::World& world, std::uint32_t shard) {
    ShardTrace& slot = trace.shard[shard];
    slot = ShardTrace{};
    slot.worker = dist ? static_cast<std::int64_t>(::getpid())
                       : static_cast<std::int64_t>(::syscall(SYS_gettid));
    wrappers[shard] = std::make_unique<TimedGfw>(world, slot);
    world.network().remove_middlebox(&world.gfw());
    world.network().add_middlebox(wrappers[shard].get());
    slot.before_ns = mono_ns();
  };
  hooks.after = [&](gfw::World& world, std::uint32_t shard) {
    ShardTrace& slot = trace.shard[shard];
    slot.after_ns = mono_ns();
    slot.events = world.loop().events_processed();
    world.network().remove_middlebox(wrappers[shard].get());
    world.network().add_middlebox(&world.gfw());
    wrappers[shard]->flush(trace.sizes);
    wrappers[shard].reset();
  };
  rep = run_rep(plan, hooks);
  const gfw::CampaignResult& result = rep.result;

  Metrics m;
  const auto put = [&m](const char* name, double v) { m.emplace_back(name, v); };

  // GFW, event loop, runner: from the per-shard slots.
  double busy_ns = 0.0, max_busy = 0.0, gfw_ns = 0.0;
  double segments = 0.0, data_segments = 0.0, data_bytes = 0.0, events = 0.0;
  double pending_max = 0.0, in_flight_max = 0.0;
  std::int64_t last_after = rep.start_ns;
  std::map<std::int64_t, std::vector<const ShardTrace*>> by_worker;
  for (std::uint32_t s = 0; s < plan.shards; ++s) {
    const ShardTrace& t = trace.shard[s];
    const double busy = static_cast<double>(t.after_ns - t.before_ns);
    busy_ns += busy;
    max_busy = std::max(max_busy, busy);
    gfw_ns += static_cast<double>(t.gfw_ns);
    segments += static_cast<double>(t.segments);
    data_segments += static_cast<double>(t.data_segments);
    data_bytes += static_cast<double>(t.data_bytes);
    events += static_cast<double>(t.events);
    pending_max = std::max(pending_max, static_cast<double>(t.pending_max));
    in_flight_max = std::max(in_flight_max, static_cast<double>(t.in_flight_max));
    last_after = std::max(last_after, t.after_ns);
    by_worker[t.worker].push_back(&t);
  }
  // Time each worker spent between shards: from the run's start (or its
  // previous shard's after hook) to the next shard's before hook. That is
  // World construction, summary harvest and journal writes.
  double fixed_ns = 0.0;
  for (auto& [worker, spans] : by_worker) {
    std::sort(spans.begin(), spans.end(),
              [](const ShardTrace* a, const ShardTrace* b) { return a->before_ns < b->before_ns; });
    std::int64_t previous = rep.start_ns;
    for (const ShardTrace* t : spans) {
      fixed_ns += static_cast<double>(t->before_ns - previous);
      previous = t->after_ns;
    }
  }
  const double wall_ns = static_cast<double>(rep.end_ns - rep.start_ns);
  const double lanes = std::min<double>(plan.parallel, plan.shards);
  const double shards = plan.shards;

  put("gfw.on_segment_ns", gfw_ns / std::max(1.0, segments));
  put("gfw.on_segment_share", gfw_ns / busy_ns);
  put("gfw.segments", segments);
  put("gfw.probes", static_cast<double>(result.log.size()));
  double probe_retries = 0.0, transmitted = 0.0, retransmissions = 0.0, drops = 0.0;
  for (const gfw::ShardSummary& s : result.shards) {
    probe_retries += static_cast<double>(s.probe_connect_retries);
    transmitted += static_cast<double>(s.segments_transmitted);
    retransmissions += static_cast<double>(s.retransmissions);
    drops += static_cast<double>(s.segments_dropped_middlebox + s.segments_dropped_loss +
                                 s.segments_dropped_outage +
                                 s.resources.queue_overflow_drops);
  }
  put("gfw.probe_connect_retries", probe_retries);

  const ReplayResult replay = replay_crypto(trace.sizes);
  if (!replay.ok) problem = "crypto replay failed to round-trip";
  put("crypto.replay_s", replay.seconds);
  put("crypto.replay_MBps", static_cast<double>(replay.bytes) / replay.seconds / 1e6);
  put("crypto.share", replay.seconds * 1e9 / busy_ns);

  put("loop.events", events);
  put("loop.ns_per_event", busy_ns / std::max(1.0, events));
  put("loop.pending_max", pending_max);

  put("net.segments", transmitted);
  put("net.payload_bytes", static_cast<double>(result.payload_bytes_delivered()));
  put("net.mean_payload_B", data_bytes / std::max(1.0, data_segments));
  put("net.retransmissions", retransmissions);
  put("net.retx_share", retransmissions / std::max(1.0, transmitted));
  put("net.drops", drops);
  put("net.in_flight_max", in_flight_max);

  put("runner.idle_share", (lanes * wall_ns - busy_ns) / (lanes * wall_ns));
  put("runner.imbalance", max_busy / (busy_ns / shards));
  put("runner.fixed_ms_per_shard", fixed_ns / shards / 1e6);
  put("runner.merge_ms", static_cast<double>(rep.end_ns - last_after) / 1e6);

  // Checkpoint layer: the public frame codec over the merged shards, and
  // load_checkpoint over the rep's journals. Threaded runs keep no
  // journal, so the benchmark writes one with CheckpointWriter.
  std::vector<gfw::ProbeLog> slices;
  for (const gfw::ShardSummary& s : result.shards) slices.push_back(shard_log(result, s));
  std::vector<std::string> journals;
  if (dist) {
    for (unsigned slot = 0; slot < plan.parallel; ++slot) {
      journals.push_back(plan.journal_prefix + ".worker" + std::to_string(slot));
    }
  } else {
    journals.push_back(plan.journal_prefix);
    gfw::CheckpointWriter writer(
        plan.journal_prefix,
        gfw::CheckpointHeader{gfw::kCheckpointVersion, plan.shards, plan.scenario.base_seed,
                              gfw::scenario_fingerprint(plan.scenario)},
        /*append=*/false);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      writer.append_shard(result.shards[i], slices[i]);
    }
  }
  std::int64_t start = mono_ns();
  std::uint64_t encoded = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const gfw::ShardSummary& s = result.shards[i];
    encoded += gfw::shard_has_fleet_data(s, slices[i])
                   ? gfw::serialize_shard_fleet(s, slices[i]).size()
                   : gfw::serialize_shard(s, slices[i]).size();
  }
  const double encode_ms = static_cast<double>(mono_ns() - start) / 1e6;
  std::size_t loaded = 0;
  start = mono_ns();
  for (const std::string& path : journals) loaded += gfw::load_checkpoint(path).shards.size();
  const double load_ms = static_cast<double>(mono_ns() - start) / 1e6;
  std::uint64_t journal_bytes = 0;
  for (const std::string& path : journals) journal_bytes += std::filesystem::file_size(path);
  if (loaded != plan.shards || encoded == 0) problem = "checkpoint journals incomplete";
  if (!dist) std::remove(plan.journal_prefix.c_str());
  put("checkpoint.bytes", static_cast<double>(journal_bytes));
  put("checkpoint.encode_ms", encode_ms);
  put("checkpoint.load_ms", load_ms);
  put("dist.heartbeat_retries", static_cast<double>(result.worker_heartbeat_retries));
  put("dist.journal_retries", static_cast<double>(result.worker_journal_retries));

  put("trace.unattributed_share", 1.0 - (gfw_ns + replay.seconds * 1e9) / busy_ns);
  return m;
}

// ---- Set-up probe ----------------------------------------------------------

struct SetupProbeDone : std::runtime_error {
  SetupProbeDone() : std::runtime_error("set-up probe: first World built") {}
};

// The steady-clock instant (CLOCK_MONOTONIC, shared with the launching
// process) at which the first shard's World is built. The hook stops
// every shard right there, so the process does no campaign work; run.py
// subtracts the instant it launched this process.
std::int64_t first_world_ns(const Plan& plan) {
  SharedArena arena(sizeof(std::int64_t));
  auto* first = reinterpret_cast<std::int64_t*>(arena.data());
  std::atomic<int> stop{0};
  Hooks hooks;
  hooks.shard_retries = 0;
  hooks.interrupt = &stop;
  hooks.before = [&](gfw::World&, std::uint32_t) {
    std::int64_t expected = 0;
    __atomic_compare_exchange_n(first, &expected, mono_ns(), false, __ATOMIC_SEQ_CST,
                                __ATOMIC_SEQ_CST);
    stop.store(1);
    throw SetupProbeDone();
  };
  run_campaign(plan, hooks);
  remove_journals(plan);
  if (*first == 0) throw std::runtime_error("set-up probe: no shard was started");
  return *first;
}

// ---- Output ----------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string json_object(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].first) + ": " +
           json_number(metrics[i].second);
  }
  return out + "}";
}

std::string environment_json(const Plan& plan) {
  const crypto::KernelTiers tiers = crypto::active_kernel_tiers();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"runner\": " << json_string(plan.workload->dist ? "DistRunner" : "ShardedRunner")
     << ", \"" << (plan.workload->dist ? "workers" : "threads") << "\": " << plan.parallel
     << ", \"shards\": " << plan.shards
     << ", \"sim_hours_per_shard\": " << net::to_hours(plan.scenario.duration)
     << ", \"cpu_features\": " << json_string(crypto::cpu_feature_string())
     << ", \"kernel_tiers\": {\"aes\": " << json_string(crypto::tier_name(tiers.aes))
     << ", \"ghash\": " << json_string(crypto::tier_name(tiers.ghash))
     << ", \"chacha\": " << json_string(crypto::tier_name(tiers.chacha))
     << ", \"poly1305\": " << json_string(crypto::tier_name(tiers.poly1305)) << "}"
     << ", \"build_type\": " << json_string(GFW_BENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(GFW_BENCH_COMPILER) << "}";
  return os.str();
}

void write_output(const Options& o, const std::string& body) {
  if (o.json.empty()) {
    std::cout << body;
    return;
  }
  std::ofstream out(o.json);
  out << body;
  if (!out) throw std::runtime_error("gfw_bench: cannot write " + o.json);
}

int run(const Options& o) {
  const Plan plan = make_plan(o);
  std::filesystem::create_directories(o.tmpdir);

  if (o.setup_only) {
    write_output(o, "{\"workload\": " + json_string(plan.workload->name) +
                        ", \"first_world_ns\": " + std::to_string(first_world_ns(plan)) +
                        "}\n");
    return 0;
  }

  std::vector<std::string> problems;
  const auto check = [&](const Rep& rep, const char* what) {
    if (!rep.problem.empty()) problems.push_back(std::string(what) + ": " + rep.problem);
  };

  const Rep warmup = run_rep(plan, Hooks{});
  check(warmup, "warm-up rep");
  const std::string digest = warmup.digest;
  std::cout << plan.workload->name << " seed " << o.seed << ": warm-up " << warmup.wall_s
            << " s, digest " << digest << "\n";

  std::vector<double> wall, cpu, goodput;
  std::size_t failures = warmup.failures;
  // Taken after the warm-up and the first timed rep, not at exit:
  // resident memory keeps growing with every campaign a process runs
  // (README.md), so a peak over a time-bounded number of reps would
  // measure the machine's speed.
  double peak_rss = 0.0;
  Metrics per_layer;
  Rep traced;
  std::string trace_problem;
  bool trace_pending = o.trace;
  const std::int64_t timed_start = mono_ns();
  const auto elapsed_s = [&] { return static_cast<double>(mono_ns() - timed_start) / 1e9; };
  while (static_cast<int>(wall.size()) < o.reps || elapsed_s() < o.seconds) {
    // The traced rep runs halfway through the timed ones, so the untraced
    // median it is compared with brackets it in time: a machine that
    // slows down or speeds up over the run does not read as overhead.
    if (trace_pending && 2 * static_cast<int>(wall.size()) >= o.reps &&
        2 * elapsed_s() >= o.seconds) {
      per_layer = traced_rep(plan, traced, trace_problem);
      trace_pending = false;
      continue;
    }
    const Rep rep = run_rep(plan, Hooks{});
    check(rep, "timed rep");
    if (rep.digest != digest) problems.push_back("timed rep digest " + rep.digest + " differs");
    failures += rep.failures;
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    goodput.push_back(static_cast<double>(rep.payload_bytes) / rep.wall_s / 1e6);
    if (wall.size() == 1) peak_rss = peak_rss_mib();
    std::cout << "  rep " << wall.size() << ": " << rep.wall_s << " s wall, " << rep.cpu_s
              << " s cpu, " << goodput.back() << " MB/s\n";
  }

  if (trace_pending) per_layer = traced_rep(plan, traced, trace_problem);
  if (o.trace) {
    per_layer.emplace_back("trace.overhead", traced.wall_s / median(wall) - 1.0);
    check(traced, "traced rep");
    if (!trace_problem.empty()) problems.push_back("traced rep: " + trace_problem);
    if (traced.digest != digest) {
      problems.push_back("traced rep digest " + traced.digest + " differs");
    }
    failures += traced.failures;
  }
  remove_journals(plan);

  if (!o.expect_digest.empty() && o.expect_digest != digest) {
    problems.push_back("digest " + digest + " != golden " + o.expect_digest);
  }
  for (const std::string& p : problems) std::cerr << "gfw_bench: FAIL " << p << "\n";

  const Metrics end_to_end = {{"goodput_MBps", median(goodput)},
                              {"cpu_s", median(cpu)},
                              {"peak_rss_mb", peak_rss}};
  const std::size_t reps_run = wall.size() + 1 + (o.trace ? 1 : 0);
  std::ostringstream os;
  os << "{\"workload\": " << json_string(plan.workload->name) << ", \"seed\": " << o.seed
     << ", \"scale\": " << json_string(o.scale == Scale::kSmoke ? "smoke" : "full")
     << ", \"digest\": " << json_string(digest)
     << ", \"golden\": " << json_string(o.expect_digest.empty() ? "none" : "checked")
     << ", \"correct\": " << (problems.empty() ? "true" : "false")
     << ", \"shards_attempted\": " << reps_run * plan.shards
     << ", \"shards_failed\": " << failures
     << ", \"env\": " << environment_json(plan)
     << ", \"reps\": {\"warmup_wall_s\": " << json_number(warmup.wall_s)
     << ", \"wall_s\": " << json_array(wall) << ", \"cpu_s\": " << json_array(cpu)
     << ", \"goodput_MBps\": " << json_array(goodput) << "}"
     << ", \"end_to_end\": " << json_object(end_to_end)
     << ", \"per_layer\": " << json_object(per_layer) << "}\n";
  write_output(o, os.str());
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "gfw_bench: built without optimisation (" << GFW_BENCH_BUILD_TYPE
            << "); refusing to report timings\n";
  return 3;
#endif
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "gfw_bench: " << error.what() << "\n";
    return 1;
  }
}
