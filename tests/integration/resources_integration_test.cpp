// Resource governance end to end: an armed governor that never breaches
// is behavior-neutral, backpressure (probe admission caps, per-path
// queue caps) sheds deterministically — bit-identically for any thread
// or worker count — and an actually-breached budget degrades through the
// supervision ladder as a structured kResource quarantine, never a
// crash. OS-level enforcement (DistRunner rlimits, SIGXCPU attribution)
// rides the same taxonomy.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/sha1.h"
#include "gfw/checkpoint.h"
#include "gfw/dist_runner.h"
#include "gfw/runner.h"

namespace gfwsim {
namespace {

// The transcript-equivalence scenario shape: modest but busy enough that
// every metered allocator (payload bytes, timers, map slots, ARQ rings,
// probe records) sees real traffic in every shard.
gfw::Scenario base_scenario() {
  gfw::Scenario scenario;
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.3;
  scenario.base_seed = 0x601DE2;
  return scenario;
}

gfw::CampaignResult run(const gfw::Scenario& scenario, std::uint32_t shards,
                        unsigned threads) {
  return gfw::ShardedRunner(gfw::ShardedRunnerOptions(shards, threads))
      .run(scenario);
}

// SHA-1 over each shard's frame, which carries its probe records and its
// resource verdict: equality means both the simulation transcript AND
// the shed accounting are bit-identical.
std::string digest(const gfw::CampaignResult& result) {
  crypto::Sha1 hash;
  for (const auto& shard : result.shards) {
    gfw::ProbeLog slice;
    std::vector<gfw::ProbeRecord> records(
        result.log.records().begin() +
            static_cast<std::ptrdiff_t>(shard.log_offset),
        result.log.records().begin() +
            static_cast<std::ptrdiff_t>(shard.log_offset + shard.probes));
    slice.assign(std::move(records));
    hash.update(gfw::serialize_shard(shard, slice));
  }
  const auto bytes = hash.finish();
  return hex_encode(ByteSpan(bytes.data(), bytes.size()));
}

TEST(ResourceGovernance, ArmedButUnbreachedGovernorIsBehaviorNeutral) {
  // Zero-budget inertness is pinned byte-exactly by the golden digests
  // in transcript_equivalence_test and checkpoint_test. This is the next
  // level up: ARM the governor with budgets far above what the campaign
  // needs, and the transcript must still be identical to the disarmed
  // run — metering observes, it never perturbs. The armed run proves it
  // actually metered (nonzero peaks) rather than short-circuiting.
  const gfw::Scenario disarmed = base_scenario();
  gfw::Scenario armed = base_scenario();
  armed.resources.limits.total_bytes = 1ull << 40;  // 1 TiB: unreachable

  const gfw::CampaignResult baseline = run(disarmed, 2, 2);
  const gfw::CampaignResult governed = run(armed, 2, 2);

  ASSERT_EQ(governed.shards.size(), baseline.shards.size());
  EXPECT_TRUE(governed.failures.empty());
  EXPECT_EQ(governed.log.size(), baseline.log.size());
  for (std::size_t i = 0; i < baseline.shards.size(); ++i) {
    // Transcript fields agree shard by shard...
    EXPECT_EQ(governed.shards[i].probes, baseline.shards[i].probes);
    EXPECT_EQ(governed.shards[i].segments_transmitted,
              baseline.shards[i].segments_transmitted);
    EXPECT_EQ(governed.shards[i].payload_bytes_delivered,
              baseline.shards[i].payload_bytes_delivered);
    // ...and the armed shard really metered.
    EXPECT_GT(governed.shards[i].resources.peak_metered_bytes, 0u);
    EXPECT_GT(governed.shards[i].resources.acquisitions, 0u);
    EXPECT_FALSE(baseline.shards[i].resources.any());
  }
  EXPECT_EQ(governed.totals().resources.probes_shed, 0u);
  EXPECT_EQ(governed.totals().resources.queue_overflow_drops, 0u);
  EXPECT_GT(governed.totals().resources.peak_metered_bytes, 0u);
}

TEST(ResourceGovernance, ShedCountsAreBitIdenticalForAnyThreadCount) {
  // A tight admission cap forces real backpressure: probes defer into
  // the FIFO and overflow is shed. The shed policy lives entirely inside
  // one shard's deterministic event order, so counts — per shard and per
  // server — cannot depend on how shards are scheduled onto threads.
  gfw::Scenario scenario = base_scenario();
  scenario.resources.probe_queue_cap = 1;

  const gfw::CampaignResult serial = run(scenario, 4, 1);
  const gfw::CampaignResult parallel = run(scenario, 4, 4);

  // Backpressure actually engaged somewhere in the campaign.
  EXPECT_GT(serial.totals().resources.probes_deferred + serial.totals().resources.probes_shed, 0u);

  ASSERT_EQ(serial.shards.size(), parallel.shards.size());
  for (std::size_t i = 0; i < serial.shards.size(); ++i) {
    const gfw::ShardResources& a = serial.shards[i].resources;
    const gfw::ShardResources& b = parallel.shards[i].resources;
    EXPECT_EQ(a.probes_shed, b.probes_shed) << "shard " << i;
    EXPECT_EQ(a.probes_deferred, b.probes_deferred) << "shard " << i;
    ASSERT_EQ(a.sheds.size(), b.sheds.size()) << "shard " << i;
    for (std::size_t s = 0; s < a.sheds.size(); ++s) {
      EXPECT_EQ(a.sheds[s].server_id, b.sheds[s].server_id);
      EXPECT_EQ(a.sheds[s].region, b.sheds[s].region);
      EXPECT_EQ(a.sheds[s].count, b.sheds[s].count);
    }
  }
  EXPECT_EQ(digest(serial), digest(parallel));
}

TEST(ResourceGovernance, ShedCountsAreBitIdenticalForAnyWorkerCount) {
  // Same contract across the process boundary: forked workers journal
  // their resource verdicts inside their shard frames, and the gathered
  // merge must match the threaded run exactly — counters included.
  gfw::Scenario scenario = base_scenario();
  scenario.resources.probe_queue_cap = 1;

  const gfw::CampaignResult threaded = run(scenario, 4, 2);

  gfw::DistRunnerOptions solo;
  solo.shards = 4;
  solo.workers = 1;
  const gfw::CampaignResult one = gfw::DistRunner(solo).run(scenario);

  gfw::DistRunnerOptions spread;
  spread.shards = 4;
  spread.workers = 4;
  const gfw::CampaignResult four = gfw::DistRunner(spread).run(scenario);

  EXPECT_TRUE(one.complete());
  EXPECT_TRUE(four.complete());
  EXPECT_EQ(digest(one), digest(threaded));
  EXPECT_EQ(digest(four), digest(threaded));
  EXPECT_EQ(one.totals().resources.probes_shed, threaded.totals().resources.probes_shed);
  EXPECT_EQ(four.totals().resources.probes_deferred, threaded.totals().resources.probes_deferred);
}

TEST(ResourceGovernance, BreachedBudgetQuarantinesTheShardNeverTheCampaign) {
  // Self-calibrating breach: measure each shard's probe-record usage
  // clean, then cap the budget just under the hungriest shard's usage.
  // Exactly the shards that exceed the cap breach — deterministically,
  // on retry too — and are quarantined as kResource while the survivors
  // merge bit-identically to their clean-run selves.
  const gfw::Scenario clean = base_scenario();
  const gfw::CampaignResult baseline = run(clean, 4, 2);
  ASSERT_EQ(baseline.shards.size(), 4u);
  std::vector<std::uint64_t> probes;
  for (const auto& shard : baseline.shards) probes.push_back(shard.probes);
  const std::uint64_t max_probes = *std::max_element(probes.begin(), probes.end());
  ASSERT_GT(max_probes, 1u);
  const std::uint64_t cap = max_probes - 1;
  const std::size_t expected_breaches = static_cast<std::size_t>(
      std::count_if(probes.begin(), probes.end(),
                    [cap](std::uint64_t p) { return p > cap; }));
  ASSERT_GE(expected_breaches, 1u);
  ASSERT_LT(expected_breaches, probes.size()) << "need survivors";

  gfw::Scenario budgeted = clean;
  budgeted.resources.limits
      .unit_caps[static_cast<std::size_t>(net::ResourceKind::kProbeRecords)] =
      cap;
  const gfw::CampaignResult governed = run(budgeted, 4, 2);

  // Never a crash: the campaign returned, with the breaching shards
  // quarantined through the ladder and everything else merged.
  EXPECT_FALSE(governed.complete());
  EXPECT_EQ(governed.shards_quarantined(), expected_breaches);
  EXPECT_EQ(governed.resource_failures(), expected_breaches);
  ASSERT_EQ(governed.shards.size(), probes.size() - expected_breaches);
  for (const auto& failure : governed.failures) {
    EXPECT_EQ(failure.kind, gfw::FailureKind::kResource);
    EXPECT_TRUE(failure.quarantined);
    // A budget breach is deterministic, so the retry hit it too and the
    // verdict must NOT be flagged nondeterministic.
    EXPECT_FALSE(failure.nondeterministic);
    EXPECT_NE(failure.what.find("probe-records"), std::string::npos)
        << failure.what;
  }
  // Survivors are bit-identical to their clean-run selves.
  for (const auto& shard : governed.shards) {
    EXPECT_EQ(shard.probes, probes[shard.shard_index]);
  }

  // And the whole degraded outcome reproduces across thread counts.
  const gfw::CampaignResult again = run(budgeted, 4, 4);
  EXPECT_EQ(again.shards_quarantined(), governed.shards_quarantined());
  EXPECT_EQ(digest(again), digest(governed));
}

TEST(ResourceGovernance, FailAtInjectionReproducesExactly) {
  // Deterministic injection: every shard's 2000th metered acquisition
  // throws. All shards quarantine (retries burn down on the same
  // breach), the campaign still returns structured results, and two runs
  // agree verdict for verdict.
  gfw::Scenario scenario = base_scenario();
  scenario.resources.limits.fail_at_acquisition = 2000;

  const gfw::CampaignResult first = run(scenario, 2, 1);
  const gfw::CampaignResult second = run(scenario, 2, 2);

  EXPECT_EQ(first.shards_quarantined(), 2u);
  EXPECT_EQ(first.resource_failures(), 2u);
  EXPECT_TRUE(first.shards.empty());
  ASSERT_EQ(second.failures.size(), first.failures.size());
  for (std::size_t i = 0; i < first.failures.size(); ++i) {
    EXPECT_EQ(first.failures[i].shard_index, second.failures[i].shard_index);
    EXPECT_EQ(first.failures[i].kind, gfw::FailureKind::kResource);
    EXPECT_EQ(first.failures[i].what, second.failures[i].what);
  }
}

TEST(ResourceGovernance, PathQueueCapDropsAreDeterministicAndSurvivable) {
  // A per-path in-flight segment cap turns bursts into kQueueOverflow
  // drops. ARQ recovers (the campaign completes with clean teardown);
  // the drop counters are part of the deterministic transcript.
  gfw::Scenario scenario = base_scenario();
  scenario.resources.path_queue_cap = 2;

  const gfw::CampaignResult capped = run(scenario, 2, 1);
  EXPECT_TRUE(capped.complete());
  EXPECT_TRUE(capped.teardown_clean()) << capped.teardown_failures();
  EXPECT_GT(capped.totals().resources.queue_overflow_drops, 0u);

  const gfw::CampaignResult again = run(scenario, 2, 2);
  EXPECT_EQ(again.totals().resources.queue_overflow_drops, capped.totals().resources.queue_overflow_drops);
  EXPECT_EQ(digest(again), digest(capped));
}

TEST(ResourceGovernance, SigxcpuWorkerDeathIsAttributedAsResource) {
  // Deterministic stand-in for a real RLIMIT_CPU kill: the coordinator
  // sends SIGXCPU (the exact signal the kernel raises at the CPU rlimit)
  // to the chaos worker after its first shard start. The death must be
  // attributed as kResource — not an anonymous kCrash — and the
  // replacement worker still completes the campaign.
  gfw::Scenario scenario = base_scenario();
  gfw::DistRunnerOptions options;
  options.shards = 4;
  options.workers = 2;
  options.shard_retries = 1;
  options.chaos_kill_after_shards = 1;
  options.chaos_signal = SIGXCPU;

  const gfw::CampaignResult result = gfw::DistRunner(options).run(scenario);
  EXPECT_TRUE(result.complete());
  ASSERT_EQ(result.shards.size(), 4u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].kind, gfw::FailureKind::kResource);
  EXPECT_FALSE(result.failures[0].quarantined);
  EXPECT_NE(result.failures[0].what.find("RLIMIT_CPU"), std::string::npos)
      << result.failures[0].what;
  EXPECT_EQ(result.resource_failures(), 1u);

  // The recovered merge matches an undisturbed run, resource verdicts
  // included (the replacement re-ran with the same seed).
  gfw::DistRunnerOptions calm;
  calm.shards = 4;
  calm.workers = 2;
  const gfw::CampaignResult reference = gfw::DistRunner(calm).run(scenario);
  EXPECT_EQ(digest(result), digest(reference));
}

// This process's address-space size (VmSize in /proc/self/status), in
// bytes; 0 where it cannot be read. A forked worker starts at this size,
// which is terabytes under AddressSanitizer's shadow mappings.
std::uint64_t address_space_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7)) << 10;
  }
  return 0;
}

TEST(ResourceGovernance, GenerousWorkerRlimitsAreInert) {
  // setrlimit plumbing smoke test: limits far above what the workers
  // need must not perturb the run (and prove the apply path executes in
  // every child without error).
  gfw::Scenario scenario = base_scenario();
  gfw::DistRunnerOptions plain;
  plain.shards = 2;
  plain.workers = 2;
  const gfw::CampaignResult reference = gfw::DistRunner(plain).run(scenario);

  gfw::DistRunnerOptions limited = plain;
  // 8 GiB of address space beyond what the worker inherits at fork.
  limited.worker_rlimit_as = address_space_bytes() + (8ull << 30);
  limited.worker_rlimit_cpu = 600;        // 10 CPU-minutes
  limited.worker_rlimit_nofile = 256;
  const gfw::CampaignResult governed = gfw::DistRunner(limited).run(scenario);

  EXPECT_TRUE(governed.complete());
  EXPECT_TRUE(governed.failures.empty());
  EXPECT_EQ(governed.worker_heartbeats_dropped, 0u);
  EXPECT_EQ(digest(governed), digest(reference));
}

}  // namespace
}  // namespace gfwsim
