// Process-isolated distributed runner: a campaign scattered across
// forked worker processes must survive anything the OS does to a worker
// — SIGKILL, SIGSTOP, a corrupted journal, a process that _Exit()s from
// inside the simulation — and still gather into a merge BIT-IDENTICAL
// to an undisturbed in-process run. Every digest comparison here goes
// through the checkpoint shard codec, so it covers every summary field,
// every per-server row, and every probe record.
//
// Chaos is injected deterministically: the coordinator counts shard
// START announcements and signals the chaos worker after the Nth, so
// the kill site is reproducible rather than racing wall clocks.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha1.h"
#include "gfw/checkpoint.h"
#include "gfw/dist_runner.h"
#include "gfw/runner.h"

namespace gfwsim {
namespace {

// A two-server fleet keeps per-server attribution in play: the merge
// contract has to carry ServerStats rows and server-tagged probe
// records across the process boundary, not just legacy scalars.
gfw::Scenario fleet_scenario() {
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(6);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.3;
  scenario.base_seed = 0x5AA3D;
  gfw::ServerSpec first;
  first.server.impl = probesim::ServerSetup::Impl::kOutline107;
  first.region = "beijing";
  scenario.fleet.push_back(first);
  gfw::ServerSpec second = first;
  second.server.impl = probesim::ServerSetup::Impl::kLibevNew;
  second.server.cipher = "aes-256-gcm";
  second.region = "unicom";
  scenario.fleet.push_back(second);
  return scenario;
}

// Serialized bytes of one shard's full contribution: summary counters
// (events_processed included), teardown, blocking history, server rows,
// resource verdict, and its slice of the merged log. The shard frame
// codec covers every field except log_offset, which legitimately
// differs between partial merges.
Bytes shard_bytes(const gfw::CampaignResult& result,
                  const gfw::ShardSummary& shard) {
  gfw::ProbeLog slice;
  std::vector<gfw::ProbeRecord> records(
      result.log.records().begin() + static_cast<std::ptrdiff_t>(shard.log_offset),
      result.log.records().begin() +
          static_cast<std::ptrdiff_t>(shard.log_offset + shard.probes));
  slice.assign(std::move(records));
  return gfw::serialize_shard(shard, slice);
}

// SHA-1 over every surviving shard, in merge order.
std::string campaign_digest(const gfw::CampaignResult& result) {
  crypto::Sha1 hash;
  for (const auto& shard : result.shards) hash.update(shard_bytes(result, shard));
  const auto digest = hash.finish();
  return hex_encode(ByteSpan(digest.data(), digest.size()));
}

// Per-shard digests, for comparing a partial merge against the matching
// subset of a complete one.
std::map<std::uint32_t, std::string> shard_digests(
    const gfw::CampaignResult& result) {
  std::map<std::uint32_t, std::string> out;
  for (const auto& shard : result.shards) {
    const auto digest = crypto::Sha1::hash(shard_bytes(result, shard));
    out[shard.shard_index] = hex_encode(ByteSpan(digest.data(), digest.size()));
  }
  return out;
}

gfw::CampaignResult in_process_reference(const gfw::Scenario& scenario) {
  return gfw::ShardedRunner(gfw::ShardedRunnerOptions(8, 2)).run(scenario);
}

gfw::DistRunnerOptions dist_options() {
  gfw::DistRunnerOptions options;
  options.shards = 8;
  options.workers = 4;
  options.shard_retries = 1;
  return options;
}

std::string journal_prefix(const std::string& name) {
  return testing::TempDir() + "gfwsim_dist_" + name;
}

void remove_journals(const std::string& prefix, unsigned workers) {
  for (unsigned slot = 0; slot < workers; ++slot) {
    std::remove((prefix + ".worker" + std::to_string(slot)).c_str());
  }
}

TEST(DistRunner, UndisturbedRunMatchesInProcessRunByteForByte) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);
  ASSERT_EQ(reference.shards.size(), 8u);

  const gfw::CampaignResult dist = gfw::DistRunner(dist_options()).run(scenario);
  EXPECT_TRUE(dist.complete());
  EXPECT_TRUE(dist.failures.empty());
  EXPECT_FALSE(dist.interrupted);
  ASSERT_EQ(dist.shards.size(), 8u);
  // Fleet rows made the round trip through the worker journals.
  ASSERT_EQ(dist.shards[0].servers.size(), 2u);
  EXPECT_EQ(dist.shards[0].servers[1].region, "unicom");
  EXPECT_EQ(campaign_digest(dist), campaign_digest(reference));

  // A lone worker (pure containment, no parallelism) merges identically.
  gfw::DistRunnerOptions solo = dist_options();
  solo.workers = 1;
  const gfw::CampaignResult one = gfw::DistRunner(solo).run(scenario);
  EXPECT_EQ(campaign_digest(one), campaign_digest(reference));
}

TEST(DistRunner, GatheredShardsKeepTheirEventCounts) {
  // The event count travels in the shard frame, so a campaign gathered
  // from worker journals reports the engine work its workers did.
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);
  gfw::DistRunnerOptions options = dist_options();
  options.workers = 2;
  const gfw::CampaignResult dist = gfw::DistRunner(options).run(scenario);
  ASSERT_EQ(dist.shards.size(), reference.shards.size());
  EXPECT_GT(reference.totals().events_processed, 0u);
  EXPECT_EQ(dist.totals().events_processed, reference.totals().events_processed);
  for (std::size_t i = 0; i < dist.shards.size(); ++i) {
    EXPECT_EQ(dist.shards[i].events_processed, reference.shards[i].events_processed)
        << "shard " << i;
  }
}

TEST(DistRunner, SigkilledWorkerIsReplacedAndTheMergeIsUndisturbed) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);

  // SIGKILL the chaos worker right after it announces its first shard:
  // no handler runs, no journal flush, the shard dies mid-simulation.
  gfw::DistRunnerOptions options = dist_options();
  options.chaos_kill_after_shards = 1;
  options.chaos_signal = SIGKILL;
  const gfw::CampaignResult chaotic = gfw::DistRunner(options).run(scenario);

  // The replacement worker re-ran the lost shard with the same seed, so
  // the campaign completed and merged bit-identically anyway.
  EXPECT_TRUE(chaotic.complete());
  ASSERT_EQ(chaotic.shards.size(), 8u);
  EXPECT_EQ(campaign_digest(chaotic), campaign_digest(reference));

  // The death is not silent: it is a recovered kCrash failure whose
  // attempt count includes the attempt that died with the process.
  ASSERT_EQ(chaotic.failures.size(), 1u);
  const gfw::ShardFailure& failure = chaotic.failures[0];
  EXPECT_EQ(failure.kind, gfw::FailureKind::kCrash);
  EXPECT_FALSE(failure.quarantined);
  EXPECT_GE(failure.attempts, 2);
  // A process death tells us nothing about seed-determinism.
  EXPECT_FALSE(failure.nondeterministic);
  EXPECT_EQ(failure.seed, gfw::shard_seed(scenario.base_seed, failure.shard_index));
}

TEST(DistRunner, StoppedWorkerIsDeadlinedViaTheSignalLadder) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);

  // SIGSTOP models a wedged-not-dead worker: heartbeats cease but
  // waitpid sees nothing. Only the coordinator's arrival-based stall
  // deadline — SIGTERM, then SIGKILL after the grace — collects it.
  gfw::DistRunnerOptions options = dist_options();
  options.chaos_kill_after_shards = 1;
  options.chaos_signal = SIGSTOP;
  options.stall_timeout = std::chrono::milliseconds(250);
  options.term_grace = std::chrono::milliseconds(100);
  const gfw::CampaignResult chaotic = gfw::DistRunner(options).run(scenario);

  EXPECT_TRUE(chaotic.complete());
  ASSERT_EQ(chaotic.shards.size(), 8u);
  EXPECT_EQ(campaign_digest(chaotic), campaign_digest(reference));
  ASSERT_EQ(chaotic.failures.size(), 1u);
  // The coordinator initiated the kill, so the verdict is a stall — the
  // same taxonomy entry an in-process watchdog abort produces.
  EXPECT_EQ(chaotic.failures[0].kind, gfw::FailureKind::kStall);
  EXPECT_FALSE(chaotic.failures[0].quarantined);
  EXPECT_GE(chaotic.failures[0].attempts, 2);
}

TEST(DistRunner, GracefullyExitingSigtermedWorkerIsReplacedNotAbandoned) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);

  // SIGTERM mid-shard models a ladder rung-1 target that RECOVERS: the
  // handler only sets the stop flag, so the worker finishes and journals
  // its in-flight shard, then exits with the graceful-interrupt code —
  // leaving the rest of its static range undone. The campaign was never
  // interrupted, so the coordinator must fork a replacement for the
  // remainder instead of quarantining it as "lost without a journal
  // record".
  gfw::DistRunnerOptions options = dist_options();
  options.chaos_kill_after_shards = 1;
  options.chaos_signal = SIGTERM;
  const gfw::CampaignResult chaotic = gfw::DistRunner(options).run(scenario);

  EXPECT_TRUE(chaotic.complete());
  EXPECT_FALSE(chaotic.interrupted);
  ASSERT_EQ(chaotic.shards.size(), 8u);
  // The SIGTERMed worker journaled its shard before exiting, so nothing
  // actually failed — and the replacement's re-run merges undisturbed.
  EXPECT_TRUE(chaotic.failures.empty());
  EXPECT_EQ(campaign_digest(chaotic), campaign_digest(reference));
}

TEST(DistRunner, SigstopChaosWithoutAStallDeadlineIsRefused) {
  // Without a heartbeat deadline a stopped worker would hang the
  // campaign forever; the coordinator refuses the configuration rather
  // than deadlocking.
  gfw::DistRunnerOptions options = dist_options();
  options.chaos_kill_after_shards = 1;
  options.chaos_signal = SIGSTOP;
  options.stall_timeout = std::chrono::milliseconds(0);
  EXPECT_THROW(gfw::DistRunner(options).run(fleet_scenario()),
               std::invalid_argument);
}

TEST(DistRunner, ProcessDeathInsideAShardIsQuarantinedGracefully) {
  // debug_fail_shard.die: the injection point _Exit(57)s the whole
  // worker — no unwinding, no journal flush — on EVERY attempt. The
  // retry budget burns down across successive worker corpses, the shard
  // is quarantined, and the survivors still merge bit-identically to
  // their clean-run selves.
  gfw::Scenario scenario = fleet_scenario();
  scenario.debug_fail_shard.enabled = true;
  scenario.debug_fail_shard.shard = 5;
  scenario.debug_fail_shard.after = net::hours(1);
  scenario.debug_fail_shard.fail_attempts = 1 << 20;
  scenario.debug_fail_shard.die = true;

  const gfw::CampaignResult result = gfw::DistRunner(dist_options()).run(scenario);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.shards_quarantined(), 1u);
  ASSERT_EQ(result.shards.size(), 7u);
  ASSERT_EQ(result.failures.size(), 1u);
  const gfw::ShardFailure& failure = result.failures[0];
  EXPECT_EQ(failure.shard_index, 5u);
  EXPECT_TRUE(failure.quarantined);
  EXPECT_EQ(failure.kind, gfw::FailureKind::kExit);
  EXPECT_EQ(failure.attempts, 2);  // initial try + 1 retry, both fatal

  // Graceful degradation: the other seven shards are exactly what an
  // undisturbed in-process run produced for them.
  const gfw::CampaignResult reference = in_process_reference(fleet_scenario());
  const auto clean = shard_digests(reference);
  std::size_t expected_offset = 0;
  for (const auto& shard : result.shards) {
    EXPECT_NE(shard.shard_index, 5u);
    EXPECT_EQ(shard_digests(result).at(shard.shard_index),
              clean.at(shard.shard_index));
    // Survivors tile the merged log contiguously.
    EXPECT_EQ(shard.log_offset, expected_offset);
    expected_offset += shard.probes;
  }
  EXPECT_EQ(expected_offset, result.log.size());
}

TEST(DistRunner, FlakyProcessDeathRecoversWithGlobalAttemptNumbering) {
  // The injection kills the worker on attempt 0 only. The replacement
  // resumes with attempt_base carrying the dead process's attempt, so
  // the retry sees global attempt 1, skips the injection, and completes
  // the shard — proof the retry budget is shared across process corpses.
  gfw::Scenario scenario = fleet_scenario();
  scenario.debug_fail_shard.enabled = true;
  scenario.debug_fail_shard.shard = 5;
  scenario.debug_fail_shard.after = net::hours(1);
  scenario.debug_fail_shard.fail_attempts = 1;
  scenario.debug_fail_shard.die = true;

  const gfw::CampaignResult result = gfw::DistRunner(dist_options()).run(scenario);
  EXPECT_TRUE(result.complete());
  ASSERT_EQ(result.shards.size(), 8u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].shard_index, 5u);
  EXPECT_FALSE(result.failures[0].quarantined);
  EXPECT_EQ(result.failures[0].kind, gfw::FailureKind::kExit);
  EXPECT_EQ(result.failures[0].attempts, 2);

  // The recovered merge equals a run where the injection is armed but
  // never fires — recovery changed nothing in the transcript.
  gfw::Scenario armed = scenario;
  armed.debug_fail_shard.fail_attempts = 0;
  armed.debug_fail_shard.die = false;
  const gfw::CampaignResult reference = in_process_reference(armed);
  EXPECT_EQ(campaign_digest(result), campaign_digest(reference));
}

TEST(DistRunner, ForeignCampaignJournalIsRefusedNotDeleted) {
  // A journal that parses but belongs to another campaign is not this
  // run's to discard: resume throws before any worker forks, and the
  // file survives for its own campaign.
  const gfw::Scenario scenario = fleet_scenario();
  const std::string prefix = journal_prefix("foreign");
  remove_journals(prefix, 4);
  const std::string journal = prefix + ".worker0";
  {
    gfw::CheckpointWriter writer(
        journal,
        {gfw::kCheckpointVersion, 8, scenario.base_seed ^ 1,
         gfw::scenario_fingerprint(scenario)},
        /*append=*/false);
    gfw::ShardSummary shard;
    writer.append_shard(shard, gfw::ProbeLog{});
  }
  gfw::DistRunnerOptions options = dist_options();
  options.journal_prefix = prefix;
  options.resume = true;
  EXPECT_THROW(gfw::DistRunner(options).run(scenario), gfw::CheckpointError);
  EXPECT_EQ(gfw::load_checkpoint(journal).shards.size(), 1u);
  remove_journals(prefix, 4);
}

TEST(DistRunner, CorruptSlotJournalIsDiscardedAndItsRangeRerun) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);
  const std::string prefix = journal_prefix("corrupt");
  remove_journals(prefix, 4);

  gfw::DistRunnerOptions options = dist_options();
  options.journal_prefix = prefix;
  options.keep_journals = true;
  const gfw::CampaignResult first = gfw::DistRunner(options).run(scenario);
  EXPECT_EQ(campaign_digest(first), campaign_digest(reference));

  // Flip a byte in the interior of worker 2's journal: the CRC check
  // turns silent corruption into a CheckpointError, and the resume pass
  // responds by deleting the file and re-running its shard range.
  const std::string victim = prefix + ".worker2";
  {
    std::fstream file(victim, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(48);
    char byte = 0;
    file.seekg(48);
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(48);
    file.put(byte);
  }
  EXPECT_THROW(gfw::load_checkpoint(victim), gfw::CheckpointError);

  options.resume = true;
  const gfw::CampaignResult resumed = gfw::DistRunner(options).run(scenario);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(campaign_digest(resumed), campaign_digest(reference));
  remove_journals(prefix, 4);
}

TEST(DistRunner, InterruptedCampaignIsPartialAndResumesBitIdentically) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult reference = in_process_reference(scenario);
  const std::string prefix = journal_prefix("interrupt");
  remove_journals(prefix, 4);

  // The flag is set before the run begins: the coordinator SIGTERMs the
  // workers, which journal whatever shard they are on and exit
  // gracefully. However many shards made it, each one merged must match
  // its clean-run self, and the result must say it is partial.
  std::atomic<int> flag{1};
  gfw::DistRunnerOptions options = dist_options();
  options.journal_prefix = prefix;
  options.keep_journals = true;
  options.interrupt = &flag;
  const gfw::CampaignResult partial = gfw::DistRunner(options).run(scenario);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.shards.size(), 8u);
  const auto clean = shard_digests(reference);
  for (const auto& [index, digest] : shard_digests(partial)) {
    EXPECT_EQ(digest, clean.at(index));
  }

  // Clearing the flag and resuming finishes the rest from the journals.
  flag.store(0);
  options.resume = true;
  const gfw::CampaignResult resumed = gfw::DistRunner(options).run(scenario);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(campaign_digest(resumed), campaign_digest(reference));
  remove_journals(prefix, 4);
}

TEST(DistRunner, ShardedRunnerHonorsTheSameInterruptContract) {
  // The threaded runner shares the interrupt semantics: a set flag stops
  // shard claiming, the partial result is marked, and a journaled resume
  // completes to the uninterrupted transcript.
  const gfw::Scenario scenario = fleet_scenario();
  const std::string path = journal_prefix("threaded_interrupt.ckpt");
  std::remove(path.c_str());

  std::atomic<int> flag{1};
  gfw::ShardedRunnerOptions options(8, 2);
  options.checkpoint_path = path;
  options.interrupt = &flag;
  const gfw::CampaignResult partial = gfw::ShardedRunner(options).run(scenario);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.shards.size(), 8u);

  flag.store(0);
  options.resume = true;
  const gfw::CampaignResult resumed = gfw::ShardedRunner(options).run(scenario);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(campaign_digest(resumed),
            campaign_digest(in_process_reference(scenario)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gfwsim
