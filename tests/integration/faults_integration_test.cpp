// The campaign-level contracts the fault layer must preserve, run under a
// nonzero FaultProfile (these tests carry the ctest label `faults`; CI
// runs them alongside the pristine determinism/sharded-runner suites):
//   - same seed => bit-identical campaigns, faults included;
//   - the sharded runner's merge stays independent of thread count;
//   - a default (all-zero) profile leaves every fault counter at zero and
//     the ARQ off — the wiring itself is inert;
//   - the teardown watchdog passes for every shard, faulty or not.
#include <gtest/gtest.h>

#include <sstream>

#include "gfw/runner.h"

namespace gfwsim {
namespace {

gfw::Scenario faulty_scenario() {
  gfw::Scenario scenario;
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.3;
  scenario.base_seed = 0xFA17D;
  scenario.faults.loss = 0.02;
  scenario.faults.duplicate = 0.01;
  scenario.faults.reorder = 0.02;
  scenario.faults.jitter = net::milliseconds(5);
  return scenario;
}

gfw::Scenario pristine_scenario() {
  gfw::Scenario scenario = faulty_scenario();
  scenario.faults = net::FaultProfile{};
  return scenario;
}

// Every probe record field plus the full per-shard summary, fault
// counters and teardown verdict included — any divergence shows up here.
std::string transcript(const gfw::CampaignResult& result) {
  std::ostringstream out;
  for (const auto& shard : result.shards) {
    out << "[shard " << shard.shard_index << " seed " << shard.seed << " conns "
        << shard.connections_launched << " probes " << shard.probes << " tx "
        << shard.segments_transmitted << " rx " << shard.segments_delivered
        << " loss " << shard.segments_dropped_loss << " mbox "
        << shard.segments_dropped_middlebox << " outage "
        << shard.segments_dropped_outage << " dup " << shard.segments_duplicated
        << " reord " << shard.segments_reordered << " rtx " << shard.retransmissions
        << " pretry " << shard.probe_connect_retries << " clean "
        << shard.teardown.clean() << "]";
  }
  out << "|";
  for (const auto& record : result.log.records()) {
    out << probesim::probe_type_name(record.type) << "," << record.payload_len << ","
        << record.src_ip.to_string() << "," << record.src_port << ","
        << static_cast<int>(record.ttl) << "," << record.tsval << ","
        << probesim::reaction_code(record.reaction) << "," << record.connect_retries
        << "," << record.sent_at.count() << ";";
  }
  return out.str();
}

TEST(FaultsIntegration, SameSeedSameCampaignUnderFaults) {
  const gfw::CampaignResult a = gfw::run_serial(faulty_scenario());
  const gfw::CampaignResult b = gfw::run_serial(faulty_scenario());
  EXPECT_EQ(transcript(a), transcript(b));
  EXPECT_GT(a.log.size(), 0u);
}

TEST(FaultsIntegration, MergedResultIndependentOfThreadCountUnderFaults) {
  gfw::ShardedRunner serial({4, 1});
  gfw::ShardedRunner pooled({4, 4});
  const gfw::CampaignResult a = serial.run(faulty_scenario());
  const gfw::CampaignResult b = pooled.run(faulty_scenario());
  EXPECT_EQ(transcript(a), transcript(b));
}

TEST(FaultsIntegration, FaultsActuallyPerturbTheCampaign) {
  const gfw::CampaignResult faulty = gfw::run_serial(faulty_scenario());
  const gfw::CampaignResult pristine = gfw::run_serial(pristine_scenario());
  EXPECT_NE(transcript(faulty), transcript(pristine));

  std::size_t loss = 0, dup = 0, reordered = 0;
  for (const auto& shard : faulty.shards) {
    loss += shard.segments_dropped_loss;
    dup += shard.segments_duplicated;
    reordered += shard.segments_reordered;
  }
  EXPECT_GT(loss, 0u);
  EXPECT_GT(dup, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(faulty.totals().retransmissions, 0u);
}

TEST(FaultsIntegration, ZeroProfileWiringIsInert) {
  const gfw::CampaignResult result = gfw::run_serial(pristine_scenario());
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.segments_dropped_loss, 0u);
    EXPECT_EQ(shard.segments_dropped_outage, 0u);
    EXPECT_EQ(shard.segments_duplicated, 0u);
    EXPECT_EQ(shard.segments_reordered, 0u);
    EXPECT_EQ(shard.retransmissions, 0u);
    EXPECT_EQ(shard.probe_connect_retries, 0u);
  }
}

TEST(FaultsIntegration, TeardownWatchdogPassesFaultyAndPristine) {
  const gfw::CampaignResult faulty = gfw::run_serial(faulty_scenario());
  const gfw::CampaignResult pristine = gfw::run_serial(pristine_scenario());
  EXPECT_TRUE(faulty.teardown_clean()) << faulty.teardown_failures();
  EXPECT_TRUE(pristine.teardown_clean()) << pristine.teardown_failures();
  for (const auto& shard : faulty.shards) {
    EXPECT_EQ(shard.teardown.leaked_established, 0u);
    EXPECT_EQ(shard.teardown.stale_registrations, 0u);
    EXPECT_FALSE(shard.teardown.timers_overdue);
    EXPECT_TRUE(shard.teardown.accounting_balanced);
  }
}

TEST(FaultsIntegration, OutageWindowSurvivable) {
  // A one-hour outage mid-campaign: connections during the window fail,
  // but the campaign keeps going and the accounting still balances.
  gfw::Scenario scenario = pristine_scenario();
  scenario.faults.outages.push_back({net::TimePoint{net::hours(6)}, net::hours(1)});
  const gfw::CampaignResult result = gfw::run_serial(scenario);
  std::size_t outage_drops = 0;
  for (const auto& shard : result.shards) outage_drops += shard.segments_dropped_outage;
  EXPECT_GT(outage_drops, 0u);
  EXPECT_TRUE(result.teardown_clean()) << result.teardown_failures();
}

}  // namespace
}  // namespace gfwsim
