// Campaign-level leak gate: a finished campaign leaves no net::Connection
// alive in the process, and running the same campaign again in the same
// process yields an identical result (nothing left behind by the first
// run leaks into the second). Covers an ideal campaign, where every probe
// ends half-closed with its FIN unanswered, and a faulted one, where
// probe connects also fail and retry.
#include <gtest/gtest.h>

#include "gfw/checkpoint.h"
#include "gfw/runner.h"

namespace gfwsim {
namespace {

gfw::Scenario ideal_scenario() {
  gfw::Scenario scenario;
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.3;
  scenario.base_seed = 0x1EA4;
  return scenario;
}

gfw::Scenario faulted_scenario() {
  gfw::Scenario scenario = ideal_scenario();
  scenario.faults.loss = 0.03;
  scenario.faults.duplicate = 0.01;
  scenario.faults.reorder = 0.02;
  scenario.faults.jitter = net::milliseconds(5);
  return scenario;
}

// Every journaled shard field and probe record, plus the event count the
// journal leaves out.
std::vector<Bytes> encode(const gfw::CampaignResult& result) {
  std::vector<Bytes> out;
  const auto& records = result.log.records();
  for (const auto& shard : result.shards) {
    const auto first = records.begin() + static_cast<std::ptrdiff_t>(shard.log_offset);
    gfw::ProbeLog slice;
    slice.assign({first, first + static_cast<std::ptrdiff_t>(shard.probes)});
    out.push_back(gfw::serialize_shard(shard, slice));
    out.push_back(Bytes(8));
    store_le64(out.back().data(), shard.events_processed);
  }
  return out;
}

// Runs `scenario` twice in this process; returns the first result.
gfw::CampaignResult run_twice_without_leaks(const gfw::Scenario& scenario) {
  EXPECT_EQ(net::Connection::live_count(), 0u);
  gfw::CampaignResult first = gfw::run_serial(scenario);
  EXPECT_EQ(net::Connection::live_count(), 0u);
  const gfw::CampaignResult second = gfw::run_serial(scenario);
  EXPECT_EQ(net::Connection::live_count(), 0u);

  EXPECT_GT(first.log.size(), 0u);
  EXPECT_TRUE(first.failures.empty());
  EXPECT_EQ(encode(first), encode(second));
  return first;
}

TEST(LeakGate, IdealCampaignFreesEveryConnection) {
  const gfw::CampaignResult result = run_twice_without_leaks(ideal_scenario());
  // The path that used to leak ran: probes ended with their FIN
  // unanswered and were still registered when the run finished.
  EXPECT_GT(result.shards.at(0).teardown.half_closed, 0u);
}

TEST(LeakGate, FaultedCampaignFreesEveryConnection) {
  const gfw::CampaignResult result = run_twice_without_leaks(faulted_scenario());
  EXPECT_GT(result.retransmissions(), 0u);
}

}  // namespace
}  // namespace gfwsim
