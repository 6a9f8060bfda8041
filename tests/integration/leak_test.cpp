// Campaign-level leak gate: a finished campaign leaves no net::Connection
// alive in the process, and running the same campaign again in the same
// process yields an identical result (nothing left behind by the first
// run leaks into the second). Covers an ideal campaign, where every probe
// ends half-closed with its FIN unanswered, a faulted one, where probe
// connects also fail and retry, and an 8-server fleet. A last case paces
// client fetches so fast that each leaves the World's fetch window before
// its close fires, and pins that campaign's transcript.
#include <gtest/gtest.h>

#include "crypto/sha1.h"
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

gfw::ServerSpec fleet_server(probesim::ServerSetup::Impl impl, const char* cipher,
                             const char* region) {
  gfw::ServerSpec spec;
  spec.server.impl = impl;
  spec.server.cipher = cipher;
  spec.region = region;
  return spec;
}

// The 8-server implementation x cipher x region grid of the fleet
// benches, over a short campaign.
gfw::Scenario fleet_scenario() {
  using Impl = probesim::ServerSetup::Impl;
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(3);
  scenario.connection_interval = net::seconds(90);
  scenario.classifier_base_rate = 0.35;
  scenario.base_seed = 0xF1EE7;
  scenario.fleet = {
      fleet_server(Impl::kOutline107, "chacha20-ietf-poly1305", "beijing"),
      fleet_server(Impl::kOutline107, "chacha20-ietf-poly1305", "unicom"),
      fleet_server(Impl::kOutline110, "chacha20-ietf-poly1305", "beijing"),
      fleet_server(Impl::kLibevNew, "aes-256-gcm", "beijing"),
      fleet_server(Impl::kLibevNew, "chacha20-ietf-poly1305", "unicom"),
      fleet_server(Impl::kLibevOld, "aes-256-ctr", "unicom"),
      fleet_server(Impl::kSsPython, "aes-256-cfb", "beijing"),
      fleet_server(Impl::kSsr, "rc4-md5", "unicom"),
  };
  return scenario;
}

// Every journaled shard field (the event count included) and probe record.
std::vector<Bytes> encode(const gfw::CampaignResult& result) {
  std::vector<Bytes> out;
  const auto& records = result.log.records();
  for (const auto& shard : result.shards) {
    const auto first = records.begin() + static_cast<std::ptrdiff_t>(shard.log_offset);
    gfw::ProbeLog slice;
    slice.assign({first, first + static_cast<std::ptrdiff_t>(shard.probes)});
    out.push_back(gfw::serialize_shard(shard, slice));
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
  EXPECT_GT(result.totals().retransmissions, 0u);
}

TEST(LeakGate, FleetCampaignFreesEveryConnection) {
  const gfw::CampaignResult result = run_twice_without_leaks(fleet_scenario());
  EXPECT_EQ(result.fleet_totals().size(), 8u);
}

// Folds one tap record's header fields, routing verdict and payload bytes
// into `h`.
void hash_record(crypto::Sha1& h, const net::SegmentRecord& rec) {
  const net::Segment& s = rec.segment;
  const std::uint64_t fields[] = {
      s.src.addr.value, s.src.port, s.dst.addr.value, s.dst.port, s.flags,
      s.ip_id, s.ttl, s.tsval, s.window, s.seq, s.ack_seq, s.retransmission,
      static_cast<std::uint64_t>(s.sent_at.count()),
      static_cast<std::uint64_t>(rec.arrive_at.count()), rec.dropped,
      static_cast<std::uint64_t>(rec.cause), s.payload.size()};
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(fields), sizeof(fields)));
  h.update(s.payload);
}

// At 50 ms pacing the World's window of 256 fetches per server turns over
// in about 13 s, so every fetch is evicted before its 20 s close fires,
// and its connection must live until that close. The digest was taken
// while fetches were still shared_ptr-owned: it pins the instant each
// client connection dies.
TEST(LeakGate, FetchEvictedBeforeItsCloseKeepsTheTranscript) {
  gfw::Scenario scenario = ideal_scenario();
  scenario.duration = net::minutes(2);
  scenario.connection_interval = net::milliseconds(50);
  crypto::Sha1 tap;
  {
    gfw::World world(scenario, scenario.base_seed);
    world.network().set_tap([&tap](const net::SegmentRecord& rec) { hash_record(tap, rec); });
    world.run();
    EXPECT_GT(world.connections_launched(), 2000u);
    EXPECT_GT(world.log().size(), 0u);
    EXPECT_TRUE(world.teardown_report().clean());
  }
  EXPECT_EQ(net::Connection::live_count(), 0u);
  const crypto::Sha1::Digest digest = tap.finish();
  EXPECT_EQ(hex_encode(ByteSpan(digest.data(), digest.size())),
            "7a250c4154ad27626f7b090afcfef21f25444b5b");
}

}  // namespace
}  // namespace gfwsim
