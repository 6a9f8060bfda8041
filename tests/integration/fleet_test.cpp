// Fleet campaigns: one Scenario describing N heterogeneous servers that
// share ONE World — one event loop, one Network, and critically ONE GFW
// (shared passive classifier, shared prober pool, per-endpoint block
// table with per-region policy). These tests pin the properties the
// paper's cross-implementation and cross-region comparisons rely on:
//   * per-server attribution (probe records carry the server id, and the
//     per-server stats rows partition the shared log exactly);
//   * prober-pool contention is observable (one pool serves the fleet,
//     and individual prober IPs recur across different targets);
//   * blocking is per-endpoint with region policy (one region's block
//     wave leaves the other region's servers running);
//   * by-IP blocks are shared-fate for co-located endpoints;
//   * the sharded merge stays bit-identical for any thread count.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "gfw/runner.h"

namespace gfwsim {
namespace {

gfw::ServerSpec make_spec(probesim::ServerSetup::Impl impl, const char* cipher,
                          const char* region, bool inside_china = false) {
  gfw::ServerSpec spec;
  spec.server.impl = impl;
  spec.server.cipher = cipher;
  spec.region = region;
  spec.inside_china = inside_china;
  return spec;
}

// The acceptance fleet: ≥6 servers, ≥2 implementations x ≥2 ciphers,
// mixed regions, one server on the inside looking out.
gfw::Scenario fleet_scenario() {
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(90);
  scenario.classifier_base_rate = 0.35;
  scenario.base_seed = 0xF1EE7CA4;
  // Implementations constrain ciphers (Outline is chacha20-only, the
  // legacy stream servers take stream ciphers), so the grid mixes within
  // what each can run: 4 implementations x 4 ciphers across 2 regions.
  using Impl = probesim::ServerSetup::Impl;
  scenario.fleet.push_back(
      make_spec(Impl::kOutline107, "chacha20-ietf-poly1305", "beijing"));
  scenario.fleet.push_back(
      make_spec(Impl::kOutline107, "chacha20-ietf-poly1305", "unicom"));
  scenario.fleet.push_back(make_spec(Impl::kLibevNew, "aes-256-gcm", "beijing"));
  scenario.fleet.push_back(
      make_spec(Impl::kLibevNew, "chacha20-ietf-poly1305", "unicom"));
  scenario.fleet.push_back(make_spec(Impl::kSsPython, "aes-256-cfb", "beijing",
                                     /*inside_china=*/true));
  scenario.fleet.push_back(make_spec(Impl::kSsr, "rc4-md5", "unicom"));
  return scenario;
}

TEST(Fleet, PerServerStatsPartitionTheSharedLog) {
  const gfw::Scenario scenario = fleet_scenario();
  const gfw::CampaignResult result = gfw::run_serial(scenario);
  EXPECT_TRUE(result.teardown_clean()) << result.teardown_failures();

  const std::vector<gfw::ServerStats> totals = result.fleet_totals();
  ASSERT_EQ(totals.size(), scenario.fleet.size());

  // Every server drove traffic, drew probes, and moved payload bytes; the
  // descriptive columns round-trip from the specs.
  std::size_t probes = 0, connections = 0;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const gfw::ServerStats& s = totals[i];
    EXPECT_EQ(s.server_id, i);
    EXPECT_EQ(s.region, scenario.fleet[i].region);
    EXPECT_EQ(s.impl, probesim::impl_name(scenario.fleet[i].server.impl));
    EXPECT_EQ(s.cipher, scenario.fleet[i].server.cipher);
    EXPECT_GT(s.connections_launched, 0u) << "server " << i;
    EXPECT_GT(s.payload_bytes, 0u) << "server " << i;
    EXPECT_GT(s.probes, 0u) << "server " << i;
    probes += s.probes;
    connections += s.connections_launched;
  }
  // The per-server rows partition the shared log and driver exactly.
  EXPECT_EQ(probes, result.log.size());
  EXPECT_EQ(connections, result.totals().connections_launched);

  // Probe records attribute across the fleet, not all to server 0.
  std::set<std::uint16_t> ids;
  for (const auto& record : result.log.records()) ids.insert(record.server_id);
  EXPECT_GE(ids.size(), 2u);
}

TEST(Fleet, SharedProberPoolServesTheWholeFleet) {
  gfw::World world(fleet_scenario(), /*seed=*/0x9001F1EE7);
  world.run();

  // One pool: every logged probe came through the same acquisition
  // counter, regardless of which server it targeted.
  EXPECT_GT(world.log().size(), 0u);
  EXPECT_EQ(world.gfw().pool().acquisitions(), world.log().size());

  // Contention is visible: individual prober source IPs recur against
  // DIFFERENT servers (a per-server pool could never show this).
  std::map<std::uint32_t, std::set<std::uint16_t>> targets_by_prober;
  for (const auto& record : world.log().records()) {
    targets_by_prober[record.src_ip.value].insert(record.server_id);
  }
  bool prober_shared = false;
  for (const auto& [ip, targets] : targets_by_prober) {
    if (targets.size() >= 2) prober_shared = true;
  }
  EXPECT_TRUE(prober_shared);
}

TEST(Fleet, RegionPolicyBlocksOneRegionAndSparesTheOther) {
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.35;
  scenario.base_seed = 0x7E9104;
  // Both servers confirm themselves readily (Outline 1.0.7 answers
  // replays with DATA); only the region policy differs.
  scenario.gfw.blocking.confirmation_threshold = 1.0;
  scenario.gfw.blocking.block_by_ip_fraction = 0.0;
  scenario.gfw.blocking.region_policies["wave"] = {1.0, 1.0};
  scenario.gfw.blocking.region_policies["calm"] = {0.0, 0.0};
  using Impl = probesim::ServerSetup::Impl;
  scenario.fleet.push_back(
      make_spec(Impl::kOutline107, "chacha20-ietf-poly1305", "wave"));
  scenario.fleet.push_back(
      make_spec(Impl::kOutline107, "chacha20-ietf-poly1305", "calm"));

  gfw::World world(scenario, /*seed=*/0xB10CF1EE7);
  world.run();

  const gfw::BlockingModule& blocking = world.gfw().blocking();
  EXPECT_TRUE(blocking.is_blocked(world.server_endpoint(0)));
  EXPECT_FALSE(blocking.is_blocked(world.server_endpoint(1)));
  ASSERT_FALSE(blocking.history().empty());
  for (const auto& entry : blocking.history()) {
    EXPECT_EQ(entry.region, "wave");
    EXPECT_EQ(entry.server_ip, world.server_endpoint(0).addr);
  }

  // The per-server stats attribute the block wave to the right row.
  std::vector<gfw::ServerStats> stats = world.server_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].blocks, 0u);
  EXPECT_EQ(stats[1].blocks, 0u);
}

TEST(Fleet, ByIpBlockIsSharedFateForColocatedEndpoints) {
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.35;
  scenario.base_seed = 0x5A11E;
  scenario.gfw.blocking.confirmation_threshold = 1.0;
  scenario.gfw.blocking.block_probability = 1.0;
  scenario.gfw.blocking.block_by_ip_fraction = 1.0;  // every block is by IP
  // Two servers co-located on one address, different ports.
  gfw::ServerSpec a = make_spec(probesim::ServerSetup::Impl::kOutline107,
                                "chacha20-ietf-poly1305", "colo");
  a.ip = net::Ipv4(203, 0, 115, 5);
  a.port = 8388;
  gfw::ServerSpec b = a;
  b.port = 8389;
  scenario.fleet.push_back(a);
  scenario.fleet.push_back(b);

  gfw::World world(scenario, /*seed=*/0xC010C);
  world.run();

  const gfw::BlockingModule& blocking = world.gfw().blocking();
  ASSERT_FALSE(blocking.history().empty());
  EXPECT_FALSE(blocking.history()[0].port.has_value());  // whole-IP block
  // Blocking either endpoint null-routes both: shared fate.
  EXPECT_TRUE(blocking.is_blocked(world.server_endpoint(0)));
  EXPECT_TRUE(blocking.is_blocked(world.server_endpoint(1)));

  // And both stats rows count the IP-wide block.
  std::vector<gfw::ServerStats> stats = world.server_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].blocks, 0u);
  EXPECT_EQ(stats[0].blocks, stats[1].blocks);
}

// Flattens everything a fleet merge produces — per-record server ids
// included — so thread-count independence is checked on the full result.
std::string fleet_transcript(const gfw::CampaignResult& result) {
  std::ostringstream out;
  for (const auto& record : result.log.records()) {
    out << record.server_id << ' ' << record.sent_at.count() << ' '
        << static_cast<int>(record.type) << ' ' << record.server.addr.value << ':'
        << record.server.port << ' ' << static_cast<int>(record.reaction) << '\n';
  }
  for (const auto& server : result.fleet_totals()) {
    out << server.server_id << ' ' << server.impl << ' ' << server.cipher << ' '
        << server.region << ' ' << server.connections_launched << ' '
        << server.payload_bytes << ' ' << server.probes << ' ' << server.blocks
        << '\n';
  }
  return out.str();
}

TEST(Fleet, MergedResultIndependentOfThreadCount) {
  gfw::Scenario scenario = fleet_scenario();
  scenario.duration = net::hours(6);

  gfw::ShardedRunner serial({/*shards=*/2, /*threads=*/1});
  gfw::ShardedRunner pooled({/*shards=*/2, /*threads=*/2});
  const std::string a = fleet_transcript(serial.run(scenario));
  const std::string b = fleet_transcript(pooled.run(scenario));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gfwsim
