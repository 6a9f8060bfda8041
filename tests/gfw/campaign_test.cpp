// Integration tests of the full campaign harness.
#include <gtest/gtest.h>

#include "gfw/world.h"

namespace gfwsim::gfw {
namespace {

Scenario small_campaign() {
  Scenario config;
  config.server.impl = probesim::ServerSetup::Impl::kOutline107;
  config.server.cipher = "chacha20-ietf-poly1305";
  config.duration = net::hours(24);
  config.connection_interval = net::seconds(120);
  config.classifier_base_rate = 0.3;
  return config;
}

TEST(Campaign, ShadowsocksTrafficDrawsProbes) {
  World campaign(small_campaign(), 0xAA01);
  campaign.run();

  EXPECT_GT(campaign.connections_launched(), 400u);
  EXPECT_GT(campaign.log().size(), 10u);
  // No proactive scanning: the idle control host is never contacted.
  EXPECT_EQ(campaign.control_host_contacts(), 0u);
}

TEST(Campaign, OutlineServersGetStage2ProbeTypes) {
  World campaign(small_campaign(), 0xAA02);
  campaign.run();

  // Outline <= v1.0.8 answers R1 with data -> stage 2 unlocks (this is
  // why only the paper's OutlineVPN experiment saw R3/R4/R5).
  int stage2 = 0;
  for (const auto& record : campaign.log().records()) {
    stage2 += record.type == probesim::ProbeType::kR3 ||
              record.type == probesim::ProbeType::kR4 ||
              record.type == probesim::ProbeType::kNR1;
  }
  EXPECT_GT(stage2, 0);
}

TEST(Campaign, LibevServersStayInStage1) {
  Scenario config = small_campaign();
  config.server.impl = probesim::ServerSetup::Impl::kLibevNew;
  config.server.cipher = "aes-256-gcm";
  World campaign(config, 0xAA03);
  campaign.run();

  ASSERT_GT(campaign.log().size(), 5u);
  for (const auto& record : campaign.log().records()) {
    EXPECT_TRUE(record.type == probesim::ProbeType::kR1 ||
                record.type == probesim::ProbeType::kR2 ||
                record.type == probesim::ProbeType::kNR2);
  }
}

TEST(Campaign, RawRandomTrafficAlsoTriggersProbes) {
  // The Table 4 insight: no real Shadowsocks needed; high-entropy random
  // payloads of the right lengths draw probes to a bare TCP sink.
  Scenario config = small_campaign();
  config.raw_traffic = true;
  config.traffic = client::TrafficSpec::random_exp1();
  World campaign(config, 0xAA04);
  campaign.run();
  EXPECT_GT(campaign.log().size(), 5u);
}

TEST(Campaign, LowEntropyTrafficDrawsFewerProbes) {
  // Exp 1 vs Exp 2 of Table 4.
  Scenario config = small_campaign();
  config.raw_traffic = true;

  config.traffic = client::TrafficSpec::random_exp1();
  World high_entropy(config, 0xAA05);
  high_entropy.run();

  config.traffic = client::TrafficSpec::random_exp2();
  World low_entropy(config, 0xAA05);
  low_entropy.run();

  EXPECT_GT(high_entropy.log().size(), 2 * low_entropy.log().size());
}

double campaign_probe_ratio(std::size_t guarded, std::size_t unguarded) {
  return unguarded == 0 ? 1.0
                        : static_cast<double>(guarded) / static_cast<double>(unguarded);
}

TEST(Campaign, BrdgrdSuppressesProbing) {
  // Figure 11 in miniature: with brdgrd clamping the first flight, the
  // classifier sees tiny first packets and probing collapses.
  Scenario config = small_campaign();
  config.use_brdgrd = true;
  World guarded(config, 0xAA06);
  guarded.run();

  Scenario vanilla = small_campaign();
  World unguarded(vanilla, 0xAA06);
  unguarded.run();

  EXPECT_GT(guarded.brdgrd()->connections_clamped(), 100u);
  EXPECT_LT(campaign_probe_ratio(guarded.log().size(), unguarded.log().size()), 0.15);
}

TEST(Campaign, ServerInsideChinaIsProbedToo) {
  // Section 4.2: outside-to-inside connections trigger probing as well.
  Scenario config = small_campaign();
  config.server_inside_china = true;
  World campaign(config, 0xAA07);
  campaign.run();
  EXPECT_GT(campaign.log().size(), 5u);
}

}  // namespace
}  // namespace gfwsim::gfw
