// Reproducibility: identical seeds must yield bit-identical experiment
// outcomes — the property every bench in this repository relies on.
#include <gtest/gtest.h>

#include <sstream>

#include "client/ss_client.h"
#include "gfw/world.h"
#include "probesim/probesim.h"

namespace gfwsim {
namespace {

std::string campaign_transcript(std::uint64_t seed) {
  gfw::Scenario config;
  config.server.impl = probesim::ServerSetup::Impl::kOutline107;
  config.duration = net::hours(24);
  config.connection_interval = net::seconds(60);
  config.classifier_base_rate = 0.3;
  gfw::World campaign(config, seed);
  campaign.run();

  std::ostringstream out;
  out << campaign.connections_launched() << "|";
  for (const auto& record : campaign.log().records()) {
    out << probesim::probe_type_name(record.type) << "," << record.payload_len << ","
        << record.src_ip.to_string() << "," << record.src_port << ","
        << static_cast<int>(record.ttl) << "," << record.tsval << ","
        << probesim::reaction_code(record.reaction) << ","
        << record.sent_at.count() << ";";
  }
  return out.str();
}

TEST(Determinism, IdenticalSeedsIdenticalCampaigns) {
  const std::string a = campaign_transcript(0xD37);
  const std::string b = campaign_transcript(0xD37);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 100u);  // non-trivial run
}

TEST(Determinism, DifferentSeedsDifferentCampaigns) {
  EXPECT_NE(campaign_transcript(0xD38), campaign_transcript(0xD39));
}

TEST(Determinism, ProbeLabBatteriesRepeatExactly) {
  const auto run = [] {
    probesim::ServerSetup setup;
    setup.impl = probesim::ServerSetup::Impl::kLibevOld;
    setup.cipher = "aes-256-ctr";
    probesim::ProbeLab lab(setup, 0xD3A);
    const Bytes recorded = lab.establish_legitimate_connection(
        proxy::TargetSpec::hostname("www.wikipedia.org", 443), to_bytes("GET /"));
    const auto battery = lab.prober().replay_battery(recorded, 8);
    std::ostringstream out;
    for (const auto& [type, tally] : battery) {
      out << probesim::probe_type_name(type) << ":" << tally.label() << ";";
    }
    return out.str();
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, VirtualTimeIsIndependentOfWallClock) {
  // Two runs of the same simulation must visit identical timestamps; any
  // dependence on real time would break this immediately.
  const auto timestamps = [] {
    net::EventLoop loop;
    std::vector<std::int64_t> stamps;
    for (int i = 0; i < 50; ++i) {
      loop.schedule_after(net::milliseconds(i * 7), [&stamps, &loop] {
        stamps.push_back(loop.now().count());
      });
    }
    loop.run();
    return stamps;
  };
  EXPECT_EQ(timestamps(), timestamps());
}

}  // namespace
}  // namespace gfwsim
