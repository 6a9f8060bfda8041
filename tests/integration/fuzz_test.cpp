// Robustness: garbage storms, fragmentation fuzz, resource bounds.
#include <gtest/gtest.h>

#include "client/ss_client.h"
#include "probesim/probesim.h"
#include "gfw/world.h"
#include "servers/upstream.h"

namespace gfwsim {
namespace {

using probesim::ProbeLab;
using probesim::Reaction;
using probesim::ServerSetup;

std::vector<ServerSetup> all_setups() {
  using Impl = ServerSetup::Impl;
  std::vector<ServerSetup> out;
  const auto add = [&](Impl impl, const char* cipher) {
    ServerSetup setup;
    setup.impl = impl;
    setup.cipher = cipher;
    out.push_back(setup);
  };
  add(Impl::kLibevOld, "aes-256-ctr");
  add(Impl::kLibevOld, "rc4-md5");
  add(Impl::kLibevOld, "chacha20");
  add(Impl::kLibevOld, "aes-128-gcm");
  add(Impl::kLibevNew, "aes-256-cfb");
  add(Impl::kLibevNew, "chacha20-ietf-poly1305");
  add(Impl::kOutline106, "chacha20-ietf-poly1305");
  add(Impl::kOutline107, "chacha20-ietf-poly1305");
  add(Impl::kOutline110, "chacha20-ietf-poly1305");
  add(Impl::kSsPython, "aes-256-cfb");
  add(Impl::kSsr, "chacha20");
  add(Impl::kHardened, "aes-256-gcm");
  return out;
}

TEST(GarbageStorm, EveryServerSurvivesRandomProbes) {
  for (const auto& setup : all_setups()) {
    ProbeLab lab(setup, 0xF022);
    crypto::Rng rng(0xF023);
    for (int i = 0; i < 120; ++i) {
      const std::size_t len = rng.uniform(0, 3000);
      const auto result = lab.prober().send_probe(rng.bytes(len));
      // Garbage must never be served.
      EXPECT_NE(result.reaction, Reaction::kData)
          << probesim::impl_name(setup.impl) << " len=" << len;
    }
    // Sessions are reaped as probes close: no unbounded growth.
    EXPECT_LT(lab.server().sessions_active(), 8u) << probesim::impl_name(setup.impl);
  }
}

TEST(FragmentationFuzz, LegitFirstFlightSurvivesArbitrarySplits) {
  // Deliver a genuine client first packet in random-sized TCP segments
  // (as brdgrd or weird middleboxes would): every (non-strict) server
  // must still serve the connection.
  for (const auto& setup : all_setups()) {
    if (setup.impl == ServerSetup::Impl::kHardened) continue;  // needs timestamp
    ProbeLab lab(setup, 0xF024);
    const Bytes packet = lab.legitimate_first_packet(
        proxy::TargetSpec::hostname("example.com", 80), to_bytes("GET /"));

    // Hand-drive a connection that sends the packet in random chunks.
    auto& net = lab.network();
    net::Host& host = net.add_host(net::Ipv4(116, 99, 0, 1));
    auto obs = std::make_shared<std::size_t>(0);
    net::ConnectionCallbacks cb;
    cb.on_data = [obs](ByteSpan data) { *obs += data.size(); };
    auto conn = host.connect(lab.server_endpoint(), std::move(cb));
    lab.loop().run_until(lab.loop().now() + net::seconds(2));

    crypto::Rng rng(0xF025 + static_cast<std::uint64_t>(setup.impl));
    std::size_t offset = 0;
    while (offset < packet.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.uniform(0, 40), packet.size() - offset);
      conn->send(ByteSpan(packet.data() + offset, take));
      lab.loop().run_until(lab.loop().now() + net::milliseconds(200));
      offset += take;
    }
    lab.loop().run_until(lab.loop().now() + net::seconds(10));
    EXPECT_GT(*obs, 0u) << probesim::impl_name(setup.impl) << "/" << setup.cipher
                        << ": fragmented legit flight got no response";
    conn->close();
  }
}

TEST(GarbageStorm, ProberSimulatorHandlesEmptyAndHugePayloads) {
  ServerSetup setup;
  setup.impl = ServerSetup::Impl::kOutline107;
  ProbeLab lab(setup, 0xF026);
  crypto::Rng rng(1);
  EXPECT_EQ(lab.prober().send_probe({}).reaction, Reaction::kTimeout);
  // Larger than MSS: segmented transparently.
  EXPECT_EQ(lab.prober().send_probe(rng.bytes(10000)).reaction, Reaction::kTimeout);
}

TEST(ResourceBounds, CampaignSessionsAndFlowsStayBounded) {
  gfw::Scenario config;
  config.server.impl = ServerSetup::Impl::kOutline107;
  config.duration = net::hours(48);
  config.connection_interval = net::seconds(30);
  config.classifier_base_rate = 0.3;
  gfw::World campaign(config, 0xF027);
  campaign.run();
  EXPECT_GT(campaign.connections_launched(), 4000u);
  // Server sessions get reaped; a handful may be mid-flight.
  EXPECT_LT(campaign.server().sessions_active(), 600u);
  EXPECT_EQ(campaign.gfw().probes_in_flight(), 0u);
}

TEST(MixedTraffic, ProbersAndClientsInterleaveSafely) {
  ServerSetup setup;
  setup.impl = ServerSetup::Impl::kOutline107;
  ProbeLab lab(setup, 0xF028);

  client::ClientConfig config;
  config.cipher = proxy::find_cipher(setup.cipher);
  config.password = setup.password;
  net::Host& client_host = lab.network().add_host(net::Ipv4(116, 99, 0, 2));
  client::SsClient ss(client_host, lab.server_endpoint(), config);

  for (int round = 0; round < 10; ++round) {
    auto fetch = ss.fetch(proxy::TargetSpec::hostname("example.com", 80),
                          to_bytes("GET /"));
    const auto probe = lab.prober().send_random_probe(221);
    EXPECT_EQ(probe.reaction, Reaction::kTimeout);
    lab.loop().run_until(lab.loop().now() + net::seconds(5));
    EXPECT_EQ(fetch->state(), client::Fetch::State::kDone) << round;
    fetch->close();
  }
}

}  // namespace
}  // namespace gfwsim
