// GFW robustness under network impairment: the prober pool must retry
// failed probe connections within the probe window and then give up, and
// the passive classifier must not double-flag (or double-count) a flow
// whose first payload reaches the border twice — whether as a wire
// duplicate or as an ARQ retransmission.
#include <gtest/gtest.h>

#include "gfw/gfw.h"

namespace gfwsim::gfw {
namespace {

bool is_domestic(net::Ipv4 ip) { return (ip.value >> 24) != 203; }

struct FaultsFixture : ::testing::Test {
  net::EventLoop loop;
  net::Network net{loop};

  net::Host& client_host = net.add_host(net::Ipv4(116, 1, 1, 1));
  net::Host& server_host = net.add_host(net::Ipv4(203, 0, 113, 10));
  net::Endpoint server_ep{server_host.addr(), 8388};

  GfwConfig base_config() {
    GfwConfig config;
    config.is_domestic = is_domestic;
    return config;
  }

  void install_sink() {
    server_host.listen(8388, [this](net::ConnectionHandle conn) {
      conn->set_callbacks({});
      sink_conns.push_back(std::move(conn));
    });
  }

  std::vector<net::ConnectionHandle> sink_conns;
};

TEST_F(FaultsFixture, ProberRetriesUnreachableServerThenGivesUp) {
  net.force_arq(true);
  Gfw gfw(net, base_config(), 0x21);
  net.add_middlebox(&gfw);

  // No host answers at this address: every probe SYN vanishes. The probe
  // ARQ fails each connect attempt at ~3 s, the prober relaunches after
  // backoff, and the 8 s probe window runs out.
  const net::Endpoint dead{net::Ipv4(203, 0, 113, 99), 8388};
  crypto::Rng rng(1);
  gfw.flag_connection(dead, rng.bytes(594));
  loop.run_until(net::hours(600));

  ASSERT_GT(gfw.log().size(), 0u);
  for (const auto& record : gfw.log().records()) {
    EXPECT_EQ(record.reaction, probesim::Reaction::kTimeout);
    EXPECT_GE(record.connect_retries, 1);  // at least one relaunch fit in 8 s
  }
  EXPECT_GE(gfw.probe_connect_retries(), gfw.log().size());
  net.remove_middlebox(&gfw);
}

TEST_F(FaultsFixture, ProbeRetriesStayWithinTheProbeWindow) {
  net.force_arq(true);
  GfwConfig config = base_config();
  Gfw gfw(net, config, 0x22);
  net.add_middlebox(&gfw);

  const net::Endpoint dead{net::Ipv4(203, 0, 113, 99), 8388};
  crypto::Rng rng(2);
  gfw.flag_connection(dead, rng.bytes(594));
  loop.run_until(net::hours(600));

  // With per-attempt failure at 3 s and 1 s / 2 s backoffs, only one
  // relaunch fits before the 8 s deadline — the retry cap (2, gfw.cpp's
  // kProbeConnectRetries) must never be exceeded regardless.
  for (const auto& record : gfw.log().records()) {
    EXPECT_LE(record.connect_retries, 2);
  }
  net.remove_middlebox(&gfw);
}

TEST_F(FaultsFixture, ProbesStillSucceedWithoutRetriesOnCleanPaths) {
  // Control: ARQ on, no faults, live sink server — probes connect on the
  // first attempt and no retry is recorded.
  net.force_arq(true);
  install_sink();
  Gfw gfw(net, base_config(), 0x23);
  net.add_middlebox(&gfw);

  crypto::Rng rng(3);
  gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(600));

  ASSERT_GT(gfw.log().size(), 0u);
  for (const auto& record : gfw.log().records()) {
    EXPECT_EQ(record.connect_retries, 0);
  }
  EXPECT_EQ(gfw.probe_connect_retries(), 0u);
  net.remove_middlebox(&gfw);
}

TEST_F(FaultsFixture, DuplicatedFirstPayloadFlagsExactlyOnce) {
  install_sink();
  GfwConfig config = base_config();
  config.classifier.base_rate = 1.0;
  Gfw gfw(net, config, 0x24);
  net.add_middlebox(&gfw);

  // Duplicate every client -> server segment on the wire: the GFW border
  // sees the first payload (and the SYN) twice.
  net::FaultProfile dup;
  dup.duplicate = 1.0;
  net.set_fault_seed(0xD0B);
  net.set_faults(client_host.addr(), server_host.addr(), dup);

  crypto::Rng rng(4);
  auto conn = client_host.connect(server_ep, {});
  loop.run_until(loop.now() + net::seconds(2));
  conn->send(rng.bytes(594));
  loop.run_until(loop.now() + net::seconds(2));

  EXPECT_EQ(gfw.flows_inspected(), 1u);  // the duplicate SYN is not a new flow
  EXPECT_EQ(gfw.flows_flagged(), 1u);    // the duplicate payload is not re-drawn
  net.remove_middlebox(&gfw);
}

TEST_F(FaultsFixture, RetransmittedFirstPayloadFlagsExactlyOnce) {
  // Count deliveries on the first accepted connection only — the flagged
  // flow also attracts probe connections to this listener.
  int deliveries = 0;
  bool first = true;
  server_host.listen(8388, [&](net::ConnectionHandle conn) {
    net::ConnectionCallbacks cb;
    if (first) {
      first = false;
      cb.on_data = [&](ByteSpan) { ++deliveries; };
    }
    conn->set_callbacks(std::move(cb));
    sink_conns.push_back(std::move(conn));
  });

  GfwConfig config = base_config();
  config.classifier.base_rate = 1.0;
  Gfw gfw(net, config, 0x25);
  net.add_middlebox(&gfw);
  net.force_arq(true);

  auto conn = client_host.connect(server_ep, {});
  loop.run_until(loop.now() + net::seconds(2));
  ASSERT_TRUE(conn->can_send());

  // After the handshake, lose every server -> client segment: the ACKs
  // never return and the client retransmits the first payload on RTO.
  net::FaultProfile ack_loss;
  ack_loss.loss = 1.0;
  net.set_fault_seed(0xD0C);
  net.set_faults(server_host.addr(), client_host.addr(), ack_loss);

  crypto::Rng rng(5);
  conn->send(rng.bytes(594));
  loop.run_until(loop.now() + net::minutes(1));

  EXPECT_GT(conn->retransmissions(), 0u);
  EXPECT_EQ(deliveries, 1);              // the server deduped the copies
  EXPECT_EQ(gfw.flows_inspected(), 1u);  // retransmissions are not new flows
  EXPECT_EQ(gfw.flows_flagged(), 1u);    // ...and are not re-classified
  net.remove_middlebox(&gfw);
}

}  // namespace
}  // namespace gfwsim::gfw
