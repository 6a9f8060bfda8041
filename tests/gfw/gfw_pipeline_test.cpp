// End-to-end tests of the GFW middlebox: flow tracking, probe dispatch,
// stage gating, fingerprint stamping, and blocking integration.
#include <gtest/gtest.h>

#include "gfw/gfw.h"
#include "servers/upstream.h"

namespace gfwsim::gfw {
namespace {

bool is_domestic(net::Ipv4 ip) { return (ip.value >> 24) != 203; }

struct PipelineFixture : ::testing::Test {
  net::EventLoop loop;
  net::Network net{loop};
  servers::SimulatedInternet internet{crypto::Rng(9)};

  net::Host& client_host = net.add_host(net::Ipv4(116, 1, 1, 1));
  net::Host& server_host = net.add_host(net::Ipv4(203, 0, 113, 10));
  net::Endpoint server_ep{server_host.addr(), 8388};

  GfwConfig base_config() {
    GfwConfig config;
    config.is_domestic = is_domestic;
    return config;
  }

  // A sink server: accepts and ignores everything.
  void install_sink() {
    server_host.listen(8388, [this](net::ConnectionHandle conn) {
      conn->set_callbacks({});
      sink_conns.push_back(std::move(conn));
    });
  }

  // A responding server: answers any data with random bytes (the paper's
  // Exp 1.b server).
  void install_responder() {
    server_host.listen(8388, [this](net::ConnectionHandle conn) {
      auto* raw = conn.get();
      net::ConnectionCallbacks cb;
      cb.on_data = [this, raw](ByteSpan) {
        crypto::Rng rng(static_cast<std::uint64_t>(sink_conns.size()));
        raw->send(rng.bytes(1 + rng.uniform(0, 999)));
      };
      conn->set_callbacks(std::move(cb));
      sink_conns.push_back(std::move(conn));
    });
  }

  std::vector<net::ConnectionHandle> sink_conns;
};

TEST_F(PipelineFixture, FlaggedConnectionProducesStage1Probes) {
  install_sink();
  Gfw gfw(net, base_config(), 0x11);
  net.add_middlebox(&gfw);

  crypto::Rng rng(1);
  gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(600));  // cover the heavy delay tail

  ASSERT_GT(gfw.log().size(), 0u);
  bool has_r1 = false;
  for (const auto& record : gfw.log().records()) {
    EXPECT_TRUE(record.type == probesim::ProbeType::kR1 ||
                record.type == probesim::ProbeType::kR2 ||
                record.type == probesim::ProbeType::kNR2)
        << probesim::probe_type_name(record.type);
    has_r1 |= record.type == probesim::ProbeType::kR1;
    EXPECT_EQ(record.server, server_ep);
  }
  EXPECT_TRUE(has_r1);
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, SinkServerNeverUnlocksStage2) {
  // Section 4.2: thousands of probes to sink servers were all R1/R2/NR2.
  install_sink();
  Gfw gfw(net, base_config(), 0x12);
  net.add_middlebox(&gfw);

  crypto::Rng rng(2);
  for (int i = 0; i < 20; ++i) gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(600));

  EXPECT_GT(gfw.log().size(), 20u);
  for (const auto& record : gfw.log().records()) {
    EXPECT_NE(record.type, probesim::ProbeType::kR3);
    EXPECT_NE(record.type, probesim::ProbeType::kR4);
    EXPECT_NE(record.type, probesim::ProbeType::kR5);
    EXPECT_NE(record.type, probesim::ProbeType::kNR1);
  }
  EXPECT_EQ(gfw.servers_in_stage2(), 0u);
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, RespondingServerUnlocksStage2) {
  // The paper's Exp 1.b: once the server answers probes with data, R3/R4
  // (and NR1) appear.
  install_responder();
  Gfw gfw(net, base_config(), 0x13);
  net.add_middlebox(&gfw);

  crypto::Rng rng(3);
  for (int i = 0; i < 6; ++i) gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(700));

  int stage2_probes = 0;
  for (const auto& record : gfw.log().records()) {
    if (record.type == probesim::ProbeType::kR3 ||
        record.type == probesim::ProbeType::kR4 ||
        record.type == probesim::ProbeType::kNR1) {
      ++stage2_probes;
    }
  }
  EXPECT_GT(stage2_probes, 10);
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, StagingAblationSendsStage2Immediately) {
  install_sink();
  GfwConfig config = base_config();
  config.enable_staging = false;
  Gfw gfw(net, config, 0x14);
  net.add_middlebox(&gfw);

  crypto::Rng rng(4);
  gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(60));

  int stage2_probes = 0;
  for (const auto& record : gfw.log().records()) {
    if (record.type == probesim::ProbeType::kR3 ||
        record.type == probesim::ProbeType::kR4 ||
        record.type == probesim::ProbeType::kNR1) {
      ++stage2_probes;
    }
  }
  // The ablated GFW probes a sink with stage-2 types — contradicting the
  // paper's observation, which is the point of the ablation.
  EXPECT_GT(stage2_probes, 0);
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, ReplayProbesReplayTheRecordedPayload) {
  install_sink();
  Gfw gfw(net, base_config(), 0x15);
  net.add_middlebox(&gfw);

  // Capture what the server receives.
  Bytes seen_payload;
  server_host.stop_listening(8388);
  server_host.listen(8388, [&](net::ConnectionHandle conn) {
    net::ConnectionCallbacks cb;
    cb.on_data = [&](ByteSpan data) {
      if (seen_payload.empty()) seen_payload.assign(data.begin(), data.end());
    };
    conn->set_callbacks(std::move(cb));
    sink_conns.push_back(std::move(conn));
  });

  crypto::Rng rng(5);
  const Bytes original = rng.bytes(594);
  gfw.flag_connection(server_ep, original);
  loop.run_until(net::hours(600));

  // The first replay-based probe that arrived must be R1 == original or a
  // byte-changed variant of it (same length).
  ASSERT_FALSE(seen_payload.empty());
  EXPECT_EQ(seen_payload.size(), original.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    differing += seen_payload[i] != original[i];
  }
  EXPECT_LE(differing, 10u);  // R1: 0; R2: 1; R3: 10; NR2 has length 221
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, ProbesCarryPoolFingerprints) {
  install_sink();
  Gfw gfw(net, base_config(), 0x16);
  net.add_middlebox(&gfw);

  crypto::Rng rng(6);
  for (int i = 0; i < 10; ++i) gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(600));

  ASSERT_GT(gfw.log().size(), 10u);
  for (const auto& record : gfw.log().records()) {
    EXPECT_TRUE(gfw.pool().is_prober_address(record.src_ip));
    EXPECT_GE(record.ttl, 46);
    EXPECT_LE(record.ttl, 50);
    EXPECT_GE(record.src_port, 1212);
    EXPECT_GE(record.tsval_process, 0);
    EXPECT_LT(record.tsval_process, 7);
    EXPECT_NE(record.asn, 0);
  }
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, PassiveClassifierTriggersOnRealFlows) {
  install_sink();
  GfwConfig config = base_config();
  config.classifier.base_rate = 1.0;  // always trigger when weight > 0
  Gfw gfw(net, config, 0x17);
  net.add_middlebox(&gfw);

  // A border-crossing connection whose first data packet is mid-band
  // high-entropy: guaranteed flag at base_rate 1.
  crypto::Rng rng(7);
  net::ConnectionCallbacks cb;
  auto conn = client_host.connect(server_ep, std::move(cb));
  loop.run_until(loop.now() + net::seconds(2));
  conn->send(rng.bytes(594));
  loop.run_until(loop.now() + net::seconds(2));

  EXPECT_EQ(gfw.flows_flagged(), 1u);
  EXPECT_GE(gfw.flows_inspected(), 1u);
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, OnlyFirstDataPacketIsClassified) {
  install_sink();
  GfwConfig config = base_config();
  config.classifier.base_rate = 1.0;
  Gfw gfw(net, config, 0x18);
  net.add_middlebox(&gfw);

  crypto::Rng rng(8);
  auto conn = client_host.connect(server_ep, {});
  loop.run_until(loop.now() + net::seconds(2));
  conn->send(rng.bytes(30));   // first packet: too short, not flagged
  loop.run_until(loop.now() + net::seconds(1));
  conn->send(rng.bytes(594));  // later packet: ignored by design
  loop.run_until(loop.now() + net::seconds(2));

  EXPECT_EQ(gfw.flows_flagged(), 0u);
  net.remove_middlebox(&gfw);
}

TEST_F(PipelineFixture, BlockedServerStopsCompletingHandshakes) {
  install_sink();
  GfwConfig config = base_config();
  config.blocking.block_probability = 1.0;
  config.blocking.confirmation_threshold = 0.01;  // one probe suffices here
  config.blocking.block_by_ip_fraction = 0.0;
  // Outlast the 600 simulated hours this test runs for.
  config.blocking.min_block_duration = net::hours(1000);
  config.blocking.max_block_duration = net::hours(1200);
  Gfw gfw(net, config, 0x19);
  net.add_middlebox(&gfw);

  crypto::Rng rng(9);
  gfw.flag_connection(server_ep, rng.bytes(594));
  loop.run_until(net::hours(600));
  ASSERT_TRUE(gfw.blocking().is_blocked(server_ep));

  bool connected = false;
  net::ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  auto conn = client_host.connect(server_ep, std::move(cb));
  loop.run_until(loop.now() + net::seconds(5));
  EXPECT_FALSE(connected);  // SYN passes, SYN/ACK is null-routed
  net.remove_middlebox(&gfw);
}

}  // namespace
}  // namespace gfwsim::gfw
