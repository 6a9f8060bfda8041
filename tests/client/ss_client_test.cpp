// Client <-> server interop over the simulated network.
#include <gtest/gtest.h>

#include <algorithm>

#include "client/ss_client.h"
#include "probesim/probesim.h"
#include "servers/upstream.h"

namespace gfwsim::client {
namespace {

struct ClientFixture : ::testing::Test {
  net::EventLoop loop;
  net::Network net{loop};
  servers::SimulatedInternet internet{crypto::Rng(42)};
  net::Host& client_host = net.add_host(net::Ipv4(116, 1, 1, 1));
  net::Host& server_host = net.add_host(net::Ipv4(203, 0, 113, 10));
  net::Endpoint server_ep{server_host.addr(), 8388};
  std::unique_ptr<servers::ProxyServerBase> server;
  // example.com's response, long enough to span several segments.
  const Bytes response = servers::fixed_http_responder(4000)({});

  void install(probesim::ServerSetup::Impl impl, const std::string& cipher) {
    internet.add_site("example.com", servers::fixed_http_responder(4000));
    probesim::ServerSetup setup;
    setup.impl = impl;
    setup.cipher = cipher;
    server = probesim::make_server(setup, loop, &internet, 7);
    server->install(server_host, 8388);
  }

  ClientConfig client_config(const std::string& cipher) {
    ClientConfig config;
    config.cipher = proxy::find_cipher(cipher);
    config.password = "correct horse battery staple";
    return config;
  }
};

struct FetchCase {
  probesim::ServerSetup::Impl impl;
  const char* cipher;

  // Names the test case by value; gtest would otherwise print the enum's raw
  // bytes and the cipher's address, which changes with every build.
  friend void PrintTo(const FetchCase& c, std::ostream* os) {
    *os << probesim::impl_name(c.impl) << ", " << c.cipher;
  }
};

class ClientServerMatrix : public ClientFixture,
                           public ::testing::WithParamInterface<FetchCase> {};

TEST_P(ClientServerMatrix, FetchRoundTrip) {
  const auto [impl, cipher] = GetParam();
  install(impl, cipher);
  SsClient client(client_host, server_ep, client_config(cipher));

  auto fetch = client.fetch(proxy::TargetSpec::hostname("example.com", 80),
                            to_bytes("GET / HTTP/1.1\r\n\r\n"));
  loop.run_until(net::seconds(30));

  // Every plaintext byte is counted; only the first kHeadBytes are kept.
  ASSERT_EQ(fetch->state(), Fetch::State::kDone);
  EXPECT_EQ(fetch->response_bytes(), response.size());
  ASSERT_EQ(fetch->response_head().size(), Fetch::kHeadBytes);
  EXPECT_EQ(to_string(fetch->response_head().first(15)), "HTTP/1.1 200 OK");
  EXPECT_TRUE(std::equal(fetch->response_head().begin(), fetch->response_head().end(),
                         response.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ClientServerMatrix,
    ::testing::Values(
        FetchCase{probesim::ServerSetup::Impl::kLibevOld, "aes-256-cfb"},
        FetchCase{probesim::ServerSetup::Impl::kLibevOld, "rc4-md5"},
        FetchCase{probesim::ServerSetup::Impl::kLibevOld, "chacha20"},
        FetchCase{probesim::ServerSetup::Impl::kLibevOld, "aes-128-gcm"},
        FetchCase{probesim::ServerSetup::Impl::kLibevNew, "aes-256-ctr"},
        FetchCase{probesim::ServerSetup::Impl::kLibevNew, "aes-256-gcm"},
        FetchCase{probesim::ServerSetup::Impl::kOutline106, "chacha20-ietf-poly1305"},
        FetchCase{probesim::ServerSetup::Impl::kOutline107, "chacha20-ietf-poly1305"},
        FetchCase{probesim::ServerSetup::Impl::kOutline110, "chacha20-ietf-poly1305"}));

TEST_F(ClientFixture, WrongPasswordFailsAgainstAead) {
  install(probesim::ServerSetup::Impl::kOutline107, "chacha20-ietf-poly1305");
  ClientConfig config = client_config("chacha20-ietf-poly1305");
  config.password = "wrong password";
  SsClient client(client_host, server_ep, config);

  auto fetch = client.fetch(proxy::TargetSpec::hostname("example.com", 80),
                            to_bytes("GET /"));
  loop.run_until(net::seconds(30));
  EXPECT_NE(fetch->state(), Fetch::State::kDone);
  EXPECT_EQ(fetch->response_bytes(), 0u);
  EXPECT_TRUE(fetch->response_head().empty());
}

TEST_F(ClientFixture, HardenedClientTalksToHardenedServer) {
  install(probesim::ServerSetup::Impl::kHardened, "chacha20-ietf-poly1305");
  ClientConfig config = client_config("chacha20-ietf-poly1305");
  config.embed_timestamp = true;
  SsClient client(client_host, server_ep, config);

  auto fetch = client.fetch(proxy::TargetSpec::hostname("example.com", 80),
                            to_bytes("GET /"));
  loop.run_until(net::seconds(30));
  ASSERT_EQ(fetch->state(), Fetch::State::kDone);
}

TEST_F(ClientFixture, MergedHeaderChangesFirstPacketSize) {
  install(probesim::ServerSetup::Impl::kOutline107, "chacha20-ietf-poly1305");

  ClientConfig classic = client_config("chacha20-ietf-poly1305");
  ClientConfig merged = classic;
  merged.merge_header_and_data = true;

  SsClient client_a(client_host, server_ep, classic, 1);
  SsClient client_b(client_host, server_ep, merged, 2);

  auto fetch_a = client_a.fetch(proxy::TargetSpec::hostname("example.com", 80),
                                to_bytes("GET /"));
  auto fetch_b = client_b.fetch(proxy::TargetSpec::hostname("example.com", 80),
                                to_bytes("GET /"));
  loop.run_until(net::seconds(30));

  ASSERT_EQ(fetch_a->state(), Fetch::State::kDone);
  ASSERT_EQ(fetch_b->state(), Fetch::State::kDone);
  // Merging drops one chunk's framing overhead (2 + 16 + 16 bytes).
  EXPECT_EQ(fetch_a->first_packet_size() - fetch_b->first_packet_size(), 34u);
}

// A bare TCP listener standing in for the server: it answers the first
// data it receives with `response`.
struct Sink {
  std::vector<net::ConnectionHandle> conns;
  Bytes seen;
  bool answered = false;

  void listen(net::Host& host, Bytes response) {
    host.listen(8388, [this, response](net::ConnectionHandle conn) {
      net::Connection* raw = conn.get();
      conns.push_back(std::move(conn));
      net::ConnectionCallbacks cb;
      cb.on_data = [this, raw, response](ByteSpan data) {
        append(seen, data);
        if (!answered) raw->send(response);
        answered = true;
      };
      raw->set_callbacks(std::move(cb));
    });
  }
};

// A closed fetch reads nothing more: a reply already in flight when the
// client closes is dropped undecrypted, so garbage that would fail AEAD
// authentication neither counts nor makes the client abort.
TEST_F(ClientFixture, DataAfterCloseIsDroppedUndecrypted) {
  bool client_sent_rst = false;
  net.set_tap([&](const net::SegmentRecord& rec) {
    if (rec.segment.src.addr == client_host.addr() && rec.segment.has(net::TcpFlag::kRst)) {
      client_sent_rst = true;
    }
  });
  Sink sink;
  sink.listen(server_host, Bytes(200, 0x5a));
  SsClient client(client_host, server_ep, client_config("chacha20-ietf-poly1305"));

  auto fetch = client.fetch(proxy::TargetSpec::hostname("example.com", 80),
                            to_bytes("GET /"));
  while (!sink.answered) ASSERT_EQ(loop.run(1), 1u);
  fetch->close();
  loop.run_until(net::seconds(10));

  EXPECT_EQ(fetch->response_bytes(), 0u);
  EXPECT_EQ(fetch->state(), Fetch::State::kAwaitingResponse);
  EXPECT_FALSE(client_sent_rst);
}

TEST_F(ClientFixture, RawSendReachesSink) {
  Sink sink;
  sink.listen(server_host, response);
  SsClient client(client_host, server_ep, client_config("aes-256-gcm"));
  auto fetch = client.send_raw(to_bytes("raw bytes, no framing"));
  loop.run_until(net::seconds(10));
  EXPECT_EQ(to_string(sink.seen), "raw bytes, no framing");
  EXPECT_EQ(fetch->first_packet_size(), sink.seen.size());

  // Raw mode counts the reply as it arrived.
  ASSERT_EQ(fetch->state(), Fetch::State::kDone);
  EXPECT_EQ(fetch->response_bytes(), response.size());
  ASSERT_EQ(fetch->response_head().size(), Fetch::kHeadBytes);
  EXPECT_TRUE(std::equal(fetch->response_head().begin(), fetch->response_head().end(),
                         response.begin()));
}

// A server timer that outlives its session must find nothing, even when a
// newer connection's session has taken its place. The fetch's upstream
// reply is due 80 ms after its first flight reaches the server; the fetch
// closes before that, and a silent connection is accepted in between.
TEST_F(ClientFixture, StaleUpstreamReplyNeverReachesANewerConnection) {
  net.set_default_latency(net::milliseconds(10));
  install(probesim::ServerSetup::Impl::kLibevNew, "chacha20-ietf-poly1305");
  SsClient client(client_host, server_ep, client_config("chacha20-ietf-poly1305"));
  auto fetch = client.fetch(proxy::TargetSpec::hostname("example.com", 80),
                            to_bytes("GET / HTTP/1.1\r\n\r\n"));
  loop.run_until(net::milliseconds(35));
  fetch->close();
  loop.run_until(net::milliseconds(36));

  std::size_t silent_bytes = 0;
  net::ConnectionCallbacks cb;
  cb.on_data = [&silent_bytes](ByteSpan data) { silent_bytes += data.size(); };
  net::ConnectionHandle silent = client_host.connect(server_ep, std::move(cb));
  loop.run_until(net::seconds(2));

  EXPECT_EQ(silent->state(), net::Connection::State::kEstablished);
  EXPECT_EQ(silent_bytes, 0u);
}

}  // namespace
}  // namespace gfwsim::client
