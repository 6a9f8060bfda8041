// Connection semantics, middlebox filtering, window clamping, taps.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace gfwsim::net {
namespace {

struct Fixture : ::testing::Test {
  EventLoop loop;
  Network net{loop};
  Host& client = net.add_host(Ipv4(10, 0, 0, 1));
  Host& server = net.add_host(Ipv4(203, 0, 113, 5));
  Endpoint server_ep{Ipv4(203, 0, 113, 5), 8388};
};

// Echo acceptor: sends back whatever arrives.
Host::Acceptor echo_acceptor(std::vector<ConnectionHandle>& keep) {
  return [&keep](ConnectionHandle conn) {
    auto* raw = conn.get();
    ConnectionCallbacks cb;
    cb.on_data = [raw](ByteSpan data) { raw->send(data); };
    conn->set_callbacks(std::move(cb));
    keep.push_back(std::move(conn));
  };
}

TEST_F(Fixture, HandshakeThenDataRoundTrip) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));

  bool connected = false;
  Bytes received;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  cb.on_data = [&](ByteSpan d) { append(received, d); };
  auto conn = client.connect(server_ep, std::move(cb));

  loop.run();
  EXPECT_TRUE(connected);
  ASSERT_EQ(sessions.size(), 1u);

  conn->send(to_bytes("hello"));
  loop.run();
  EXPECT_EQ(to_string(received), "hello");
  EXPECT_EQ(conn->bytes_sent(), 5u);
  EXPECT_EQ(sessions[0]->bytes_received(), 5u);
}

TEST_F(Fixture, ConnectionRefusedYieldsRst) {
  bool rst = false, connected = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  cb.on_rst = [&] { rst = true; };
  auto conn = client.connect(server_ep, std::move(cb));  // nobody listening
  loop.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(rst);
  EXPECT_EQ(conn->state(), Connection::State::kReset);
}

TEST_F(Fixture, ConnectToNonexistentHostHangs) {
  bool any = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { any = true; };
  cb.on_rst = [&] { any = true; };
  auto conn = client.connect(Endpoint{Ipv4(8, 8, 8, 8), 80}, std::move(cb));
  loop.run();
  EXPECT_FALSE(any);
  EXPECT_EQ(conn->state(), Connection::State::kConnecting);
}

TEST_F(Fixture, ServerCloseDeliversFinToClient) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, [&](ConnectionHandle conn) {
    auto* raw = conn.get();
    ConnectionCallbacks cb;
    cb.on_data = [raw](ByteSpan) { raw->close(); };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });

  bool fin = false;
  ConnectionCallbacks cb;
  cb.on_fin = [&] { fin = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run();
  conn->send(to_bytes("x"));
  loop.run();
  EXPECT_TRUE(fin);
}

TEST_F(Fixture, ServerAbortDeliversRstToClient) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, [&](ConnectionHandle conn) {
    auto* raw = conn.get();
    ConnectionCallbacks cb;
    cb.on_data = [raw](ByteSpan) { raw->abort(); };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });

  bool rst = false;
  ConnectionCallbacks cb;
  cb.on_rst = [&] { rst = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run();
  conn->send(to_bytes("x"));
  loop.run();
  EXPECT_TRUE(rst);
  EXPECT_EQ(conn->state(), Connection::State::kReset);
}

TEST_F(Fixture, LargePayloadIsSegmentedByMss) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));

  int client_data_segments = 0;
  net.set_tap([&](const SegmentRecord& rec) {
    if (rec.segment.is_data() && rec.segment.src.addr == client.addr()) {
      ++client_data_segments;
    }
  });

  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->send(Bytes(4000, 0xab));
  loop.run();
  EXPECT_EQ(client_data_segments, 3);  // ceil(4000 / 1448)
}

TEST_F(Fixture, ClampedServerWindowSplitsFirstClientPayload) {
  // The brdgrd mechanism: server advertises a tiny window in its SYN/ACK,
  // so the client's first payload arrives as many small segments.
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, [&](ConnectionHandle conn) {
    conn->set_recv_window(64);
    conn->set_callbacks({});
    sessions.push_back(std::move(conn));
  });

  std::vector<std::size_t> sizes;
  net.set_tap([&](const SegmentRecord& rec) {
    if (rec.segment.is_data()) sizes.push_back(rec.segment.payload.size());
  });

  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->send(Bytes(300, 0x01));
  loop.run();
  ASSERT_EQ(sizes.size(), 5u);  // ceil(300/64)
  EXPECT_EQ(sizes[0], 64u);
  EXPECT_EQ(sizes.back(), 300u % 64);
}

TEST_F(Fixture, WindowUpdateRestoresFullSegments) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, [&](ConnectionHandle conn) {
    conn->set_recv_window(64);
    conn->set_callbacks({});
    sessions.push_back(std::move(conn));
  });

  auto conn = client.connect(server_ep, {});
  loop.run();
  EXPECT_EQ(conn->peer_window(), 64u);
  sessions[0]->set_recv_window(65535);
  loop.run();
  EXPECT_EQ(conn->peer_window(), 65535u);
}

struct DropAll : Middlebox {
  std::function<bool(const Segment&)> predicate;
  int dropped = 0;
  Verdict on_segment(const Segment& seg) override {
    if (predicate(seg)) {
      ++dropped;
      return Verdict::kDrop;
    }
    return Verdict::kPass;
  }
};

TEST_F(Fixture, MiddleboxCanNullRouteServerToClient) {
  // Reproduces the GFW's blocking mode: only server->client segments are
  // dropped, so the handshake never completes.
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));

  DropAll gfw;
  gfw.predicate = [&](const Segment& seg) { return seg.src.addr == server.addr(); };
  net.add_middlebox(&gfw);

  bool connected = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run();
  EXPECT_FALSE(connected);
  EXPECT_GT(gfw.dropped, 0);
  EXPECT_EQ(net.segments_dropped(), static_cast<std::size_t>(gfw.dropped));

  net.remove_middlebox(&gfw);
}

TEST_F(Fixture, TapSeesHeadersAndHandshake) {
  std::vector<SegmentRecord> pcap;
  net.set_tap([&](const SegmentRecord& rec) { pcap.push_back(rec); });
  server.listen(8388, [](ConnectionHandle conn) { conn->set_callbacks({}); });

  HeaderProfile prober_header;
  prober_header.ttl = 47;
  prober_header.tsval = [](TimePoint t) {
    return static_cast<std::uint32_t>(t.count() / 4000000);  // 250 Hz
  };
  ConnectOptions opts;
  opts.header = prober_header;
  opts.src_port = 45123;

  auto conn = client.connect(server_ep, {}, opts);
  loop.run();

  ASSERT_GE(pcap.size(), 3u);  // SYN, SYN/ACK, ACK
  const Segment& syn = pcap[0].segment;
  EXPECT_TRUE(syn.has(TcpFlag::kSyn));
  EXPECT_FALSE(syn.has(TcpFlag::kAck));
  EXPECT_EQ(syn.ttl, 47);
  EXPECT_EQ(syn.src.port, 45123);
  const Segment& synack = pcap[1].segment;
  EXPECT_TRUE(synack.has(TcpFlag::kSyn));
  EXPECT_TRUE(synack.has(TcpFlag::kAck));
  EXPECT_EQ(synack.src, server_ep);
}

TEST_F(Fixture, LatencyOverridesApply) {
  net.set_default_latency(milliseconds(100));
  net.set_latency(client.addr(), server.addr(), milliseconds(10));
  server.listen(8388, [](ConnectionHandle conn) { conn->set_callbacks({}); });

  TimePoint connected_at{};
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected_at = loop.now(); };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run();
  EXPECT_EQ(connected_at, milliseconds(20));  // SYN + SYN/ACK, 10 ms each way
}

TEST_F(Fixture, EphemeralPortsAdvance) {
  server.listen(8388, [](ConnectionHandle conn) { conn->set_callbacks({}); });
  auto c1 = client.connect(server_ep, {});
  auto c2 = client.connect(server_ep, {});
  EXPECT_NE(c1->local().port, c2->local().port);
  EXPECT_GE(c1->local().port, 32768);
}

TEST_F(Fixture, DataToVanishedConnectionGetsRst) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  auto conn = client.connect(server_ep, {});
  loop.run();
  // Server app drops its reference and the connection is aborted locally.
  sessions[0]->abort();
  sessions.clear();
  loop.run();
  // Client (already reset) sends anyway -> nothing crashes.
  conn->send(to_bytes("late"));
  loop.run();
  SUCCEED();
}

}  // namespace
}  // namespace gfwsim::net
