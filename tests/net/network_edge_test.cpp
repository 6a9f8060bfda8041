// Edge cases of the connection model: teardown orders, listener churn,
// window extremes, port exhaustion behaviour, and the ownership contract
// (the Network owns every connection; a handle's release frees it, after
// the dispatch into it returns when one is running).
#include <gtest/gtest.h>

#include "net/network.h"

namespace gfwsim::net {
namespace {

struct EdgeFixture : ::testing::Test {
  EventLoop loop;
  Network net{loop};
  Host& client = net.add_host(Ipv4(10, 0, 0, 1));
  Host& server = net.add_host(Ipv4(203, 0, 113, 5));
  Endpoint server_ep{Ipv4(203, 0, 113, 5), 8388};
  std::vector<ConnectionHandle> sessions;

  void listen_sink() {
    server.listen(8388, [this](ConnectionHandle conn) {
      conn->set_callbacks({});
      sessions.push_back(std::move(conn));
    });
  }
};

TEST_F(EdgeFixture, StopListeningRefusesNewConnections) {
  listen_sink();
  auto first = client.connect(server_ep, {});
  loop.run();
  EXPECT_EQ(first->state(), Connection::State::kEstablished);

  server.stop_listening(8388);
  bool rst = false;
  ConnectionCallbacks cb;
  cb.on_rst = [&] { rst = true; };
  auto second = client.connect(server_ep, std::move(cb));
  loop.run();
  EXPECT_TRUE(rst);
  // The established connection is unaffected.
  EXPECT_EQ(first->state(), Connection::State::kEstablished);
}

TEST_F(EdgeFixture, DoubleCloseAndCloseAfterResetAreIdempotent) {
  listen_sink();
  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->close();
  conn->close();  // no-op
  loop.run();
  conn->abort();  // after close: no crash
  SUCCEED();
}

TEST_F(EdgeFixture, AbortBeforeHandshakeCompletesQuietly) {
  listen_sink();
  auto conn = client.connect(server_ep, {});
  conn->abort();  // SYN still in flight
  loop.run();
  EXPECT_EQ(conn->state(), Connection::State::kReset);
}

TEST_F(EdgeFixture, SimultaneousCloseBothSidesEndClosed) {
  listen_sink();
  auto conn = client.connect(server_ep, {});
  loop.run();
  ASSERT_EQ(sessions.size(), 1u);
  conn->close();
  sessions[0]->close();
  loop.run();
  EXPECT_EQ(conn->state(), Connection::State::kClosed);
  EXPECT_EQ(sessions[0]->state(), Connection::State::kClosed);
}

TEST_F(EdgeFixture, SendAfterPeerFinIsHarmless) {
  listen_sink();
  auto conn = client.connect(server_ep, {});
  loop.run();
  sessions[0]->close();
  loop.run();
  conn->send(to_bytes("late data"));  // peer already gone
  loop.run();
  SUCCEED();
}

TEST_F(EdgeFixture, TinyWindowStillDeliversEverything) {
  Bytes received;
  server.listen(8388, [&](ConnectionHandle conn) {
    conn->set_recv_window(1);  // pathological clamp
    ConnectionCallbacks cb;
    cb.on_data = [&received](ByteSpan d) { append(received, d); };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });
  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->send(Bytes(100, 0x42));
  loop.run();
  EXPECT_EQ(received.size(), 100u);  // 100 one-byte segments
}

TEST_F(EdgeFixture, EphemeralPortsWrapWithinLinuxRange) {
  listen_sink();
  std::set<std::uint16_t> ports;
  // Push the allocator past its wrap point.
  std::vector<ConnectionHandle> conns;
  for (int i = 0; i < 300; ++i) {
    auto conn = client.connect(server_ep, {});
    EXPECT_GE(conn->local().port, 32768);
    EXPECT_LT(conn->local().port, 61000);
    ports.insert(conn->local().port);
    conn->abort();
  }
  EXPECT_GT(ports.size(), 250u);
}

TEST_F(EdgeFixture, EphemeralAllocatorSkipsPortsHeldByLiveConnections) {
  listen_sink();
  auto held = client.connect(server_ep, {});
  loop.run();
  ASSERT_EQ(held->local().port, 32768);

  // Churn through the rest of the range so the allocator's counter wraps
  // back around to the held port.
  constexpr int kRange = 61000 - 32768;
  for (int i = 0; i < kRange - 1; ++i) {
    auto conn = client.connect(server_ep, {});
    EXPECT_NE(conn->local().port, 32768) << "allocator reused a held port";
    conn->abort();
  }

  // 32768 is still owned by the live connection: the allocator must skip
  // it rather than hand out a colliding 4-tuple.
  auto next = client.connect(server_ep, {});
  EXPECT_EQ(next->local().port, 32769);
  EXPECT_EQ(held->state(), Connection::State::kEstablished);
}

TEST_F(EdgeFixture, TapObservesDropsWithVerdict) {
  struct DropData : Middlebox {
    Verdict on_segment(const Segment& seg) override {
      return seg.is_data() ? Verdict::kDrop : Verdict::kPass;
    }
  } box;
  net.add_middlebox(&box);

  int dropped = 0, passed = 0;
  net.set_tap([&](const SegmentRecord& rec) { (rec.dropped ? dropped : passed) += 1; });

  listen_sink();
  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->send(to_bytes("eaten"));
  loop.run();
  EXPECT_EQ(dropped, 1);
  EXPECT_GE(passed, 3);  // handshake
  EXPECT_EQ(sessions[0]->bytes_received(), 0u);
  net.remove_middlebox(&box);
}

TEST_F(EdgeFixture, SegmentRecordCarriesArrivalTime) {
  net.set_default_latency(milliseconds(25));
  std::vector<SegmentRecord> pcap;
  net.set_tap([&](const SegmentRecord& rec) { pcap.push_back(rec); });
  listen_sink();
  auto conn = client.connect(server_ep, {});
  loop.run();
  ASSERT_FALSE(pcap.empty());
  EXPECT_EQ(pcap[0].arrive_at - pcap[0].segment.sent_at, milliseconds(25));
}

TEST_F(EdgeFixture, AcceptorThatDropsItsHandleStillAnswersThenResetsData) {
  server.listen(8388, [](ConnectionHandle conn) { conn->set_callbacks({}); });
  const std::size_t live_before = Connection::live_count();
  bool connected = false;
  bool rst = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  cb.on_rst = [&] { rst = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run();

  // The SYN/ACK went out before the server side was freed and left the
  // registry; only the client's connection remains.
  EXPECT_TRUE(connected);
  EXPECT_EQ(Connection::live_count(), live_before + 1);
  const TeardownReport report = net.teardown_report();
  EXPECT_EQ(report.live_established, 1u);
  EXPECT_EQ(report.embryonic, 0u);
  EXPECT_EQ(report.expired_registrations, 0u);

  conn->send(to_bytes("anyone there?"));
  loop.run();
  EXPECT_TRUE(rst);
  EXPECT_EQ(conn->state(), Connection::State::kReset);
}

TEST_F(EdgeFixture, HandleReleasedInsideItsOwnCallbackFreesAfterItReturns) {
  listen_sink();
  // Each callback releases its own connection and then reads its capture.
  // The closure lives inside the connection, so the read is only sound if
  // the free waits for the callback to return (ASan checks it).
  const auto connect_releasing = [this](ConnectionHandle& handle, std::size_t& live_inside) {
    const auto release = [&handle, &live_inside, tag = std::string(64, 'x')] {
      handle.reset();
      live_inside = Connection::live_count() + (tag.size() - 64);
    };
    ConnectionCallbacks cb;
    cb.on_data = [release](ByteSpan) { release(); };
    cb.on_rst = release;
    handle = client.connect(server_ep, std::move(cb));
  };
  ConnectionHandle on_data_conn;
  ConnectionHandle on_rst_conn;
  std::size_t live_in_on_data = 0;
  std::size_t live_in_on_rst = 0;
  connect_releasing(on_data_conn, live_in_on_data);
  connect_releasing(on_rst_conn, live_in_on_rst);
  loop.run();
  ASSERT_EQ(sessions.size(), 2u);
  const std::size_t live = Connection::live_count();

  sessions[0]->send(to_bytes("hello"));
  loop.run();
  EXPECT_FALSE(on_data_conn);
  EXPECT_EQ(live_in_on_data, live);
  EXPECT_EQ(Connection::live_count(), live - 1);

  sessions[1]->abort();
  loop.run();
  EXPECT_FALSE(on_rst_conn);
  EXPECT_EQ(live_in_on_rst, live - 1);
  EXPECT_EQ(Connection::live_count(), live - 2);
  EXPECT_EQ(net.teardown_report().expired_registrations, 0u);
}

TEST_F(EdgeFixture, ReleasedArqConnectionLeavesItsTimersToFireAsNoOps) {
  net.force_arq(true);
  std::size_t segments = 0;
  net.set_tap([&](const SegmentRecord&) { ++segments; });
  // Nobody answers at this address: the SYN retry and idle timers stay
  // armed.
  auto conn = client.connect(Endpoint{Ipv4(198, 51, 100, 1), 80}, {});
  loop.run_until(milliseconds(10));
  const std::size_t pending = loop.pending();
  const std::size_t segments_before = segments;

  conn.reset();
  EXPECT_EQ(loop.pending(), pending);  // freeing cancels nothing

  loop.run();  // the timers fire and find no connection
  EXPECT_EQ(segments, segments_before);
  EXPECT_EQ(net.retransmissions(), 0u);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST_F(EdgeFixture, StaleIdResolvesToNullAfterItsSlotIsReused) {
  listen_sink();
  auto first = client.connect(server_ep, {});
  const ConnId stale = first->id();
  EXPECT_EQ(net.connection(stale), first.get());
  first.reset();
  EXPECT_EQ(net.connection(stale), nullptr);

  auto second = client.connect(server_ep, {});
  // Same slot (the low 32 bits), newer generation.
  ASSERT_EQ(static_cast<std::uint32_t>(second->id()), static_cast<std::uint32_t>(stale));
  EXPECT_NE(second->id(), stale);
  EXPECT_EQ(net.connection(stale), nullptr);
  EXPECT_EQ(net.connection(second->id()), second.get());
}

}  // namespace
}  // namespace gfwsim::net
