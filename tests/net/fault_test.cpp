// Fault layer + minimal ARQ + teardown watchdog.
//
// The first test is the PR's acceptance criterion: wiring the fault API
// with an all-zero profile must leave the wire transcript byte-identical
// to a network that never heard of faults. The rest exercise each
// impairment (loss, outage, duplication, reorder) with its drop-cause
// accounting, the ARQ recovery paths (SYN retry, RTO retransmission,
// dedup, idle watchdog), and the teardown report's leak classification.
#include <gtest/gtest.h>

#include <string>
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

  Ipv4 client_ip{10, 0, 0, 1};
  Ipv4 server_ip{203, 0, 113, 5};
};

Host::Acceptor echo_acceptor(std::vector<ConnectionHandle>& keep) {
  return [&keep](ConnectionHandle conn) {
    auto* raw = conn.get();
    ConnectionCallbacks cb;
    cb.on_data = [raw](ByteSpan data) { raw->send(data); };
    conn->set_callbacks(std::move(cb));
    keep.push_back(std::move(conn));
  };
}

// Serializes one tap record into a comparable line.
std::string record_line(const SegmentRecord& r) {
  std::string line = r.segment.src.to_string() + ">" + r.segment.dst.to_string() +
                     " " + r.segment.flags_to_string() + " len=" +
                     std::to_string(r.segment.payload.size()) + " seq=" +
                     std::to_string(r.segment.seq) + " ack=" +
                     std::to_string(r.segment.ack_seq) + " rtx=" +
                     std::to_string(r.segment.retransmission) + " sent=" +
                     std::to_string(r.segment.sent_at.count()) + " arrive=" +
                     std::to_string(r.arrive_at.count()) + " drop=" +
                     std::to_string(r.dropped) + " cause=" +
                     std::to_string(static_cast<int>(r.cause)) + " dup=" +
                     std::to_string(r.duplicate) + " fdelay=" +
                     std::to_string(r.fault_delay.count());
  return line;
}

// Runs a small exchange (handshake, echo round trip, close) and returns
// the full tap transcript. `wire_faults` wires the fault API with an
// all-zero profile; the transcript must not change.
std::vector<std::string> exchange_transcript(bool wire_faults) {
  EventLoop loop;
  Network net{loop};
  Host& client = net.add_host(Ipv4(10, 0, 0, 1));
  Host& server = net.add_host(Ipv4(203, 0, 113, 5));
  if (wire_faults) {
    net.set_fault_seed(0xFA17);
    net.set_default_faults(FaultProfile{});  // all zeros: provably inert
    net.set_arq(ArqConfig{});
  }

  std::vector<std::string> transcript;
  net.set_tap([&](const SegmentRecord& r) { transcript.push_back(record_line(r)); });

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  ConnectionCallbacks cb;
  auto conn = client.connect({Ipv4(203, 0, 113, 5), 8388}, std::move(cb));
  loop.run();
  conn->send(to_bytes("hello"));
  loop.run();
  conn->close();
  loop.run();
  return transcript;
}

TEST(FaultInertness, ZeroProfileTranscriptIsByteIdentical) {
  const auto ideal = exchange_transcript(/*wire_faults=*/false);
  const auto wired = exchange_transcript(/*wire_faults=*/true);
  ASSERT_FALSE(ideal.empty());
  EXPECT_EQ(ideal, wired);
}

TEST_F(Fixture, ZeroProfileLeavesArqOffAndCountersZero) {
  net.set_fault_seed(1);
  net.set_default_faults(FaultProfile{});
  EXPECT_FALSE(net.faults_enabled());
  EXPECT_FALSE(net.arq_enabled());

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->send(to_bytes("x"));
  loop.run();

  EXPECT_FALSE(conn->arq_active());
  EXPECT_EQ(net.segments_dropped_loss(), 0u);
  EXPECT_EQ(net.segments_duplicated(), 0u);
  EXPECT_EQ(net.segments_reordered(), 0u);
  EXPECT_EQ(net.retransmissions(), 0u);
  EXPECT_EQ(loop.pending(), 0u);  // no ARQ timers were armed
}

TEST_F(Fixture, FullLossDropsEverySegmentWithCauseLoss) {
  FaultProfile lossy;
  lossy.loss = 1.0;
  net.set_fault_seed(7);
  net.set_default_faults(lossy);
  net.force_arq(false);  // observe raw loss without retransmission

  std::vector<SegmentRecord> records;
  net.set_tap([&](const SegmentRecord& r) { records.push_back(r); });

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  bool connected = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  client.connect(server_ep, std::move(cb));
  loop.run();

  EXPECT_FALSE(connected);  // even the SYN died
  ASSERT_FALSE(records.empty());
  for (const auto& r : records) {
    EXPECT_TRUE(r.dropped);
    EXPECT_EQ(r.cause, DropCause::kLoss);
  }
  EXPECT_EQ(net.segments_dropped_loss(), net.segments_transmitted());
  EXPECT_EQ(net.segments_dropped(), net.segments_dropped_loss());
  EXPECT_EQ(net.segments_delivered(), 0u);
}

TEST_F(Fixture, OutageDropsWithCauseOutageAndNoRngDraws) {
  FaultProfile profile;
  profile.outages.push_back({TimePoint{0}, hours(1)});
  net.set_fault_seed(7);
  net.set_default_faults(profile);
  net.force_arq(false);

  std::vector<SegmentRecord> records;
  net.set_tap([&](const SegmentRecord& r) { records.push_back(r); });

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  client.connect(server_ep, {});
  loop.run_until(minutes(1));

  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].cause, DropCause::kOutage);
  EXPECT_GT(net.segments_dropped_outage(), 0u);
  EXPECT_EQ(net.segments_dropped_loss(), 0u);
}

TEST_F(Fixture, FlapWindowDropsOnlyDuringDownPhase) {
  FaultProfile profile;
  profile.flap_period = seconds(10);
  profile.flap_down = seconds(2);
  EXPECT_TRUE(profile.down_at(TimePoint{seconds(0)}));
  EXPECT_TRUE(profile.down_at(TimePoint{seconds(11)}));
  EXPECT_FALSE(profile.down_at(TimePoint{seconds(5)}));
  EXPECT_FALSE(profile.down_at(TimePoint{seconds(19)}));
}

TEST_F(Fixture, DuplicationWithoutArqReachesTheAppTwice) {
  FaultProfile dup;
  dup.duplicate = 1.0;
  net.set_fault_seed(7);
  net.set_faults(client_ip, server_ip, dup);  // only client -> server
  net.force_arq(false);

  std::vector<ConnectionHandle> sessions;
  int deliveries = 0;
  server.listen(8388, [&](ConnectionHandle conn) {
    ConnectionCallbacks cb;
    cb.on_data = [&](ByteSpan) { ++deliveries; };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });
  auto conn = client.connect(server_ep, {});
  loop.run();
  conn->send(to_bytes("x"));
  loop.run();

  EXPECT_EQ(deliveries, 2);  // without ARQ nothing dedups the wire copy
  EXPECT_GT(net.segments_duplicated(), 0u);
}

TEST_F(Fixture, ArqSuppressesDuplicateDeliveries) {
  FaultProfile dup;
  dup.duplicate = 1.0;
  net.set_fault_seed(7);
  net.set_faults(client_ip, server_ip, dup);  // ARQ auto-enables

  std::vector<ConnectionHandle> sessions;
  int deliveries = 0;
  server.listen(8388, [&](ConnectionHandle conn) {
    ConnectionCallbacks cb;
    cb.on_data = [&](ByteSpan) { ++deliveries; };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });
  auto conn = client.connect(server_ep, {});
  // Bounded runs: loop.run() would also fire the ARQ idle watchdog ten
  // idle minutes later and reap the connection under test.
  loop.run_until(seconds(5));
  EXPECT_TRUE(conn->arq_active());
  conn->send(to_bytes("x"));
  loop.run_until(seconds(10));

  EXPECT_EQ(deliveries, 1);
  EXPECT_GT(net.segments_duplicated(), 0u);
}

TEST_F(Fixture, ReorderDelaysSegmentsAndCounts) {
  FaultProfile profile;
  profile.reorder = 1.0;
  profile.reorder_delay = milliseconds(120);
  net.set_fault_seed(7);
  net.set_faults(client_ip, server_ip, profile);
  net.force_arq(false);

  std::vector<SegmentRecord> records;
  net.set_tap([&](const SegmentRecord& r) { records.push_back(r); });

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  auto conn = client.connect(server_ep, {});
  loop.run();
  records.clear();
  conn->send(to_bytes("x"));
  loop.run();

  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].fault_delay, milliseconds(120));
  EXPECT_GT(net.segments_reordered(), 0u);
}

TEST_F(Fixture, SynRetryEstablishesThroughTransientOutage) {
  // Outage covers the initial SYN (t=0) and the first retry (t=1s); the
  // second retry at t=3s gets through.
  FaultProfile profile;
  profile.outages.push_back({TimePoint{0}, milliseconds(2500)});
  net.set_fault_seed(7);
  net.set_default_faults(profile);

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  bool connected = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run_until(seconds(10));

  EXPECT_TRUE(connected);
  EXPECT_EQ(conn->state(), Connection::State::kEstablished);
  EXPECT_GT(net.retransmissions(), 0u);  // the retried SYNs
}

TEST_F(Fixture, SynRetryExhaustionFiresOnTimeout) {
  net.force_arq(true);
  bool timed_out = false, rst = false;
  ConnectionCallbacks cb;
  cb.on_timeout = [&] { timed_out = true; };
  cb.on_rst = [&] { rst = true; };
  // Nonexistent host: every SYN vanishes. Retries at 1,3,7,15s; the
  // exhausted timer at 31s fails the connection.
  auto conn = client.connect({Ipv4(8, 8, 8, 8), 80}, std::move(cb));
  loop.run();

  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(rst);  // on_timeout takes precedence when installed
  EXPECT_EQ(conn->state(), Connection::State::kReset);
  EXPECT_EQ(net.retransmissions(), 4u);  // max_syn_retries
  EXPECT_EQ(loop.now(), seconds(31));
  EXPECT_EQ(net.teardown_report().embryonic, 0u);  // failed conns unregister
}

TEST_F(Fixture, RtoRetransmitsUnderFullAckLossThenGivesUp) {
  net.force_arq(true);

  std::vector<ConnectionHandle> sessions;
  int deliveries = 0;
  server.listen(8388, [&](ConnectionHandle conn) {
    ConnectionCallbacks cb;
    cb.on_data = [&](ByteSpan) { ++deliveries; };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });
  bool timed_out = false;
  ConnectionCallbacks cb;
  cb.on_timeout = [&] { timed_out = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run_until(seconds(2));  // bounded: keep the idle watchdog out of it
  ASSERT_EQ(conn->state(), Connection::State::kEstablished);

  // Handshake is done; now every server -> client segment (i.e. the ACKs)
  // is lost, so the client retransmits until its retries are exhausted.
  FaultProfile ack_loss;
  ack_loss.loss = 1.0;
  net.set_fault_seed(7);
  net.set_faults(server_ip, client_ip, ack_loss);

  conn->send(to_bytes("payload"));
  loop.run_until(minutes(1));

  EXPECT_EQ(deliveries, 1);  // server deduped every retransmitted copy
  EXPECT_EQ(conn->retransmissions(), 5u);  // max_data_retries
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(conn->state(), Connection::State::kReset);
}

TEST_F(Fixture, LossyPathStillDeliversExactlyOnceWithArq) {
  // 40% loss both ways: the ARQ must get one copy through and the
  // receiver must dedup the rest.
  FaultProfile lossy;
  lossy.loss = 0.4;
  net.set_fault_seed(0xBEEF);
  net.set_default_faults(lossy);

  std::vector<ConnectionHandle> sessions;
  std::size_t delivered_bytes = 0;
  int deliveries = 0;
  server.listen(8388, [&](ConnectionHandle conn) {
    ConnectionCallbacks cb;
    cb.on_data = [&](ByteSpan d) {
      ++deliveries;
      delivered_bytes += d.size();
    };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
  });
  bool connected = false;
  ConnectionCallbacks cb;
  cb.on_connected = [&] { connected = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run_until(minutes(1));
  ASSERT_TRUE(connected);

  conn->send(to_bytes("exactly-once"));
  loop.run_until(minutes(2));

  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(delivered_bytes, 12u);
  const auto report = net.teardown_report();
  EXPECT_TRUE(report.accounting_balanced);
}

TEST_F(Fixture, IdleTimeoutReapsSilentConnections) {
  net.force_arq(true);
  ArqConfig config;
  config.idle_timeout = seconds(5);
  net.set_arq(config);

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  bool timed_out = false;
  ConnectionCallbacks cb;
  cb.on_timeout = [&] { timed_out = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run_until(seconds(1));
  ASSERT_EQ(conn->state(), Connection::State::kEstablished);

  loop.run_until(minutes(1));  // nobody sends anything
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(conn->state(), Connection::State::kReset);
  EXPECT_EQ(net.teardown_report().live_established, 0u);
}

TEST_F(Fixture, WatchdogFlagsEstablishedConnectionsIdlePastGrace) {
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  auto conn = client.connect(server_ep, {});
  loop.run();
  ASSERT_EQ(conn->state(), Connection::State::kEstablished);

  // Recently active: both ends are "live", the report is clean.
  auto report = net.teardown_report(minutes(30));
  EXPECT_EQ(report.live_established, 2u);
  EXPECT_EQ(report.leaked_established, 0u);
  EXPECT_TRUE(report.clean());

  // Two idle hours later both ends are leaks (no ARQ -> no idle reaper).
  loop.run_until(hours(2));
  report = net.teardown_report(minutes(30));
  EXPECT_EQ(report.leaked_established, 2u);
  EXPECT_FALSE(report.clean());

  // Closing both ends clears the leak.
  conn->close();
  sessions[0]->close();
  loop.run();
  report = net.teardown_report(minutes(30));
  EXPECT_EQ(report.leaked_established, 0u);
  EXPECT_TRUE(report.clean());
}

TEST_F(Fixture, WatchdogAccountingIdentityHoldsUnderFaults) {
  FaultProfile messy;
  messy.loss = 0.2;
  messy.duplicate = 0.1;
  messy.reorder = 0.2;
  messy.jitter = milliseconds(30);
  net.set_fault_seed(0x5EED);
  net.set_default_faults(messy);

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  for (int i = 0; i < 5; ++i) {
    auto conn = client.connect(server_ep, {});
    loop.run_until(loop.now() + seconds(30));
    if (conn->can_send()) conn->send(to_bytes("ping"));
    loop.run_until(loop.now() + seconds(30));
    conn->close();
  }
  loop.run_until(loop.now() + hours(1));

  const auto report = net.teardown_report();
  EXPECT_TRUE(report.accounting_balanced);
  EXPECT_EQ(report.segments_in_flight, 0u);
  EXPECT_FALSE(report.timers_overdue);
  EXPECT_EQ(net.segments_transmitted() + net.segments_duplicated(),
            net.segments_delivered() + net.segments_dropped());
}

TEST_F(Fixture, IdealConnectionsCarryNoArqThroughEveryEnding) {
  ASSERT_FALSE(net.arq_enabled());
  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  std::vector<ConnectionHandle> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(client.connect(server_ep, {}));
  loop.run();
  ASSERT_EQ(sessions.size(), 4u);
  for (const auto& conn : clients) conn->send(to_bytes("ping"));
  loop.run();

  clients[0]->close();   // FIN to the server
  clients[1]->abort();   // RST to the server
  sessions[2]->close();  // FIN to the client
  sessions[3]->abort();  // RST to the client
  loop.run();

  using State = Connection::State;
  const State client_states[] = {State::kFinSent, State::kReset, State::kClosed, State::kReset};
  const State server_states[] = {State::kClosed, State::kReset, State::kFinSent, State::kReset};
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (const Connection* conn : {clients[i].get(), sessions[i].get()}) {
      EXPECT_FALSE(conn->arq_active()) << i;
      EXPECT_EQ(conn->retransmissions(), 0u) << i;
      EXPECT_EQ(conn->bytes_received(), 4u) << i;
    }
    EXPECT_EQ(clients[i]->state(), client_states[i]) << i;
    EXPECT_EQ(sessions[i]->state(), server_states[i]) << i;
  }
  EXPECT_EQ(loop.pending(), 0u);
}

TEST_F(Fixture, ArqCloseWhileConnectingCancelsEveryTimer) {
  FaultProfile jitter;
  jitter.jitter = milliseconds(1);
  net.set_fault_seed(3);
  net.set_default_faults(jitter);
  ASSERT_TRUE(net.arq_enabled());
  const std::size_t baseline = loop.pending();

  // The SYN to an unrouted address is dropped on arrival; the SYN retry
  // and idle timers stay armed until close() cancels them.
  auto conn = client.connect({Ipv4(8, 8, 8, 8), 80}, {});
  loop.run_until(milliseconds(500));
  ASSERT_TRUE(conn->arq_active());
  EXPECT_EQ(loop.pending(), baseline + 2);
  conn->close();
  EXPECT_EQ(conn->state(), Connection::State::kClosed);
  EXPECT_EQ(loop.pending(), baseline);
}

TEST_F(Fixture, ArqAbortCancelsEveryTimerOnBothEnds) {
  FaultProfile jitter;
  jitter.jitter = milliseconds(1);
  net.set_fault_seed(4);
  net.set_default_faults(jitter);
  const std::size_t baseline = loop.pending();

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  auto conn = client.connect(server_ep, {});
  loop.run_until(seconds(1));
  ASSERT_EQ(conn->state(), Connection::State::kEstablished);
  conn->send(to_bytes("unacknowledged"));  // arms the RTO timer
  conn->abort();
  // Well inside the 10-minute idle watchdog: only a timer that abort()
  // or the peer's RST failed to cancel could still be pending.
  loop.run_until(seconds(5));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0]->state(), Connection::State::kReset);
  EXPECT_EQ(loop.pending(), baseline);
}

TEST_F(Fixture, ArqCloseLeavesOnlyTheIdleWatchdogUntilItFails) {
  net.force_arq(true);
  ArqConfig config;
  config.idle_timeout = seconds(5);
  net.set_arq(config);
  const std::size_t baseline = loop.pending();

  std::vector<ConnectionHandle> sessions;
  server.listen(8388, echo_acceptor(sessions));
  bool timed_out = false;
  ConnectionCallbacks cb;
  cb.on_timeout = [&] { timed_out = true; };
  auto conn = client.connect(server_ep, std::move(cb));
  loop.run_until(seconds(1));
  ASSERT_EQ(conn->state(), Connection::State::kEstablished);

  // Every server -> client segment is lost, so the client's data stays
  // unacknowledged with its RTO armed when close() abandons it.
  FaultProfile ack_loss;
  ack_loss.loss = 1.0;
  net.set_fault_seed(5);
  net.set_faults(server_ip, client_ip, ack_loss);
  conn->send(to_bytes("unacknowledged"));
  conn->close();
  loop.run_until(seconds(2));
  // The server took the FIN and cancelled its own timers; the client is
  // half-closed with only its idle watchdog left.
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0]->state(), Connection::State::kClosed);
  EXPECT_EQ(conn->state(), Connection::State::kFinSent);
  EXPECT_EQ(loop.pending(), baseline + 1);

  loop.run_until(seconds(10));  // the watchdog fires and fail()s it
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(conn->state(), Connection::State::kReset);
  EXPECT_EQ(loop.pending(), baseline);
}

#if defined(__LP64__)
// Every field of Connection is paid once per live connection, and a World
// of the suite's 8-server fleet holds about 2,700 at its peak, so a new
// per-connection field costs about 2,700 copies. State that only some
// connections use belongs in a lazily allocated block, as ARQ's does.
TEST(ConnectionFootprint, StaysWithinItsBudget) {
  EXPECT_LE(sizeof(Connection), 312u) << "sizeof(Connection) = " << sizeof(Connection);
}
#endif

TEST_F(Fixture, DirectionalOverrideOnlyAffectsItsDirection) {
  FaultProfile lossy;
  lossy.loss = 1.0;
  net.set_fault_seed(7);
  net.set_faults(server_ip, client_ip, lossy);
  EXPECT_DOUBLE_EQ(net.faults_for(server_ip, client_ip).loss, 1.0);
  EXPECT_DOUBLE_EQ(net.faults_for(client_ip, server_ip).loss, 0.0);
}

}  // namespace
}  // namespace gfwsim::net
