// Probe-attempt ownership: Gfw keeps every probe attempt in a slot table
// and hands callbacks and timers only a generation-tagged id.
//   - A stale id (its slot freed, possibly reused) resolves to nothing,
//     so a late timer cannot touch the attempt that now holds the slot.
//   - A probe finalized while its FIN is unanswered (kFinSent) keeps its
//     connection, still registered, until that connection resets or
//     times out, or until the Gfw is destroyed.
#include <gtest/gtest.h>

#include "gfw/gfw.h"
#include "net/slot_table.h"

namespace gfwsim::gfw {
namespace {

struct Attempt {
  int generation_seen = 0;
  bool touched = false;
};

TEST(SlotTable, StaleIdMissesAfterEraseAndReuse) {
  net::SlotTable<Attempt> table;
  const auto first = table.emplace(Attempt{1, false});
  table.erase(first);
  EXPECT_EQ(table.get(first), nullptr);
  EXPECT_EQ(table.size(), 0u);

  // The free list hands the same slot out again, under a new generation.
  const auto second = table.emplace(Attempt{2, false});
  EXPECT_NE(second, first);
  EXPECT_EQ(static_cast<std::uint32_t>(second), static_cast<std::uint32_t>(first));
  EXPECT_EQ(table.get(first), nullptr);
  ASSERT_NE(table.get(second), nullptr);
  EXPECT_EQ(table.get(second)->generation_seen, 2);

  table.erase(first);  // stale: must not free the new occupant
  EXPECT_NE(table.get(second), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SlotTable, RetryTimerFiringAfterSlotReuseLeavesNewAttemptAlone) {
  // Gfw's retry timer captures [this, id] and looks the attempt up when
  // it fires. Here that timer is scheduled, its attempt is finalized and
  // freed, and a new attempt takes the slot before the timer fires.
  net::EventLoop loop;
  net::SlotTable<Attempt> table;
  const auto old_id = table.emplace(Attempt{1, false});
  bool fired = false;
  loop.schedule_after(net::seconds(2), [&table, &fired, old_id] {
    fired = true;
    if (Attempt* a = table.get(old_id)) a->touched = true;
  });
  loop.run_until(net::seconds(1));
  table.erase(old_id);
  const auto new_id = table.emplace(Attempt{2, false});
  loop.run_until(net::seconds(3));

  EXPECT_TRUE(fired);
  ASSERT_NE(table.get(new_id), nullptr);
  EXPECT_FALSE(table.get(new_id)->touched);
}

bool is_domestic(net::Ipv4 ip) { return (ip.value >> 24) != 203; }

// Drops every FIN the prober pool sends, so the server never learns that
// a probe closed and the probe's connection stays half-closed.
struct DropProberFins : net::Middlebox {
  const ProberPool* pool = nullptr;
  net::Verdict on_segment(const net::Segment& segment) override {
    return segment.has(net::TcpFlag::kFin) && pool->is_prober_address(segment.src.addr)
               ? net::Verdict::kDrop
               : net::Verdict::kPass;
  }
};

struct ProbeSlotsFixture : ::testing::Test {
  net::EventLoop loop;
  net::Network net{loop};
  net::Host& server_host = net.add_host(net::Ipv4(203, 0, 113, 10));
  net::Endpoint server_ep{server_host.addr(), 8388};
  std::vector<net::ConnectionHandle> server_conns;

  GfwConfig config() {
    GfwConfig c;
    c.is_domestic = is_domestic;
    return c;
  }

  // A server that accepts and never answers; with `abort_after` set it
  // resets each connection that long after accepting it.
  void install_server(net::Duration abort_after = net::Duration{}) {
    server_host.listen(8388, [this, abort_after](net::ConnectionHandle conn) {
      conn->set_callbacks({});
      if (abort_after > net::Duration{}) {
        loop.schedule_after(abort_after, [this, id = conn->id()] {
          if (net::Connection* c = net.connection(id)) c->abort();
        });
      }
      server_conns.push_back(std::move(conn));
    });
  }

  void flag_and_run(Gfw& gfw) {
    crypto::Rng rng(7);
    gfw.flag_connection(server_ep, rng.bytes(594));
    loop.run_until(net::hours(600));
  }
};

TEST_F(ProbeSlotsFixture, UnansweredFinKeepsOnlyTheConnectionUntilGfwDies) {
  // Ideal network: the server's side closes on the probe's FIN and never
  // sends one back, so every finalized probe lingers half-closed.
  install_server();
  const std::size_t live_before = net::Connection::live_count();
  {
    Gfw gfw(net, config(), 0x51);
    net.add_middlebox(&gfw);
    flag_and_run(gfw);
    ASSERT_GT(gfw.log().size(), 0u);
    EXPECT_EQ(gfw.probes_in_flight(), 0u);
    EXPECT_EQ(gfw.probe_slots(), gfw.log().size());
    EXPECT_EQ(net.teardown_report().half_closed, gfw.log().size());
    net.remove_middlebox(&gfw);
  }
  // ~Gfw released the lingering probe connections, and they left the
  // network's registry as they went.
  EXPECT_EQ(net.teardown_report().half_closed, 0u);
  server_conns.clear();
  EXPECT_EQ(net::Connection::live_count(), live_before);
}

TEST_F(ProbeSlotsFixture, HalfClosedProbeFreesItsSlotWhenTheServerResets) {
  install_server(net::seconds(30));  // RST well after the 8 s probe window
  Gfw gfw(net, config(), 0x52);
  DropProberFins drop_fins;
  drop_fins.pool = &gfw.pool();
  net.add_middlebox(&drop_fins);
  net.add_middlebox(&gfw);
  flag_and_run(gfw);

  ASSERT_GT(gfw.log().size(), 0u);
  for (const auto& record : gfw.log().records()) {
    // Finalized before the RST: the logged reaction is unaffected.
    EXPECT_EQ(record.reaction, probesim::Reaction::kTimeout);
  }
  EXPECT_EQ(gfw.probe_slots(), 0u);
  EXPECT_EQ(net.teardown_report().half_closed, 0u);
  net.remove_middlebox(&gfw);
  net.remove_middlebox(&drop_fins);
}

TEST_F(ProbeSlotsFixture, HalfClosedProbeFreesItsSlotWhenItTimesOut) {
  net.force_arq(true);
  install_server();
  GfwConfig c = config();
  c.probe_arq.idle_timeout = net::seconds(20);  // reaps the half-closed side
  Gfw gfw(net, c, 0x53);
  DropProberFins drop_fins;
  drop_fins.pool = &gfw.pool();
  net.add_middlebox(&drop_fins);
  net.add_middlebox(&gfw);
  flag_and_run(gfw);

  ASSERT_GT(gfw.log().size(), 0u);
  EXPECT_EQ(gfw.probe_slots(), 0u);
  EXPECT_EQ(net.teardown_report().half_closed, 0u);
  net.remove_middlebox(&gfw);
  net.remove_middlebox(&drop_fins);
}

}  // namespace
}  // namespace gfwsim::gfw
