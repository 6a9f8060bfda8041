// Section 4.2's staging experiment: probes of type R3/R4 are not sent
// unless the server has previously responded to R1/R2 probes.
//
// Reproduces the Exp 1.a -> Exp 1.b flip: a sink server for 310 hours,
// then switched to responding mode — soon after, stage-2 probe types
// appear. Includes the ablation arm with staging disabled.
//
// The flip experiment hand-builds its world (it swaps server behaviour
// mid-run), so it stays serial; the ablation arm runs through the
// sharded harness.
#include "bench_common.h"
#include "servers/upstream.h"

using namespace gfwsim;

namespace {

struct Phase {
  std::size_t stage1 = 0;
  std::size_t stage2 = 0;
};

Phase count_since(const gfw::ProbeLog& log, net::TimePoint from, net::TimePoint to) {
  Phase phase;
  for (const auto& record : log.records()) {
    if (record.sent_at < from || record.sent_at >= to) continue;
    const bool is_stage2 = record.type == probesim::ProbeType::kR3 ||
                           record.type == probesim::ProbeType::kR4 ||
                           record.type == probesim::ProbeType::kR5 ||
                           record.type == probesim::ProbeType::kNR1;
    if (is_stage2) {
      ++phase.stage2;
    } else {
      ++phase.stage1;
    }
  }
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  analysis::print_banner(std::cout,
                         "Staging experiment (sec. 4.2): sink -> responding flip");
  bench::BenchReporter report("staging", options);

  // Build the experiment by hand: a raw TCP server we can flip between
  // sink mode and responding mode, with the GFW on the path.
  net::EventLoop loop;
  net::Network network(loop);
  net::Host& client_host = network.add_host(net::Ipv4(116, 28, 5, 7));
  net::Host& server_host = network.add_host(net::Ipv4(203, 0, 113, 10));
  const net::Endpoint server_ep{server_host.addr(), 8388};

  bool responding = false;
  std::vector<net::ConnectionHandle> sessions;
  crypto::Rng response_rng(0x4e5);
  server_host.listen(8388, [&](net::ConnectionHandle conn) {
    net::Connection* raw = conn.get();
    net::ConnectionCallbacks cb;
    cb.on_data = [&, raw](ByteSpan) {
      // Responding mode answers probers with 1-1000 random bytes.
      if (responding) raw->send(response_rng.bytes(1 + response_rng.uniform(0, 999)));
    };
    conn->set_callbacks(std::move(cb));
    sessions.push_back(std::move(conn));
    while (sessions.size() > 512) sessions.erase(sessions.begin());
  });

  gfw::GfwConfig gfw_config;
  gfw_config.is_domestic = [](net::Ipv4 ip) { return (ip.value >> 24) == 116; };
  gfw_config.classifier.base_rate = 0.35;
  gfw::Gfw the_gfw(network, gfw_config, options.seed != 0 ? options.seed : 0x57a6);
  network.add_middlebox(&the_gfw);

  // Exp 1.a-style traffic: raw high-entropy payloads every 30 s.
  client::RandomDataTraffic traffic = client::RandomDataTraffic::exp1();
  crypto::Rng traffic_rng(0x7f10);
  // The deque owns the client connections; the timers resolve ids and do
  // nothing once the deque has let go.
  std::deque<net::ConnectionHandle> client_conns;
  const auto send_one = [&] {
    client_conns.push_back(client_host.connect(server_ep, {}));
    const net::ConnId id = client_conns.back()->id();
    const Bytes payload = traffic.next(traffic_rng).first_payload;
    loop.schedule_after(net::milliseconds(300), [&network, id, payload] {
      if (net::Connection* conn = network.connection(id)) conn->send(payload);
    });
    loop.schedule_after(net::seconds(20), [&network, id] {
      if (net::Connection* conn = network.connection(id)) conn->close();
    });
    while (client_conns.size() > 128) client_conns.pop_front();
  };

  const net::TimePoint flip_at = net::hours(310);
  const net::TimePoint end_at = net::hours(310 + 140);
  std::function<void()> pump = [&] {
    if (loop.now() >= end_at) return;
    send_one();
    loop.schedule_after(net::seconds(30), pump);
  };
  loop.schedule_at(net::TimePoint{0}, pump);
  loop.schedule_at(flip_at, [&] { responding = true; });
  loop.run_until(end_at + net::hours(2));

  const Phase sink_phase = count_since(the_gfw.log(), net::TimePoint{0}, flip_at);
  const Phase responding_phase = count_since(the_gfw.log(), flip_at, end_at + net::hours(2));

  analysis::TextTable table({"phase", "stage-1 probes (R1/R2/NR2)",
                             "stage-2 probes (R3/R4/R5/NR1)"});
  table.add_row({"sink (0 - 310 h)", std::to_string(sink_phase.stage1),
                 std::to_string(sink_phase.stage2)});
  table.add_row({"responding (310 h - end)", std::to_string(responding_phase.stage1),
                 std::to_string(responding_phase.stage2)});
  table.print(std::cout);

  std::cout << "\n";
  report.metric("stage-2 probes while the server is a sink",
                "zero (all probes were R1, R2, or NR2)",
                std::to_string(sink_phase.stage2));
  report.metric(
      "stage-2 probes after the server starts responding",
      "\"soon after ... a large number of type R3 and type R4 probes\"",
      std::to_string(responding_phase.stage2));
  network.remove_middlebox(&the_gfw);

  // --- Ablation arm: staging disabled --------------------------------------
  std::cout << "\n--- ablation: enable_staging = false ---\n";
  {
    gfw::Scenario scenario = bench::standard_scenario(7);
    scenario.server.impl = probesim::ServerSetup::Impl::kLibevNew;  // never responds
    scenario.server.cipher = "aes-256-gcm";
    scenario.gfw.enable_staging = false;
    const gfw::CampaignResult result =
        bench::run_sharded(bench::with_options(scenario, options, 0x57a7, 7), options);
    const Phase ablated = count_since(result.log, net::TimePoint{0},
                                      net::TimePoint::max());
    report.metric(
        "stage-2 probes to a never-responding server (ablated GFW)",
        "the observed GFW sends none; without gating they appear",
        std::to_string(ablated.stage2));
  }
  return 0;
}
