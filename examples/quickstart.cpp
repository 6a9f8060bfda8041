// Quickstart: the smallest end-to-end scenario.
//
// A Shadowsocks client in China fetches a website through an OutlineVPN
// server abroad, with the simulated GFW on the path. We then watch the
// GFW's active probes arrive at the server and print what it learned.
//
//   ./examples/quickstart
#include <algorithm>
#include <iostream>

#include "analysis/report.h"

#include "gfw/gfw.h"
#include "client/ss_client.h"
#include "probesim/probesim.h"
#include "servers/upstream.h"

using namespace gfwsim;

int main() {
  net::EventLoop loop;
  net::Network network(loop);

  // --- The internet beyond the proxy ------------------------------------
  servers::SimulatedInternet internet{crypto::Rng(2024)};
  internet.add_site("www.wikipedia.org", servers::fixed_http_responder(4096));

  // --- Hosts --------------------------------------------------------------
  net::Host& client_host = network.add_host(net::Ipv4(116, 28, 5, 7));      // Beijing
  net::Host& server_host = network.add_host(net::Ipv4(203, 0, 113, 10));    // abroad
  const net::Endpoint server_ep{server_host.addr(), 8388};

  // --- Shadowsocks server (OutlineVPN v1.0.7, chacha20-ietf-poly1305) ----
  probesim::ServerSetup setup;
  setup.impl = probesim::ServerSetup::Impl::kOutline107;
  setup.cipher = "chacha20-ietf-poly1305";
  setup.password = "correct horse battery staple";
  auto server = probesim::make_server(setup, loop, &internet, 1);
  server->install(server_host, server_ep.port);

  // --- The GFW on the path ------------------------------------------------
  gfw::GfwConfig gfw_config;
  gfw_config.is_domestic = [](net::Ipv4 ip) { return (ip.value >> 24) == 116; };
  gfw_config.classifier.base_rate = 1.0;  // demo: always flag suspicious shapes
  gfw::Gfw the_gfw(network, gfw_config, 7);
  network.add_middlebox(&the_gfw);

  // --- Client fetch through the tunnel ------------------------------------
  client::ClientConfig client_config;
  client_config.cipher = proxy::find_cipher(setup.cipher);
  client_config.password = setup.password;
  client::SsClient ss(client_host, server_ep, client_config);

  std::cout << "[client] fetching https://www.wikipedia.org through the tunnel\n"
            << "         (a browsing session of 12 requests, one per minute)...\n";
  std::unique_ptr<client::Fetch> fetch;
  for (int i = 0; i < 12; ++i) {
    fetch = ss.fetch(proxy::TargetSpec::hostname("www.wikipedia.org", 443),
                     to_bytes("GET / HTTP/1.1\r\nHost: www.wikipedia.org\r\n\r\n"));
    loop.run_until(loop.now() + net::minutes(1));
    fetch->close();
  }

  if (fetch->state() == client::Fetch::State::kDone) {
    // The fetch keeps the response's first Fetch::kHeadBytes bytes.
    const ByteSpan head = fetch->response_head();
    const auto line_end = std::find(head.begin(), head.end(), '\r');
    std::cout << "[client] got " << fetch->response_bytes()
              << " plaintext bytes back per request; first line: "
              << to_string(head.first(static_cast<std::size_t>(line_end - head.begin())))
              << "\n";
  } else {
    std::cout << "[client] fetch failed\n";
  }
  std::cout << "[gfw]    each first packet on the wire was " << fetch->first_packet_size()
            << " bytes of uniformly random-looking ciphertext; the passive\n"
            << "         classifier flagged " << the_gfw.flows_flagged()
            << " of 12 connections\n";

  // --- Let the active probing play out (heavy-tailed delays!) -------------
  std::cout << "[sim]    advancing simulated time by 48 hours...\n";
  loop.run_until(loop.now() + net::hours(48));

  std::cout << "[gfw]    sent " << the_gfw.log().size() << " active probes:\n";
  for (const auto& record : the_gfw.log().records()) {
    std::cout << "         t+" << analysis::format_double(net::to_hours(record.sent_at)) << "h  "
              << probesim::probe_type_name(record.type) << "  len=" << record.payload_len
              << "  from " << record.src_ip.to_string() << " (AS" << record.asn << ")"
              << "  -> " << probesim::reaction_name(record.reaction) << "\n";
  }

  const bool blocked = the_gfw.blocking().is_blocked(server_ep);
  std::cout << "[gfw]    server evidence score: "
            << the_gfw.blocking().evidence(server_ep)
            << (blocked ? "  [SERVER BLOCKED]" : "  (not blocked: human-factor gate)")
            << "\n";
  network.remove_middlebox(&the_gfw);
  return 0;
}
