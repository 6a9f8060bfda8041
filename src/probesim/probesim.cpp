#include "probesim/probesim.h"

#include <sstream>
#include <stdexcept>

#include "servers/hardened.h"
#include "servers/legacy.h"
#include "servers/outline.h"
#include "servers/ss_libev.h"

namespace gfwsim::probesim {

std::string_view reaction_name(Reaction r) {
  switch (r) {
    case Reaction::kTimeout: return "TIMEOUT";
    case Reaction::kRst: return "RST";
    case Reaction::kFinAck: return "FIN/ACK";
    case Reaction::kData: return "DATA";
  }
  return "?";
}

Reaction classify_reaction(std::size_t data_bytes, bool rst, bool fin) {
  if (data_bytes > 0) return Reaction::kData;
  if (rst) return Reaction::kRst;
  return fin ? Reaction::kFinAck : Reaction::kTimeout;
}

char reaction_code(Reaction r) {
  switch (r) {
    case Reaction::kTimeout: return 'T';
    case Reaction::kRst: return 'R';
    case Reaction::kFinAck: return 'F';
    case Reaction::kData: return 'D';
  }
  return '?';
}

std::string_view probe_type_name(ProbeType t) {
  switch (t) {
    case ProbeType::kR1: return "R1";
    case ProbeType::kR2: return "R2";
    case ProbeType::kR3: return "R3";
    case ProbeType::kR4: return "R4";
    case ProbeType::kR5: return "R5";
    case ProbeType::kNR1: return "NR1";
    case ProbeType::kNR2: return "NR2";
  }
  return "?";
}

namespace {

void change_byte(Bytes& data, std::size_t offset, crypto::Rng& rng) {
  if (offset >= data.size()) return;
  std::uint8_t replacement;
  do {
    replacement = static_cast<std::uint8_t>(rng.uniform(0, 255));
  } while (replacement == data[offset]);
  data[offset] = replacement;
}

}  // namespace

Bytes mutate_replay(ByteSpan payload, ProbeType type, crypto::Rng& rng) {
  Bytes out(payload.begin(), payload.end());
  switch (type) {
    case ProbeType::kR1:
      break;
    case ProbeType::kR2:
      change_byte(out, 0, rng);
      break;
    case ProbeType::kR3:
      for (std::size_t i = 0; i <= 7; ++i) change_byte(out, i, rng);
      change_byte(out, 62, rng);
      change_byte(out, 63, rng);
      break;
    case ProbeType::kR4:
      change_byte(out, 16, rng);
      break;
    case ProbeType::kR5:
      change_byte(out, 6, rng);
      change_byte(out, 16, rng);
      break;
    case ProbeType::kNR1:
    case ProbeType::kNR2:
      throw std::invalid_argument("mutate_replay: NR types are not replay-based");
  }
  return out;
}

const std::vector<std::size_t>& nr1_lengths() {
  static const std::vector<std::size_t> lengths = [] {
    std::vector<std::size_t> out;
    for (const std::size_t n : {8, 12, 16, 22, 33, 41, 49}) {
      out.push_back(n - 1);
      out.push_back(n);
      out.push_back(n + 1);
    }
    return out;
  }();
  return lengths;
}

void ReactionTally::add(Reaction r) {
  switch (r) {
    case Reaction::kTimeout: ++timeout; break;
    case Reaction::kRst: ++rst; break;
    case Reaction::kFinAck: ++fin; break;
    case Reaction::kData: ++data; break;
  }
}

std::string ReactionTally::label() const {
  const int n = total();
  if (n == 0) return "-";
  struct Part {
    const char* name;
    int count;
  };
  const Part parts[] = {{"RST", rst}, {"TIMEOUT", timeout}, {"FIN/ACK", fin}, {"DATA", data}};
  std::ostringstream out;
  bool first = true;
  for (const auto& p : parts) {
    if (p.count == 0) continue;
    if (p.count == n) return p.name;  // pure cell
    if (!first) out << " or ";
    out << p.name << " (" << (100 * p.count + n / 2) / n << "%)";
    first = false;
  }
  return out.str();
}

ProberSimulator::ProberSimulator(net::Network& net, net::Host& prober_host,
                                 net::Endpoint server, std::uint64_t seed)
    : net_(net), prober_(prober_host), server_(server), rng_(seed) {}

ProbeResult ProberSimulator::send_probe(ByteSpan payload) {
  auto& loop = net_.loop();

  struct Observation {
    bool connected = false;
    bool rst = false;
    bool fin = false;
    std::size_t data_bytes = 0;
    net::TimePoint first_reaction{};
    bool reacted = false;
  };
  // The callbacks capture this stack local: they die with the
  // connection, which `conn` frees when this function returns.
  Observation obs;

  const auto react = [&obs, &loop] {
    if (!obs.reacted) {
      obs.reacted = true;
      obs.first_reaction = loop.now();
    }
  };
  net::ConnectionCallbacks cb;
  cb.on_connected = [&obs] { obs.connected = true; };
  cb.on_rst = [&obs, react] { obs.rst = true; react(); };
  cb.on_fin = [&obs, react] { obs.fin = true; react(); };
  cb.on_data = [&obs, react](ByteSpan data) { obs.data_bytes += data.size(); react(); };

  net::ConnectionHandle conn = prober_.connect(server_, std::move(cb));
  loop.run_until(loop.now() + net::seconds(5));
  if (!obs.connected) {
    // Refused (RST during handshake) or null-routed (silence).
    conn->close();
    return {obs.rst ? Reaction::kRst : Reaction::kTimeout, net::seconds(5), 0};
  }

  const net::TimePoint sent_at = loop.now();
  obs.reacted = false;  // reactions only count after the payload
  conn->send(payload);
  loop.run_until(sent_at + probe_timeout);

  ProbeResult result;
  result.reaction = classify_reaction(obs.data_bytes, obs.rst, obs.fin);
  result.latency = obs.reacted ? obs.first_reaction - sent_at : probe_timeout;
  result.response_bytes = obs.data_bytes;

  // Like the GFW's probers, close with FIN/ACK whatever happened.
  conn->close();
  loop.run_until(loop.now() + net::seconds(1));
  return result;
}

ProbeResult ProberSimulator::send_random_probe(std::size_t length) {
  return send_probe(rng_.bytes(length));
}

std::map<std::size_t, ReactionTally> ProberSimulator::random_length_sweep(
    const std::vector<std::size_t>& lengths, int trials) {
  std::map<std::size_t, ReactionTally> out;
  for (const std::size_t len : lengths) {
    auto& tally = out[len];
    for (int t = 0; t < trials; ++t) tally.add(send_random_probe(len).reaction);
  }
  return out;
}

std::map<ProbeType, ReactionTally> ProberSimulator::replay_battery(ByteSpan recorded,
                                                                   int trials) {
  std::map<ProbeType, ReactionTally> out;
  for (const ProbeType type : {ProbeType::kR1, ProbeType::kR2, ProbeType::kR3,
                               ProbeType::kR4, ProbeType::kR5}) {
    auto& tally = out[type];
    for (int t = 0; t < trials; ++t) {
      tally.add(send_probe(mutate_replay(recorded, type, rng_)).reaction);
    }
  }
  return out;
}

ProberSimulator::FilterProbe ProberSimulator::detect_replay_filter(std::size_t probe_length) {
  const Bytes payload = rng_.bytes(probe_length);
  const Reaction first = send_probe(payload).reaction;
  const Reaction second = send_probe(payload).reaction;
  return {first, second};
}

// ---- ProbeLab ---------------------------------------------------------------

std::string_view impl_name(ServerSetup::Impl impl) {
  switch (impl) {
    case ServerSetup::Impl::kLibevOld: return "ss-libev v3.0.8-v3.2.5";
    case ServerSetup::Impl::kLibevNew: return "ss-libev v3.3.1-v3.3.3";
    case ServerSetup::Impl::kOutline106: return "OutlineVPN v1.0.6";
    case ServerSetup::Impl::kOutline107: return "OutlineVPN v1.0.7-v1.0.8";
    case ServerSetup::Impl::kOutline110: return "OutlineVPN v1.1.0";
    case ServerSetup::Impl::kSsPython: return "Shadowsocks-python";
    case ServerSetup::Impl::kSsr: return "ShadowsocksR (origin)";
    case ServerSetup::Impl::kHardened: return "hardened (sec. 7.2)";
  }
  return "?";
}

std::unique_ptr<servers::ProxyServerBase> make_server(const ServerSetup& setup,
                                                      net::EventLoop& loop,
                                                      servers::Upstream* upstream,
                                                      std::uint64_t seed) {
  const auto* spec = proxy::find_cipher(setup.cipher);
  if (spec == nullptr) {
    throw std::invalid_argument("ProbeLab: unknown cipher " + setup.cipher);
  }
  servers::ServerConfig config{spec, setup.password, net::seconds(60)};
  using Impl = ServerSetup::Impl;
  switch (setup.impl) {
    case Impl::kLibevOld:
      return std::make_unique<servers::SsLibevServer>(loop, config, upstream,
                                                      servers::LibevVersion::kV3_1_3, seed);
    case Impl::kLibevNew:
      return std::make_unique<servers::SsLibevServer>(loop, config, upstream,
                                                      servers::LibevVersion::kV3_3_1, seed);
    case Impl::kOutline106:
      return std::make_unique<servers::OutlineServer>(loop, config, upstream,
                                                      servers::OutlineVersion::kV1_0_6, seed);
    case Impl::kOutline107:
      return std::make_unique<servers::OutlineServer>(loop, config, upstream,
                                                      servers::OutlineVersion::kV1_0_7, seed);
    case Impl::kOutline110:
      return std::make_unique<servers::OutlineServer>(loop, config, upstream,
                                                      servers::OutlineVersion::kV1_1_0, seed);
    case Impl::kSsPython:
      return std::make_unique<servers::LegacyStreamServer>(
          loop, config, upstream, servers::LegacyFlavor::kSsPython, seed);
    case Impl::kSsr:
      return std::make_unique<servers::LegacyStreamServer>(
          loop, config, upstream, servers::LegacyFlavor::kSsr, seed);
    case Impl::kHardened:
      return std::make_unique<servers::HardenedServer>(loop, config, upstream,
                                                       net::seconds(120), seed);
  }
  throw std::logic_error("ProbeLab: unhandled impl");
}

ProbeLab::ProbeLab(const ServerSetup& setup, std::uint64_t seed)
    : internet_(crypto::Rng(seed ^ 0x17EA57)),
      setup_(setup),
      client_rng_(seed ^ 0xC11E57) {
  // Well-known sites genuine clients visit; replayed connections to these
  // succeed and return data.
  internet_.add_site("www.wikipedia.org", servers::fixed_http_responder(4096));
  internet_.add_site("example.com", servers::fixed_http_responder(1024));
  internet_.add_site("gfw.report", servers::fixed_http_responder(2048));

  net::Host& server_host = net_.add_host(net::Ipv4(203, 0, 113, 10));
  net::Host& prober_host = net_.add_host(net::Ipv4(202, 96, 0, 99));
  client_host_ = &net_.add_host(net::Ipv4(116, 28, 5, 7));
  server_endpoint_ = net::Endpoint{server_host.addr(), 8388};

  server_ = make_server(setup_, loop_, &internet_, seed ^ 0x5E4E4);
  server_->install(server_host, server_endpoint_.port);
  prober_ = std::make_unique<ProberSimulator>(net_, prober_host, server_endpoint_,
                                              seed ^ 0x960B3);
}

Bytes ProbeLab::legitimate_first_packet(const proxy::TargetSpec& target,
                                        ByteSpan initial_data, bool merge_header_and_data) {
  const auto* spec = proxy::find_cipher(setup_.cipher);
  const Bytes key = proxy::master_key(*spec, setup_.password);
  proxy::Encryptor enc(*spec, key, client_rng_);
  return proxy::build_first_packet(enc, target, initial_data, merge_header_and_data);
}

Bytes ProbeLab::establish_legitimate_connection(const proxy::TargetSpec& target,
                                                ByteSpan initial_data,
                                                bool merge_header_and_data) {
  const Bytes packet = legitimate_first_packet(target, initial_data, merge_header_and_data);

  bool connected = false;
  net::ConnectionCallbacks cb;
  cb.on_connected = [&connected] { connected = true; };
  net::ConnectionHandle conn = client_host_->connect(server_endpoint_, std::move(cb));
  loop_.run_until(loop_.now() + net::seconds(2));
  if (connected) {
    conn->send(packet);
    loop_.run_until(loop_.now() + net::seconds(2));
    conn->close();
    loop_.run_until(loop_.now() + net::seconds(1));
  }
  return packet;
}

}  // namespace gfwsim::probesim
