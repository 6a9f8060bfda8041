// Prober simulator (the paper's section 5.1 artifact).
//
// Sends the seven GFW probe types — and arbitrary random-length sweeps —
// at any server model, and records the observable reaction: TIMEOUT, RST,
// FIN/ACK, or DATA. Used to regenerate Figure 10 and Table 5 and to
// detect replay filters via the double-send timing test (section 5.3).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "crypto/rng.h"
#include "net/network.h"
#include "proxy/wire.h"
#include "servers/base.h"

namespace gfwsim::probesim {

// The four reactions the GFW can distinguish (paper Figure 10 / Table 5).
enum class Reaction { kTimeout, kRst, kFinAck, kData };

std::string_view reaction_name(Reaction r);
// What a probe connection's events amount to; data outranks RST, and RST
// outranks FIN/ACK.
Reaction classify_reaction(std::size_t data_bytes, bool rst, bool fin);
// Single-letter codes used in Table 5: T, R, F, D.
char reaction_code(Reaction r);

// The seven probe types of section 3.2.
enum class ProbeType {
  kR1,   // identical replay
  kR2,   // replay, byte 0 changed
  kR3,   // replay, bytes 0-7 and 62-63 changed
  kR4,   // replay, byte 16 changed
  kR5,   // replay, bytes 6 and 16 changed
  kNR1,  // random, lengths in trios around {8,12,16,22,33,41,49}
  kNR2,  // random, exactly 221 bytes
};

std::string_view probe_type_name(ProbeType t);

// Applies the byte-change pattern of a replay-based probe type. Changed
// bytes are replaced with a *different* random value; offsets beyond the
// payload length are skipped.
Bytes mutate_replay(ByteSpan payload, ProbeType type, crypto::Rng& rng);

// The NR1 length set: (n-1, n, n+1) for n in {8, 12, 16, 22, 33, 41, 49}.
const std::vector<std::size_t>& nr1_lengths();
inline constexpr std::size_t kNr2Length = 221;

struct ProbeResult {
  Reaction reaction = Reaction::kTimeout;
  net::Duration latency{};          // first reaction after the payload went out
  std::size_t response_bytes = 0;   // nonzero only for kData
};

struct ReactionTally {
  int timeout = 0;
  int rst = 0;
  int fin = 0;
  int data = 0;

  int total() const { return timeout + rst + fin + data; }
  void add(Reaction r);
  // Condensed cell label a la Figure 10: single reaction, or a mixture
  // with approximate fractions.
  std::string label() const;
};

// Drives probes against one server endpoint over the simulated network.
// The simulator owns the event-loop pumping: each send_probe() call runs
// the loop until the probe resolves, so callers simply iterate.
class ProberSimulator {
 public:
  ProberSimulator(net::Network& net, net::Host& prober_host, net::Endpoint server,
                  std::uint64_t seed = 0x9b0be5);

  // The GFW gives up on unresponsive connections in under 10 seconds
  // (section 5.2.1).
  net::Duration probe_timeout = net::seconds(10);

  // Opens a fresh connection, sends `payload` as the first data packet,
  // and classifies the server's reaction.
  ProbeResult send_probe(ByteSpan payload);

  // Random probe of a given length (uniform bytes, like NR1/NR2).
  ProbeResult send_random_probe(std::size_t length);

  // Sweep: `trials` random probes at each length.
  std::map<std::size_t, ReactionTally> random_length_sweep(
      const std::vector<std::size_t>& lengths, int trials);

  // Replay battery: derives each probe type from `recorded` (a captured
  // legitimate first payload) and sends it `trials` times.
  std::map<ProbeType, ReactionTally> replay_battery(ByteSpan recorded, int trials);

  // Section 5.3 replay-filter detector: sends the same random payload
  // twice and reports whether the reactions differ (a behavioural filter
  // tell). Stream servers with ppbloom answer the second copy like a
  // replay; servers without a filter react identically both times.
  struct FilterProbe {
    Reaction first;
    Reaction second;
    bool filter_suspected() const { return first != second; }
  };
  FilterProbe detect_replay_filter(std::size_t probe_length);

  crypto::Rng& rng() { return rng_; }

 private:
  net::Network& net_;
  net::Host& prober_;
  net::Endpoint server_;
  crypto::Rng rng_;
};

// A self-contained probing laboratory: network, simulated internet,
// server under test, prober. Reused by unit tests, benches, and examples.
struct ServerSetup {
  enum class Impl {
    kLibevOld,    // shadowsocks-libev v3.0.8-v3.2.5
    kLibevNew,    // shadowsocks-libev v3.3.1-v3.3.3
    kOutline106,  // OutlineVPN v1.0.6
    kOutline107,  // OutlineVPN v1.0.7-v1.0.8
    kOutline110,  // OutlineVPN v1.1.0 (replay defense)
    kSsPython,    // Shadowsocks-python (stream, no replay filter)
    kSsr,         // ShadowsocksR "origin" (stream, no replay filter)
    kHardened,    // section 7.2 defense server
  };
  Impl impl = Impl::kLibevOld;
  std::string cipher = "chacha20-ietf-poly1305";
  std::string password = "correct horse battery staple";
};

std::string_view impl_name(ServerSetup::Impl impl);

// Instantiates the server model a ServerSetup describes (shared by
// ProbeLab, the campaign harness, and the examples).
std::unique_ptr<servers::ProxyServerBase> make_server(const ServerSetup& setup,
                                                      net::EventLoop& loop,
                                                      servers::Upstream* upstream,
                                                      std::uint64_t seed);

class ProbeLab {
 public:
  explicit ProbeLab(const ServerSetup& setup, std::uint64_t seed = 0x1ab);

  net::EventLoop& loop() { return loop_; }
  net::Network& network() { return net_; }
  servers::SimulatedInternet& internet() { return internet_; }
  servers::ProxyServerBase& server() { return *server_; }
  ProberSimulator& prober() { return *prober_; }
  net::Endpoint server_endpoint() const { return server_endpoint_; }

  // Builds a legitimate client first payload for this lab's server
  // (suitable input for replay batteries).
  Bytes legitimate_first_packet(const proxy::TargetSpec& target, ByteSpan initial_data,
                                bool merge_header_and_data = false);

  // Plays a genuine client connection against the server (so its replay
  // filter, if any, records the IV/salt — the paper's replay probes are
  // derived from connections the server already served) and returns the
  // recorded first payload for use with replay_battery().
  Bytes establish_legitimate_connection(const proxy::TargetSpec& target,
                                        ByteSpan initial_data,
                                        bool merge_header_and_data = false);

 private:
  net::EventLoop loop_;
  net::Network net_{loop_};
  servers::SimulatedInternet internet_;
  ServerSetup setup_;
  net::Endpoint server_endpoint_;
  net::Host* client_host_ = nullptr;
  std::unique_ptr<servers::ProxyServerBase> server_;
  std::unique_ptr<ProberSimulator> prober_;
  crypto::Rng client_rng_;
};

}  // namespace gfwsim::probesim
