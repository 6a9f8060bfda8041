// Shadowsocks client: opens tunnel connections, sends the first flight,
// and decrypts server responses.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "crypto/rng.h"
#include "net/network.h"
#include "proxy/wire.h"

namespace gfwsim::client {

struct ClientConfig {
  const proxy::CipherSpec* cipher = nullptr;
  std::string password;
  // July 2020 OutlineVPN change: put target spec and initial data in one
  // AEAD chunk so first-packet lengths vary (paper section 11).
  bool merge_header_and_data = false;
  // Hardened protocol (section 7.2 defense): embed an 8-byte timestamp at
  // the start of the tunneled payload.
  bool embed_timestamp = false;
};

class SsClient;

// One proxied request/response exchange. Drive the event loop and then
// inspect the state. A Fetch counts every response byte but keeps only
// the first kHeadBytes of them; its first flight is freed once sent and
// its decryptor once it reads no more, so a finished fetch costs little
// beyond its connection. The SsClient that started it must outlive every
// event the connection delivers.
class Fetch {
 public:
  enum class State { kConnecting, kAwaitingResponse, kDone, kFailed };
  // Response bytes kept for inspection: enough for an HTTP status line.
  static constexpr std::size_t kHeadBytes = 64;

  State state() const { return state_; }
  // Plaintext response bytes received (raw mode: bytes as they arrived).
  std::size_t response_bytes() const { return response_bytes_; }
  // The first min(kHeadBytes, response_bytes()) of them.
  ByteSpan response_head() const { return {head_.data(), head_size_}; }
  // Size of the first packet as it went on the wire.
  std::size_t first_packet_size() const { return first_packet_size_; }

  // Gracefully closes the underlying connection. A closed fetch reads no
  // more, as curl after it exits: later data is dropped undecrypted.
  void close() {
    if (conn_) conn_->close();
    stop_reading();
  }

 private:
  friend class SsClient;

  // What on_connected sends. Raw mode has no encryptor and sends `data`
  // as it is.
  struct FirstFlight {
    std::optional<proxy::Encryptor> encryptor;
    proxy::TargetSpec target;
    Bytes data;
  };

  explicit Fetch(SsClient& client) : client_(client) {}

  void stop_reading() {
    reading_ = false;
    decryptor_.reset();
  }

  SsClient& client_;
  State state_ = State::kConnecting;
  bool reading_ = true;
  std::array<std::uint8_t, kHeadBytes> head_{};
  std::size_t head_size_ = 0;
  std::size_t response_bytes_ = 0;
  std::size_t first_packet_size_ = 0;
  net::ConnectionHandle conn_;
  std::unique_ptr<FirstFlight> first_flight_;
  std::unique_ptr<proxy::Decryptor> decryptor_;  // null in raw mode
};

class SsClient {
 public:
  SsClient(net::Host& host, net::Endpoint server, ClientConfig config,
           std::uint64_t rng_seed = 0xC11E);

  // Starts a proxied exchange: connect, send [IV/salt + target + data],
  // collect and decrypt whatever the server returns.
  std::unique_ptr<Fetch> fetch(const proxy::TargetSpec& target, ByteSpan initial_data);

  // Raw variant used by the Table 4 experiments: sends exactly `payload`
  // as the first data packet with no Shadowsocks framing at all.
  std::unique_ptr<Fetch> send_raw(Bytes payload);

 private:
  // Connects `fetch`, whose first flight is set, to the server.
  std::unique_ptr<Fetch> start(std::unique_ptr<Fetch> fetch);
  void on_connected(Fetch& fetch);
  void on_data(Fetch& fetch, ByteSpan data);

  net::Host& host_;
  net::Endpoint server_;
  ClientConfig config_;
  Bytes key_;
  crypto::Rng rng_;
  Bytes plain_;  // scratch: the plaintext of the on_data in progress
};

}  // namespace gfwsim::client
