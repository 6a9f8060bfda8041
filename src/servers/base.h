// Shared plumbing for Shadowsocks server models.
//
// Each concrete server (ss-libev old/new, OutlineVPN 1.0.6/1.0.7+/1.1.0,
// hardened) subclasses ProxyServerBase and implements handle_data() with
// its historical parsing/erroring behaviour. The base provides session
// bookkeeping, the three observable terminal actions the GFW
// distinguishes (idle -> TIMEOUT, close -> FIN/ACK, abort -> RST),
// response encryption, upstream dispatch, and the idle timeout.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "crypto/rng.h"
#include "net/network.h"
#include "net/slot_table.h"
#include "proxy/wire.h"
#include "servers/upstream.h"

namespace gfwsim::servers {

struct ServerConfig {
  const proxy::CipherSpec* cipher = nullptr;
  std::string password;
  // ss-libev's default client-inactivity timeout; the GFW's probers time
  // out in under 10 s, so they always close first (paper section 5.2.1).
  net::Duration idle_timeout = net::seconds(60);
};

class ProxyServerBase {
 public:
  ProxyServerBase(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                  std::uint64_t rng_seed);
  virtual ~ProxyServerBase();

  ProxyServerBase(const ProxyServerBase&) = delete;
  ProxyServerBase& operator=(const ProxyServerBase&) = delete;

  // Starts accepting connections on host:port.
  void install(net::Host& host, std::uint16_t port);

  // The raw acceptor, for callers that wrap it (e.g. brdgrd) before
  // installing it on a listener themselves.
  net::Host::Acceptor acceptor();

  const ServerConfig& config() const { return config_; }
  const Bytes& key() const { return key_; }

  std::size_t sessions_active() const { return sessions_.size(); }

 protected:
  using SessionId = std::uint64_t;  // names a slot of sessions_

  struct SessionBase {
    net::ConnectionHandle conn;
    SessionId id = 0;
    Bytes buffer;  // raw wire bytes not yet consumed
    std::optional<proxy::Encryptor> egress;
    net::TimerId idle_timer = 0;
    // Set when the implementation decided to silently ignore all further
    // input (the "read until timeout" reaction).
    bool drained = false;
    virtual ~SessionBase() = default;
  };

  virtual std::unique_ptr<SessionBase> make_session() {
    return std::make_unique<SessionBase>();
  }

  // Called whenever bytes were appended to `session.buffer`. The
  // implementation consumes from the buffer and reacts. If it calls
  // close_session()/abort_session() it must return immediately afterwards
  // (the session is destroyed).
  virtual void handle_data(SessionBase& session) = 0;

  // -- Terminal actions (destroy the session) --
  void close_session(SessionBase& session);  // FIN/ACK
  void abort_session(SessionBase& session);  // RST

  // Marks the session as ignore-everything; it will sit until the idle
  // timeout closes it (the peer sees TIMEOUT).
  void drain_session(SessionBase& session) { session.drained = true; }

  // The live session `id` names, or null once it was destroyed.
  // Implementations use this to detect that a nested call performed a
  // terminal action before touching a session reference again.
  SessionBase* find(SessionId id);

  // Encrypts and sends plaintext back to the client, creating the
  // server->client Encryptor (fresh IV/salt) on first use.
  void respond(SessionBase& session, ByteSpan plaintext);

  // Dispatches an upstream connection for a parsed target, sending what
  // follows the first `consumed` bytes of `plain` and clearing it;
  // failure/success actions follow the ss-libev pattern (FIN on failure,
  // data on success).
  void start_upstream(SessionBase& session, const proxy::TargetSpec& target, Bytes& plain,
                      std::size_t consumed);

  net::EventLoop& loop_;
  ServerConfig config_;
  Upstream* upstream_;
  Bytes key_;
  crypto::Rng rng_;

 private:
  void accept(net::ConnectionHandle conn);
  void on_bytes(SessionId id, ByteSpan data);
  void arm_idle_timer(SessionBase& session);
  void destroy(SessionId id);
  // Destroys the session and hands back its connection.
  net::ConnectionHandle end_session(SessionBase& session);

  // Callbacks and timers capture a session's id: one that fires after the
  // session was destroyed (its slot maybe reused) finds nothing.
  net::SlotTable<std::unique_ptr<SessionBase>> sessions_;
};

}  // namespace gfwsim::servers
