// One endpoint's view of a simulated TCP connection.
//
// Applications interact with a Connection through callbacks (installed at
// accept/connect time) and the send/close/abort methods. Segmentation
// honours the peer's advertised receive window, which is what makes the
// brdgrd defense (section 7.1 of the paper) expressible: a server that
// clamps its window forces the client's first payload to arrive as several
// small data segments, defeating first-packet length classification.
//
// When the network runs a fault profile (net/fault.h) the connection
// switches on a minimal ARQ: data segments are sequenced and retransmitted
// on a fixed RTO until acknowledged, SYNs are retried with exponential
// backoff, duplicate deliveries are suppressed before reaching the
// application, and connect/RTO/idle exhaustion fails the connection
// through on_timeout. With faults disabled none of this machinery runs and
// the wire format is bit-identical to the ideal-network behaviour.
//
// Ownership: the Network owns every Connection, names it by a generation-
// tagged ConnId and must outlive every ConnectionHandle. Releasing the
// handle frees the connection at once, or when the network's dispatch
// into it returns if its callback is on the stack. Observers keep the
// ConnId and resolve it with Network::connection().
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <set>

#include "crypto/bytes.h"
#include "net/addr.h"
#include "net/event_loop.h"
#include "net/fault.h"
#include "net/segment.h"
#include "net/seq_ring.h"
#include "net/time.h"

namespace gfwsim::net {

class Network;

// A connection's id in its Network; stale once the connection is freed.
using ConnId = std::uint64_t;

struct ConnectionCallbacks {
  // Handshake complete (client: SYN/ACK received; server: fires right
  // after the acceptor installs callbacks).
  std::function<void()> on_connected;
  // A data segment's payload arrived.
  std::function<void(ByteSpan)> on_data;
  // Peer closed cleanly (FIN).
  std::function<void()> on_fin;
  // Peer aborted (RST), or the connection was refused.
  std::function<void()> on_rst;
  // ARQ gave up: SYN retries exhausted, data retransmissions exhausted, or
  // the idle watchdog fired. Falls back to on_rst when not installed.
  std::function<void()> on_timeout;
};

// Generates the fingerprintable header fields for outgoing segments of one
// connection. Hosts install defaults; the GFW prober pool installs its own
// (shared TSval processes, TTL 46-50, Linux ephemeral ports...).
struct HeaderProfile {
  std::uint8_t ttl = 64;
  std::function<std::uint32_t(TimePoint)> tsval;  // may be null -> 0
  std::function<std::uint16_t()> ip_id;           // may be null -> 0
};

class Connection {
 public:
  enum class State { kConnecting, kEstablished, kFinSent, kClosed, kReset };

  ~Connection() { live_.fetch_sub(1, std::memory_order_relaxed); }

  // Connection objects alive in this process, across every Network. Read
  // by leak tests only: it never enters a summary, checkpoint or digest.
  static std::size_t live_count() { return live_.load(std::memory_order_relaxed); }

  ConnId id() const { return id_; }
  Network& network() const { return *net_; }
  Endpoint local() const { return local_; }
  Endpoint remote() const { return remote_; }
  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished || state_ == State::kFinSent; }
  bool can_send() const {
    return state_ == State::kEstablished || state_ == State::kFinSent;
  }

  void set_callbacks(ConnectionCallbacks cb) { cb_ = std::move(cb); }

  // Queues payload; it is segmented per min(MSS, peer window) and
  // delivered with path latency. No-op if the connection cannot send.
  void send(ByteSpan data);

  // Graceful close: emits FIN (with any semantics the peer applies).
  void close();

  // Abortive close: emits RST.
  void abort();

  // Sets the receive window advertised to the peer. Takes effect on the
  // SYN/ACK for not-yet-accepted connections, or via a window-update ACK.
  void set_recv_window(std::uint32_t bytes);

  std::uint32_t recv_window() const { return recv_window_; }
  std::uint32_t peer_window() const { return peer_window_; }
  std::size_t bytes_received() const { return bytes_received_; }
  std::size_t bytes_sent() const { return bytes_sent_; }

  // ARQ observability.
  bool arq_active() const { return arq_ != nullptr; }
  std::size_t retransmissions() const { return arq_ ? arq_->retransmissions : 0; }

  EventLoop& loop();

 private:
  friend class Network;
  friend class Host;

  Connection() { live_.fetch_add(1, std::memory_order_relaxed); }

  static inline std::atomic<std::size_t> live_{0};

  // ARQ internals (implemented in network.cpp beside the routing logic).
  // All but cancel_arq_timers() and release_arq_entries() require arq_.
  void arm_syn_timer();
  void arm_rto_timer();
  void arm_idle_timer();
  void cancel_arq_timers();
  void handle_ack(std::uint32_t ack_seq);
  bool note_received_seq(std::uint32_t seq);  // false if a duplicate
  void fail();                                // on_timeout-style failure
  // Returns `count` metered kArqEntries units to the network's resource
  // governor (no-op without one); paired with the acquire at insert time.
  void release_arq_entries(std::size_t count);

  Network* net_ = nullptr;
  ConnId id_ = 0;
  Endpoint local_;
  Endpoint remote_;
  HeaderProfile header_;
  ConnectionCallbacks cb_;
  State state_ = State::kConnecting;
  std::uint32_t recv_window_ = 65535;
  std::uint32_t peer_window_ = 65535;
  std::uint32_t mss_ = 1448;
  std::size_t bytes_received_ = 0;
  std::size_t bytes_sent_ = 0;

  // Read by the teardown report on every connection, ARQ or not.
  TimePoint last_activity_{};

  // ARQ state. An ideal-network connection carries none of it: the block
  // is allocated at creation time only when Network::arq_enabled(), so
  // `if (arq_)` is the ARQ switch and no timer is armed without it.
  struct Arq {
    explicit Arq(ArqConfig arq_config) : config(arq_config) {}

    ArqConfig config;
    std::uint32_t send_seq = 0;
    SeqRing<Segment> unacked;  // retransmit buffer in seq order
    int rto_retries = 0;
    int syn_attempts = 0;
    TimerId rto_timer = 0;
    TimerId syn_timer = 0;
    TimerId idle_timer = 0;
    std::uint32_t recv_floor = 0;            // every seq <= floor was seen
    std::set<std::uint32_t> recv_above_floor;  // out-of-order seqs seen
    std::size_t retransmissions = 0;
  };
  std::unique_ptr<Arq> arq_;
};

// The application's sole owner of one Connection: destroying or reset()ing
// it releases the connection to its Network.
struct ReleaseConnection {
  void operator()(Connection* conn) const;
};
using ConnectionHandle = std::unique_ptr<Connection, ReleaseConnection>;

}  // namespace gfwsim::net
