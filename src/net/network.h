// The simulated network: hosts, routing, latency, middlebox taps, faults.
//
// Topology model: a full mesh of hosts with configurable one-way latency
// (global default plus per-pair overrides). Every transmitted segment
// passes through the registered middleboxes in order — this is where the
// GFW sits on the path, observing and (when blocking) dropping segments —
// then through the path's FaultProfile (loss, duplication, reordering,
// jitter, outages; see net/fault.h), and is finally delivered to the
// destination connection after path latency plus any fault delay. A tap
// callback observes every segment together with its routing outcome,
// acting as the experiment's packet capture.
//
// Fault determinism: each directed path (src, dst) owns a private xoshiro
// stream derived from the fault seed and the two addresses, created
// lazily. Per-path draw sequences therefore depend only on that path's
// traffic, never on which other paths exist or when they first spoke.
// With no enabled profile the fault layer draws nothing, stamps nothing,
// and arms nothing: the network is bit-identical to the ideal mesh.
//
// Lookup tables: connections, latency overrides, fault profiles, and
// fault streams all live in open-addressing hash tables (net/flat_hash.h)
// keyed on packed integers — a routed segment resolves its connection,
// latency, and faults in O(1) with no tree walks. The Network owns every
// connection (net/connection.h); the registry maps a 4-tuple to its id,
// and freeing a connection removes the entry if it still names that id,
// so the per-port usage count guarding ephemeral-port reuse is exact.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/rng.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/fault.h"
#include "net/flat_hash.h"
#include "net/resources.h"
#include "net/segment.h"
#include "net/slot_table.h"

namespace gfwsim::net {

enum class Verdict { kPass, kDrop };

// On-path observer/filter (the GFW's passive side implements this).
class Middlebox {
 public:
  virtual ~Middlebox() = default;
  virtual Verdict on_segment(const Segment& segment) = 0;
};

struct ConnectOptions {
  std::uint16_t src_port = 0;  // 0 = allocate ephemeral
  std::optional<HeaderProfile> header;
  std::optional<std::uint32_t> recv_window;
  // Per-connection ARQ tuning override (used by the GFW prober pool to
  // fail dead probe connections fast enough to retry within the probe
  // timeout). Only consulted when the network's ARQ is enabled.
  std::optional<ArqConfig> arq;
};

// End-of-campaign invariant check (the teardown watchdog). `clean()` is
// asserted by integration tests: a leaked established connection, a
// registration for a dead connection, an overdue-but-unprocessed timer,
// or unbalanced segment accounting all indicate a simulation bug.
// Embryonic (SYN-received, never completed) and half-closed (FIN sent,
// peer silent) connections are tallied for visibility but tolerated:
// both are real TCP phenomena when the peer is blocked or lossy.
struct TeardownReport {
  std::size_t leaked_established = 0;  // established, idle past the grace period
  std::size_t live_established = 0;    // established, recently active
  std::size_t embryonic = 0;           // stuck in kConnecting
  std::size_t half_closed = 0;         // kFinSent, FIN unanswered
  std::size_t stale_registrations = 0;  // live object, but closed/reset while registered
  std::size_t expired_registrations = 0;  // registry ids that no longer resolve
  std::size_t pending_timers = 0;
  bool timers_overdue = false;       // a live timer was due at or before now
  std::size_t segments_in_flight = 0;  // scheduled deliveries not yet run
  bool accounting_balanced = true;   // transmitted + duplicated ==
                                     //   delivered + dropped + in flight

  bool clean() const {
    return leaked_established == 0 && stale_registrations == 0 &&
           !timers_overdue && accounting_balanced;
  }

  // Names every violated invariant ("clean" when none), so test failure
  // messages and ShardFailure records say *which* watchdog tripped
  // instead of a bare clean()==false.
  std::string describe() const;
};

class Network;

// ARQ metadata stamped onto an outgoing segment by Network::transmit.
struct TransmitMeta {
  std::uint32_t seq = 0;
  std::uint32_t ack_seq = 0;
  bool retransmission = false;
};

class Host {
 public:
  using Acceptor = std::function<void(ConnectionHandle)>;

  Ipv4 addr() const { return addr_; }

  // Installs a listener; incoming SYNs to `port` create server-side
  // connections handed to `acceptor`, which must install callbacks (and
  // may clamp the receive window) before the SYN/ACK is emitted, which
  // goes out even when the acceptor drops the handle.
  void listen(std::uint16_t port, Acceptor acceptor);
  void stop_listening(std::uint16_t port);

  ConnectionHandle connect(Endpoint remote, ConnectionCallbacks callbacks,
                           ConnectOptions options = {});

 private:
  friend class Network;
  Host(Network* net, Ipv4 addr);

  std::uint16_t allocate_ephemeral_port();

  Network* net_;
  Ipv4 addr_;
  HeaderProfile default_header_;
  std::unordered_map<std::uint16_t, Acceptor> listeners_;
  std::uint16_t next_ephemeral_ = 32768;
  std::uint16_t ip_id_counter_ = 0;
};

class Network {
 public:
  explicit Network(EventLoop& loop) : loop_(loop) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Host& add_host(Ipv4 addr);
  Host* host(Ipv4 addr);

  EventLoop& loop() { return loop_; }

  // The connection `id` names, or null once it was freed.
  Connection* connection(ConnId id) {
    std::unique_ptr<Connection>* slot = connections_.get(id);
    return slot == nullptr ? nullptr : slot->get();
  }

  void set_default_latency(Duration latency) { default_latency_ = latency; }
  // Symmetric per-pair override.
  void set_latency(Ipv4 a, Ipv4 b, Duration latency);
  Duration latency(Ipv4 a, Ipv4 b) const;

  // Middleboxes see segments at transmission time, in registration order;
  // the first kDrop verdict wins. The caller retains ownership.
  void add_middlebox(Middlebox* box) { middleboxes_.push_back(box); }
  void remove_middlebox(Middlebox* box);

  // Observes every segment with its outcome (the "pcap").
  void set_tap(std::function<void(const SegmentRecord&)> tap) { tap_ = std::move(tap); }

  // ---- Fault injection -----------------------------------------------------

  // Seeds the per-path impairment streams; derive from the World seed so
  // every shard's fault pattern is reproducible.
  void set_fault_seed(std::uint64_t seed) { fault_seed_ = seed; }

  // Profile applied to every directed path without an override.
  void set_default_faults(FaultProfile profile);
  // Directional override for segments flowing src -> dst (one-way loss
  // and asymmetric outages are expressible; set both directions for a
  // symmetric impairment).
  void set_faults(Ipv4 src, Ipv4 dst, FaultProfile profile);
  const FaultProfile& faults_for(Ipv4 src, Ipv4 dst) const;
  bool faults_enabled() const { return any_faults_; }

  // ---- Resource governance -------------------------------------------------

  // Attaches the shard's resource governor (net/resources.h): in-flight
  // payload bytes, connection-registry slots, and ARQ retransmit-buffer
  // entries are metered against its budgets. Null (the default) meters
  // nothing. The governor must outlive the attachment.
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }
  ResourceGovernor* governor() const { return governor_; }

  // Caps the number of segments simultaneously in flight on each
  // directed (src, dst) path; a segment routed to a full path is dropped
  // with DropCause::kQueueOverflow. 0 (the default) leaves every path
  // unbounded and maintains no per-path state at all, so ungoverned runs
  // are bit-identical to builds without the cap.
  void set_queue_cap(std::size_t cap) { queue_cap_ = cap; }

  // ARQ switches on automatically when any fault profile is enabled (an
  // impaired network without retransmission strands every endpoint);
  // force_arq overrides that coupling in either direction for tests.
  void set_arq(ArqConfig config) { arq_config_ = config; }
  const ArqConfig& arq_config() const { return arq_config_; }
  void force_arq(bool enabled) { arq_forced_ = enabled; }
  bool arq_enabled() const { return arq_forced_ ? *arq_forced_ : any_faults_; }

  // ---- Counters ------------------------------------------------------------

  std::size_t segments_transmitted() const { return segments_transmitted_; }
  // All causes; see the per-cause accessors for the split.
  std::size_t segments_dropped() const {
    return dropped_middlebox_ + dropped_loss_ + dropped_outage_ + dropped_queue_;
  }
  std::size_t segments_dropped_middlebox() const { return dropped_middlebox_; }
  std::size_t segments_dropped_loss() const { return dropped_loss_; }
  std::size_t segments_dropped_outage() const { return dropped_outage_; }
  std::size_t segments_dropped_queue() const { return dropped_queue_; }
  std::size_t segments_delivered() const { return segments_delivered_; }
  std::size_t segments_duplicated() const { return segments_duplicated_; }
  std::size_t segments_reordered() const { return segments_reordered_; }
  std::size_t segments_in_flight() const { return segments_in_flight_; }
  std::size_t retransmissions() const { return retransmissions_; }
  // Sum of data payload bytes handed to destination connections (each
  // in-order delivery counted once; the goodput numerator of the
  // benchmark suite's goodput_MBps).
  std::uint64_t payload_bytes_delivered() const { return payload_bytes_delivered_; }

  // Opt-in per-endpoint payload attribution for fleet worlds: when
  // enabled, every delivered data byte is also credited to both the
  // source and destination endpoint, so per-server goodput can be split
  // out of one shared network. Off by default — single-server campaigns
  // pay nothing for it.
  void enable_endpoint_accounting() { endpoint_accounting_ = true; }
  // Bytes delivered on connections where `endpoint` was either side
  // (0 before enable_endpoint_accounting() or for unseen endpoints).
  std::uint64_t payload_bytes_for(Endpoint endpoint) const;

  // Scans current state without running the loop (running it would
  // perturb the very behaviour under audit). `grace` must exceed the ARQ
  // idle timeout, else connections whose watchdog simply has not fired
  // yet would be miscounted as leaks.
  TeardownReport teardown_report(Duration grace = minutes(30));

 private:
  friend class Host;
  friend class Connection;
  friend struct ReleaseConnection;

  // Open while a connection's callbacks may run (deliver, handle_syn, an
  // ARQ failure): its handle released meanwhile frees it only when the
  // scope ends, so the calling frame can keep using it. Never nested.
  struct DispatchScope {
    DispatchScope(Network& n, ConnId id) : net(n) { net.dispatching_ = id; }
    ~DispatchScope();
    Network& net;
  };

  // Packed 4-tuple key: (local addr:port, remote addr:port), 48 bits per
  // endpoint.
  struct FlowKey {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::uint64_t operator()(const FlowKey& key) const {
      return hash_mix64(key.local ^ (key.remote * 0x9e3779b97f4a7c15ull));
    }
  };

  static std::uint64_t pack_endpoint(const Endpoint& e) {
    return (static_cast<std::uint64_t>(e.addr.value) << 16) | e.port;
  }
  static FlowKey flow_key(const Endpoint& local, const Endpoint& remote) {
    return FlowKey{pack_endpoint(local), pack_endpoint(remote)};
  }
  static std::uint64_t pack_directed(Ipv4 src, Ipv4 dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
  }

  // Builds a segment from a connection's state and routes it. The payload
  // buffer is shared (not copied) by every downstream holder.
  void transmit(Connection& from, std::uint8_t flags, PayloadRef payload,
                TransmitMeta meta = TransmitMeta());
  // Routes a fully-formed segment (used for synthesized RSTs and ARQ
  // retransmissions).
  void transmit_segment(Segment segment);
  // Middlebox + fault-layer pass for one wire copy; `duplicate` marks the
  // extra copy of a duplicated segment (which cannot itself duplicate).
  void route_copy(Segment segment, bool duplicate);
  crypto::Rng& fault_rng(Ipv4 src, Ipv4 dst);
  void recompute_any_faults();
  void deliver(const Segment& segment);
  void handle_syn(const Segment& segment);

  // Allocates and registers a connection (kConnecting, with ARQ state
  // when ARQ is on) owned by this network.
  Connection& create_connection(Endpoint local, Endpoint remote, HeaderProfile header,
                                const ArqConfig& arq);
  void free_connection(ConnId id);
  Connection* find_connection(const Endpoint& local, const Endpoint& remote);
  // True if any live connection on `addr` has local port `port` (any
  // remote); used to keep ephemeral-port allocation collision-free after
  // the range wraps in long campaigns.
  bool local_port_in_use(Ipv4 addr, std::uint16_t port) const;
  // Removes the connection's 4-tuple from the registry, keeping the
  // per-port count in step.
  void unregister_connection(const Connection& conn);
  void send_rst_to(const Segment& offending);

  EventLoop& loop_;
  Duration default_latency_ = milliseconds(50);
  FlatHashMap<std::uint64_t, Duration> latency_overrides_;  // symmetric pair
  FlatHashMap<std::uint64_t, std::unique_ptr<Host>> hosts_;  // by address
  // The unique_ptr keeps a Connection& stable while a callback connect()s
  // and grows the table.
  SlotTable<std::unique_ptr<Connection>> connections_;
  FlatHashMap<FlowKey, ConnId, FlowKeyHash> registry_;
  // Registered connections per packed local endpoint; exact because
  // freeing a connection deregisters it.
  FlatHashMap<std::uint64_t, std::uint32_t> port_use_;
  // The connection a DispatchScope is open for, and whether its handle
  // was released meanwhile.
  ConnId dispatching_ = ~ConnId{0};
  bool dispatch_released_ = false;
  std::vector<Middlebox*> middleboxes_;
  std::function<void(const SegmentRecord&)> tap_;

  // Fault layer. fault_rngs_ is keyed by the *directed* pair — loss on
  // src->dst must not consume draws from dst->src.
  std::uint64_t fault_seed_ = 0;
  FaultProfile default_faults_;
  FlatHashMap<std::uint64_t, FaultProfile> fault_overrides_;  // directed pair
  FlatHashMap<std::uint64_t, crypto::Rng> fault_rngs_;        // directed pair
  bool any_faults_ = false;
  ArqConfig arq_config_;
  std::optional<bool> arq_forced_;

  // Resource governance: optional governor plus the per-path in-flight
  // counts backing the queue cap (allocated lazily, and only when a cap
  // is set — capless runs never touch the table).
  ResourceGovernor* governor_ = nullptr;
  std::size_t queue_cap_ = 0;
  FlatHashMap<std::uint64_t, std::uint32_t> path_in_flight_;  // directed pair

  std::size_t segments_transmitted_ = 0;
  std::size_t segments_delivered_ = 0;
  std::size_t dropped_middlebox_ = 0;
  std::size_t dropped_loss_ = 0;
  std::size_t dropped_outage_ = 0;
  std::size_t dropped_queue_ = 0;
  std::size_t segments_duplicated_ = 0;
  std::size_t segments_reordered_ = 0;
  std::size_t segments_in_flight_ = 0;
  std::size_t retransmissions_ = 0;
  std::uint64_t payload_bytes_delivered_ = 0;
  bool endpoint_accounting_ = false;
  FlatHashMap<std::uint64_t, std::uint64_t> endpoint_payload_bytes_;
};

}  // namespace gfwsim::net
