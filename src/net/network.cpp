#include "net/network.h"

#include <stdexcept>

namespace gfwsim::net {

namespace {

// Symmetric (latency) pair packed into one table key.
std::uint64_t ordered_key(Ipv4 a, Ipv4 b) {
  return a.value <= b.value
             ? (static_cast<std::uint64_t>(a.value) << 32) | b.value
             : (static_cast<std::uint64_t>(b.value) << 32) | a.value;
}

}  // namespace

// ---- Segment --------------------------------------------------------------

std::string Segment::flags_to_string() const {
  std::string out;
  if (has(TcpFlag::kSyn)) out += "SYN|";
  if (has(TcpFlag::kRst)) out += "RST|";
  if (has(TcpFlag::kFin)) out += "FIN|";
  if (has(TcpFlag::kPsh)) out += "PSH|";
  if (has(TcpFlag::kAck)) out += "ACK|";
  if (!out.empty()) out.pop_back();
  return out;
}

// ---- Connection ------------------------------------------------------------

EventLoop& Connection::loop() { return net_->loop(); }

void ReleaseConnection::operator()(Connection* conn) const {
  Network& net = conn->network();
  if (conn->id() == net.dispatching_) {
    net.dispatch_released_ = true;
  } else {
    net.free_connection(conn->id());
  }
}

void Connection::release_arq_entries(std::size_t count) {
  if (count == 0) return;
  if (ResourceGovernor* governor = net_->governor()) {
    governor->release(ResourceKind::kArqEntries, count);
  }
}

void Connection::send(ByteSpan data) {
  if (!can_send() || data.empty()) return;
  // Segment per min(MSS, peer receive window); brdgrd-style clamping by
  // the peer shows up here as many small data segments.
  const std::size_t chunk_limit =
      std::max<std::size_t>(1, std::min<std::size_t>(mss_, peer_window_));
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take = std::min(chunk_limit, data.size() - offset);
    Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(offset),
                data.begin() + static_cast<std::ptrdiff_t>(offset + take));
    bytes_sent_ += take;
    TransmitMeta meta;
    if (arq_) meta.seq = ++arq_->send_seq;
    net_->transmit(*this, TcpFlag::kPsh | TcpFlag::kAck, std::move(chunk), meta);
    offset += take;
  }
}

void Connection::close() {
  switch (state_) {
    case State::kEstablished:
      // Abandon any unacknowledged data; the FIN itself is unsequenced,
      // so a lost FIN leaves this side half-closed until the idle
      // watchdog (if armed) reaps it.
      if (arq_) {
        loop().cancel(std::exchange(arq_->rto_timer, 0));
        release_arq_entries(arq_->unacked.size());
        arq_->unacked.clear();
      }
      state_ = State::kFinSent;
      net_->transmit(*this, TcpFlag::kFin | TcpFlag::kAck, {});
      break;
    case State::kConnecting:
      cancel_arq_timers();
      state_ = State::kClosed;
      net_->unregister_connection(*this);
      break;
    default:
      break;
  }
}

void Connection::abort() {
  if (state_ == State::kClosed || state_ == State::kReset) return;
  cancel_arq_timers();
  const bool was_connecting = state_ == State::kConnecting;
  state_ = State::kReset;
  if (!was_connecting) {
    net_->transmit(*this, static_cast<std::uint8_t>(TcpFlag::kRst), {});
  }
  net_->unregister_connection(*this);
}

void Connection::set_recv_window(std::uint32_t bytes) {
  recv_window_ = bytes;
  if (state_ == State::kEstablished || state_ == State::kFinSent) {
    // Window-update ACK so the peer learns the new value.
    net_->transmit(*this, static_cast<std::uint8_t>(TcpFlag::kAck), {});
  }
}

// The ARQ timers capture the connection's id, not the connection: one
// that fires after the connection was freed finds nothing and does
// nothing (freeing does not cancel them).
void Connection::arm_syn_timer() {
  const Duration delay = arq_->config.syn_timeout * (1ll << (arq_->syn_attempts - 1));
  arq_->syn_timer = loop().schedule_after(delay, [net = net_, id = id_] {
    Connection* self = net->connection(id);
    if (self == nullptr || self->state_ != State::kConnecting) return;
    Arq& arq = *self->arq_;
    arq.syn_timer = 0;
    if (arq.syn_attempts > arq.config.max_syn_retries) {
      self->fail();
      return;
    }
    ++arq.syn_attempts;
    self->net_->transmit(*self, static_cast<std::uint8_t>(TcpFlag::kSyn), {},
                         TransmitMeta{.retransmission = true});
    self->arm_syn_timer();
  });
}

void Connection::arm_rto_timer() {
  if (arq_->rto_timer != 0) return;
  arq_->rto_timer = loop().schedule_after(arq_->config.rto, [net = net_, id = id_] {
    Connection* self = net->connection(id);
    if (self == nullptr) return;
    Arq& arq = *self->arq_;
    arq.rto_timer = 0;
    if (arq.unacked.empty() || !self->can_send()) return;
    if (arq.rto_retries >= arq.config.max_data_retries) {
      self->fail();
      return;
    }
    ++arq.rto_retries;
    arq.unacked.for_each([self, &arq](std::uint32_t, const Segment& stored) {
      Segment copy = stored;
      copy.retransmission = true;
      ++arq.retransmissions;
      self->net_->transmit_segment(std::move(copy));
    });
    self->arm_rto_timer();
  });
}

void Connection::arm_idle_timer() {
  if (arq_->config.idle_timeout <= Duration::zero()) return;
  arq_->idle_timer = loop().schedule_at(
      last_activity_ + arq_->config.idle_timeout, [net = net_, id = id_] {
        Connection* self = net->connection(id);
        if (self == nullptr) return;
        self->arq_->idle_timer = 0;
        if (self->state_ == State::kClosed || self->state_ == State::kReset) return;
        if (self->loop().now() - self->last_activity_ >=
            self->arq_->config.idle_timeout) {
          self->fail();
          return;
        }
        self->arm_idle_timer();  // activity moved the deadline; rearm lazily
      });
}

void Connection::cancel_arq_timers() {
  if (!arq_) return;
  for (TimerId* timer : {&arq_->syn_timer, &arq_->rto_timer, &arq_->idle_timer}) {
    loop().cancel(std::exchange(*timer, 0));  // cancel(0) is a no-op
  }
}

void Connection::handle_ack(std::uint32_t ack_seq) {
  if (!arq_->unacked.erase(ack_seq)) return;  // duplicate or stale ACK
  release_arq_entries(1);
  if (arq_->unacked.empty()) {
    arq_->rto_retries = 0;
    loop().cancel(std::exchange(arq_->rto_timer, 0));
  }
}

bool Connection::note_received_seq(std::uint32_t seq) {
  Arq& arq = *arq_;
  if (seq <= arq.recv_floor || arq.recv_above_floor.count(seq) > 0) return false;
  arq.recv_above_floor.insert(seq);
  while (arq.recv_above_floor.count(arq.recv_floor + 1) > 0) {
    arq.recv_above_floor.erase(arq.recv_floor + 1);
    ++arq.recv_floor;
  }
  return true;
}

void Connection::fail() {
  if (state_ == State::kClosed || state_ == State::kReset) return;
  Network::DispatchScope scope(*net_, id_);
  cancel_arq_timers();
  state_ = State::kReset;
  net_->unregister_connection(*this);
  if (cb_.on_timeout) {
    cb_.on_timeout();
  } else if (cb_.on_rst) {
    cb_.on_rst();
  }
}

// ---- Host -------------------------------------------------------------------

Host::Host(Network* net, Ipv4 addr) : net_(net), addr_(addr) {
  // Plausible default host fingerprint: Linux-ish 1000 Hz TCP timestamps
  // and a sequential IP ID, both offset by the host address so hosts do
  // not share counters (the GFW prober pool deliberately overrides this).
  const std::uint32_t salt = addr.value * 2654435761u;
  default_header_.ttl = 64;
  default_header_.tsval = [salt](TimePoint now) {
    return salt + static_cast<std::uint32_t>(now.count() / 1000000);  // 1000 Hz
  };
  ip_id_counter_ = static_cast<std::uint16_t>(salt);
  default_header_.ip_id = [this] { return ++ip_id_counter_; };
}

void Host::listen(std::uint16_t port, Acceptor acceptor) {
  if (!acceptor) throw std::invalid_argument("Host::listen: null acceptor");
  listeners_[port] = std::move(acceptor);
}

void Host::stop_listening(std::uint16_t port) { listeners_.erase(port); }

std::uint16_t Host::allocate_ephemeral_port() {
  // Linux default ephemeral range; wraps within it. After wraparound a
  // candidate port can still be held by a live connection (long campaigns
  // cycle the range many times), which would silently collide two
  // connections on the same 4-tuple — so skip ports that are in use.
  constexpr int kRangeSize = 61000 - 32768;
  for (int attempt = 0; attempt < kRangeSize; ++attempt) {
    if (next_ephemeral_ < 32768 || next_ephemeral_ >= 61000) next_ephemeral_ = 32768;
    const std::uint16_t candidate = next_ephemeral_++;
    if (!net_->local_port_in_use(addr_, candidate)) return candidate;
  }
  throw std::runtime_error("Host::allocate_ephemeral_port: range exhausted");
}

ConnectionHandle Host::connect(Endpoint remote, ConnectionCallbacks callbacks,
                               ConnectOptions options) {
  const Endpoint local{addr_, options.src_port != 0 ? options.src_port
                                                    : allocate_ephemeral_port()};
  Connection& conn =
      net_->create_connection(local, remote, options.header.value_or(default_header_),
                              options.arq.value_or(net_->arq_config()));
  conn.cb_ = std::move(callbacks);
  if (options.recv_window) conn.recv_window_ = *options.recv_window;
  net_->transmit(conn, static_cast<std::uint8_t>(TcpFlag::kSyn), {});
  if (conn.arq_) {
    conn.arq_->syn_attempts = 1;
    conn.arm_syn_timer();
    conn.arm_idle_timer();
  }
  return ConnectionHandle(&conn);
}

// ---- Network ----------------------------------------------------------------

Host& Network::add_host(Ipv4 addr) {
  auto [slot, inserted] = hosts_.try_emplace(addr.value);
  if (inserted) *slot = std::unique_ptr<Host>(new Host(this, addr));
  return **slot;
}

Host* Network::host(Ipv4 addr) {
  auto* slot = hosts_.find(addr.value);
  return slot == nullptr ? nullptr : slot->get();
}

void Network::set_latency(Ipv4 a, Ipv4 b, Duration latency) {
  latency_overrides_.insert_or_assign(ordered_key(a, b), latency);
}

Duration Network::latency(Ipv4 a, Ipv4 b) const {
  const Duration* found = latency_overrides_.find(ordered_key(a, b));
  return found == nullptr ? default_latency_ : *found;
}

void Network::remove_middlebox(Middlebox* box) {
  std::erase(middleboxes_, box);
}

void Network::set_default_faults(FaultProfile profile) {
  default_faults_ = std::move(profile);
  recompute_any_faults();
}

void Network::set_faults(Ipv4 src, Ipv4 dst, FaultProfile profile) {
  fault_overrides_.insert_or_assign(pack_directed(src, dst), std::move(profile));
  recompute_any_faults();
}

void Network::recompute_any_faults() {
  any_faults_ = default_faults_.enabled();
  if (any_faults_) return;
  fault_overrides_.for_each([this](std::uint64_t, const FaultProfile& profile) {
    any_faults_ = any_faults_ || profile.enabled();
  });
}

const FaultProfile& Network::faults_for(Ipv4 src, Ipv4 dst) const {
  const FaultProfile* found = fault_overrides_.find(pack_directed(src, dst));
  return found == nullptr ? default_faults_ : *found;
}

crypto::Rng& Network::fault_rng(Ipv4 src, Ipv4 dst) {
  const std::uint64_t key = pack_directed(src, dst);
  auto [rng, inserted] = fault_rngs_.try_emplace(key);
  if (inserted) {
    // The stream depends only on the fault seed and the directed pair of
    // addresses, never on creation order, so a path's fault pattern is
    // reproducible regardless of which other paths carry traffic.
    rng->reseed(hash_mix64(fault_seed_ ^ key));
  }
  return *rng;
}

Network::DispatchScope::~DispatchScope() {
  const ConnId id = std::exchange(net.dispatching_, ~ConnId{0});
  if (std::exchange(net.dispatch_released_, false)) net.free_connection(id);
}

Connection& Network::create_connection(Endpoint local, Endpoint remote, HeaderProfile header,
                                       const ArqConfig& arq) {
  const ConnId id = connections_.emplace(new Connection());
  Connection& conn = *connection(id);
  conn.net_ = this;
  conn.id_ = id;
  conn.local_ = local;
  conn.remote_ = remote;
  conn.header_ = std::move(header);
  conn.last_activity_ = loop_.now();
  if (arq_enabled()) conn.arq_ = std::make_unique<Connection::Arq>(arq);
  if (registry_.insert_or_assign(flow_key(local, remote), id)) {
    // Each new registry entry is one metered map slot; the matching
    // release happens in unregister_connection.
    if (governor_ != nullptr) governor_->acquire(ResourceKind::kMapSlots);
    ++*port_use_.try_emplace(pack_endpoint(local)).first;
  }
  return conn;
}

void Network::free_connection(ConnId id) {
  Connection& conn = *connection(id);
  if (conn.arq_) conn.release_arq_entries(conn.arq_->unacked.size());
  // The 4-tuple may have been re-registered by a newer connection; only
  // an entry that still names this one is removed.
  const ConnId* entry = registry_.find(flow_key(conn.local_, conn.remote_));
  if (entry != nullptr && *entry == id) unregister_connection(conn);
  connections_.erase(id);
}

Connection* Network::find_connection(const Endpoint& local, const Endpoint& remote) {
  const ConnId* id = registry_.find(flow_key(local, remote));
  return id == nullptr ? nullptr : connection(*id);
}

bool Network::local_port_in_use(Ipv4 addr, std::uint16_t port) const {
  const std::uint32_t* count = port_use_.find(pack_endpoint(Endpoint{addr, port}));
  return count != nullptr && *count > 0;
}

void Network::unregister_connection(const Connection& conn) {
  if (!registry_.erase(flow_key(conn.local_, conn.remote_))) return;
  const std::uint64_t packed_local = pack_endpoint(conn.local_);
  if (governor_ != nullptr) governor_->release(ResourceKind::kMapSlots);
  if (std::uint32_t* count = port_use_.find(packed_local)) {
    if (--*count == 0) port_use_.erase(packed_local);
  }
}

void Network::transmit(Connection& from, std::uint8_t flags, PayloadRef payload,
                       TransmitMeta meta) {
  Segment segment;
  segment.src = from.local_;
  segment.dst = from.remote_;
  segment.flags = flags;
  segment.payload = std::move(payload);
  segment.ttl = from.header_.ttl;
  segment.tsval = from.header_.tsval ? from.header_.tsval(loop_.now()) : 0;
  segment.ip_id = from.header_.ip_id ? from.header_.ip_id() : 0;
  segment.window = from.recv_window_;
  segment.seq = meta.seq;
  segment.ack_seq = meta.ack_seq;
  segment.retransmission = meta.retransmission;
  if (from.arq_ && segment.seq != 0 && segment.is_data() && !meta.retransmission) {
    if (governor_ != nullptr) governor_->acquire(ResourceKind::kArqEntries);
    from.arq_->unacked.insert(segment.seq, segment);  // retransmit buffer copy
    from.arm_rto_timer();
  }
  transmit_segment(std::move(segment));
}

void Network::transmit_segment(Segment segment) {
  segment.sent_at = loop_.now();
  ++segments_transmitted_;
  if (segment.retransmission) ++retransmissions_;
  route_copy(std::move(segment), /*duplicate=*/false);
}

void Network::route_copy(Segment segment, bool duplicate) {
  Verdict verdict = Verdict::kPass;
  for (Middlebox* box : middleboxes_) {
    if (box->on_segment(segment) == Verdict::kDrop) {
      verdict = Verdict::kDrop;
      break;
    }
  }

  const Duration path_latency = latency(segment.src.addr, segment.dst.addr);
  // The tap record copies the whole segment (payload included), so it is
  // only materialized when a tap is installed; the fields match what the
  // tap always saw for each outcome.
  const auto tap_drop = [&](DropCause cause) {
    if (!tap_) return;
    SegmentRecord record{segment, segment.sent_at + path_latency, true};
    record.duplicate = duplicate;
    record.cause = cause;
    tap_(record);
  };

  if (verdict == Verdict::kDrop) {
    ++dropped_middlebox_;
    tap_drop(DropCause::kMiddlebox);
    return;
  }

  // Per-path queue cap: a full path sheds the segment before the fault
  // layer, so a capped path consumes no fault draws for shed traffic.
  // With no cap configured the table is never touched.
  std::uint64_t path_key = 0;
  if (queue_cap_ != 0) {
    path_key = pack_directed(segment.src.addr, segment.dst.addr);
    const std::uint32_t* in_flight = path_in_flight_.find(path_key);
    if (in_flight != nullptr && *in_flight >= queue_cap_) {
      ++dropped_queue_;
      tap_drop(DropCause::kQueueOverflow);
      return;
    }
  }

  // Fault layer. Draw order per surviving segment is fixed (loss, then
  // duplication, then reorder, then jitter) so per-path streams replay
  // identically; an outage consumes no randomness at all.
  bool make_dup = false;
  Duration fault_delay{};
  if (any_faults_) {
    const FaultProfile& profile = faults_for(segment.src.addr, segment.dst.addr);
    if (profile.enabled()) {
      if (profile.down_at(segment.sent_at)) {
        ++dropped_outage_;
        tap_drop(DropCause::kOutage);
        return;
      }
      crypto::Rng& rng = fault_rng(segment.src.addr, segment.dst.addr);
      if (profile.loss > 0.0 && rng.bernoulli(profile.loss)) {
        ++dropped_loss_;
        tap_drop(DropCause::kLoss);
        return;
      }
      if (!duplicate && profile.duplicate > 0.0 && rng.bernoulli(profile.duplicate)) {
        make_dup = true;
      }
      if (profile.reorder > 0.0 && rng.bernoulli(profile.reorder)) {
        fault_delay += profile.reorder_delay;
        ++segments_reordered_;
      }
      if (profile.jitter > Duration::zero()) {
        fault_delay += Duration(static_cast<Duration::rep>(rng.uniform(
            0, static_cast<std::uint64_t>(profile.jitter.count()) - 1)));
      }
    }
  }

  const TimePoint arrive_at = segment.sent_at + path_latency + fault_delay;
  if (tap_) {
    SegmentRecord record{segment, arrive_at, false};
    record.duplicate = duplicate;
    record.fault_delay = fault_delay;
    tap_(record);
  }

  // The duplicate's wire copy is taken before the original moves into the
  // delivery closure; it is byte-identical (same header fields, same
  // sent_at) and re-traverses the middleboxes below — the GFW really does
  // see the payload twice.
  Segment dup_copy;
  if (make_dup) dup_copy = segment;

  // Metered as in-flight payload bytes until the delivery fires; a
  // breach here aborts the shard before the delivery is scheduled.
  if (governor_ != nullptr && segment.payload.size() != 0) {
    governor_->acquire(ResourceKind::kPayloadBytes, segment.payload.size());
  }
  if (queue_cap_ != 0) ++*path_in_flight_.try_emplace(path_key).first;
  ++segments_in_flight_;
  loop_.schedule_at(arrive_at, [this, seg = std::move(segment)] {
    --segments_in_flight_;
    if (queue_cap_ != 0) {
      if (std::uint32_t* in_flight = path_in_flight_.find(
              pack_directed(seg.src.addr, seg.dst.addr))) {
        if (*in_flight > 0) --*in_flight;
      }
    }
    if (governor_ != nullptr && seg.payload.size() != 0) {
      governor_->release(ResourceKind::kPayloadBytes, seg.payload.size());
    }
    ++segments_delivered_;
    deliver(seg);
  });

  if (make_dup) {
    // It may be lost or delayed independently but cannot duplicate again.
    ++segments_duplicated_;
    route_copy(std::move(dup_copy), /*duplicate=*/true);
  }
}

std::string TeardownReport::describe() const {
  if (clean()) return "clean";
  std::string out;
  const auto add = [&out](const std::string& part) {
    if (!out.empty()) out += ", ";
    out += part;
  };
  if (leaked_established > 0) {
    add(std::to_string(leaked_established) +
        " leaked established connection(s) idle past the grace period");
  }
  if (stale_registrations > 0) {
    add(std::to_string(stale_registrations) +
        " stale registration(s) (closed/reset connections still registered)");
  }
  if (timers_overdue) {
    add("overdue timer(s) among " + std::to_string(pending_timers) +
        " pending (due at or before now, never run)");
  }
  if (!accounting_balanced) {
    add("segment accounting mismatch (transmitted + duplicated != delivered + "
        "dropped + " +
        std::to_string(segments_in_flight) + " in flight)");
  }
  return out;
}

std::uint64_t Network::payload_bytes_for(Endpoint endpoint) const {
  const std::uint64_t* bytes = endpoint_payload_bytes_.find(pack_endpoint(endpoint));
  return bytes == nullptr ? 0 : *bytes;
}

TeardownReport Network::teardown_report(Duration grace) {
  TeardownReport report;
  const TimePoint now = loop_.now();
  registry_.for_each([&](const FlowKey&, ConnId id) {
    const Connection* conn = connection(id);
    if (conn == nullptr) {
      // Unreachable while freeing deregisters; counted anyway so a
      // future registry bug shows up in the report rather than hiding.
      ++report.expired_registrations;
      return;
    }
    switch (conn->state_) {
      case Connection::State::kConnecting:
        ++report.embryonic;
        break;
      case Connection::State::kFinSent:
        ++report.half_closed;
        break;
      case Connection::State::kEstablished:
        if (now - conn->last_activity_ > grace) {
          ++report.leaked_established;
        } else {
          ++report.live_established;
        }
        break;
      default:
        // Closed/reset connections must have unregistered themselves.
        ++report.stale_registrations;
        break;
    }
  });
  report.pending_timers = loop_.pending();
  if (const auto due = loop_.next_due()) {
    report.timers_overdue = *due <= now;
  }
  report.segments_in_flight = segments_in_flight_;
  report.accounting_balanced =
      segments_transmitted_ + segments_duplicated_ ==
      segments_delivered_ + segments_dropped() + segments_in_flight_;
  return report;
}

void Network::send_rst_to(const Segment& offending) {
  Segment rst;
  rst.src = offending.dst;
  rst.dst = offending.src;
  rst.flags = TcpFlag::kRst | TcpFlag::kAck;
  if (Host* h = host(offending.dst.addr)) {
    rst.ttl = h->default_header_.ttl;
    rst.ip_id = h->default_header_.ip_id ? h->default_header_.ip_id() : 0;
    // RFC 7323: RSTs carry no timestamp option (tsval stays 0).
  }
  transmit_segment(std::move(rst));
}

void Network::handle_syn(const Segment& segment) {
  Host* h = host(segment.dst.addr);
  if (h == nullptr) return;  // address routes nowhere: silent drop
  const auto listener = h->listeners_.find(segment.dst.port);
  if (listener == h->listeners_.end()) {
    send_rst_to(segment);  // connection refused
    return;
  }
  if (Connection* existing = find_connection(segment.dst, segment.src)) {
    // Duplicate SYN. When the client is retrying (its copy carries the
    // retransmission mark) and we are still waiting for the handshake
    // ACK, the original SYN/ACK was evidently lost: answer again.
    if (existing->arq_ && segment.retransmission &&
        existing->state_ == Connection::State::kConnecting) {
      transmit(*existing, TcpFlag::kSyn | TcpFlag::kAck, {},
               TransmitMeta{.retransmission = true});
    }
    return;
  }

  Connection& conn =
      create_connection(segment.dst, segment.src, h->default_header_, arq_config_);
  conn.peer_window_ = segment.window;

  // Acceptor installs callbacks (and possibly a clamped window) before
  // the SYN/ACK goes out, so the very first advertised window is already
  // the clamped one — exactly how brdgrd operates. An acceptor that drops
  // the handle still gets its SYN/ACK sent: the scope frees the
  // connection only after that.
  DispatchScope scope(*this, conn.id_);
  listener->second(ConnectionHandle(&conn));
  transmit(conn, TcpFlag::kSyn | TcpFlag::kAck, {});
  // The idle watchdog also reaps embryonic (SYN-received) connections
  // whose handshake never completes.
  if (conn.arq_) conn.arm_idle_timer();
}

void Network::deliver(const Segment& segment) {
  if (segment.has(TcpFlag::kSyn) && !segment.has(TcpFlag::kAck)) {
    handle_syn(segment);
    return;
  }

  Connection* conn = find_connection(segment.dst, segment.src);
  if (conn == nullptr) {
    // Late segment to a vanished connection; RSTs answer data, the rest
    // is ignored.
    if (segment.is_data()) send_rst_to(segment);
    return;
  }
  DispatchScope scope(*this, conn->id_);

  conn->peer_window_ = segment.window;
  conn->last_activity_ = loop_.now();

  if (segment.has(TcpFlag::kRst)) {
    conn->cancel_arq_timers();
    conn->state_ = Connection::State::kReset;
    unregister_connection(*conn);
    if (conn->cb_.on_rst) conn->cb_.on_rst();
    return;
  }

  if (segment.has(TcpFlag::kSyn) && segment.has(TcpFlag::kAck)) {
    if (conn->state_ == Connection::State::kConnecting) {
      if (conn->arq_) loop_.cancel(std::exchange(conn->arq_->syn_timer, 0));
      conn->state_ = Connection::State::kEstablished;
      transmit(*conn, static_cast<std::uint8_t>(TcpFlag::kAck), {});  // handshake ACK
      if (conn->cb_.on_connected) conn->cb_.on_connected();
    }
    return;
  }

  if (conn->state_ == Connection::State::kConnecting) {
    // Server side: the handshake ACK completes establishment. Data may
    // ride on it (or arrive immediately after).
    conn->state_ = Connection::State::kEstablished;
    if (conn->cb_.on_connected) conn->cb_.on_connected();
  }

  if (conn->arq_ && segment.ack_seq != 0 && segment.has(TcpFlag::kAck)) {
    conn->handle_ack(segment.ack_seq);
  }

  if (segment.is_data()) {
    if (conn->arq_ && segment.seq != 0) {
      // Acknowledge every copy (the previous ACK may have been the one
      // that got lost), but deliver each sequence number to the
      // application exactly once.
      const bool fresh = conn->note_received_seq(segment.seq);
      transmit(*conn, static_cast<std::uint8_t>(TcpFlag::kAck), {},
               TransmitMeta{.ack_seq = segment.seq});
      if (!fresh) return;
    }
    conn->bytes_received_ += segment.payload.size();
    payload_bytes_delivered_ += segment.payload.size();
    if (endpoint_accounting_) {
      const auto bytes = static_cast<std::uint64_t>(segment.payload.size());
      *endpoint_payload_bytes_.try_emplace(pack_endpoint(segment.src)).first += bytes;
      *endpoint_payload_bytes_.try_emplace(pack_endpoint(segment.dst)).first += bytes;
    }
    if (conn->cb_.on_data) conn->cb_.on_data(segment.payload);
    // `conn` may have been closed by the callback; stop processing.
    return;
  }

  if (segment.has(TcpFlag::kFin)) {
    if (conn->state_ == Connection::State::kFinSent ||
        conn->state_ == Connection::State::kEstablished) {
      conn->cancel_arq_timers();
      conn->state_ = Connection::State::kClosed;
      unregister_connection(*conn);
    }
    if (conn->cb_.on_fin) conn->cb_.on_fin();
    return;
  }
}

}  // namespace gfwsim::net
