#include "gfw/gfw.h"

#include "crypto/sha1.h"

namespace gfwsim::gfw {

namespace {
constexpr std::size_t kMaxStoredPayloadsPerServer = 32;
constexpr std::size_t kMaxTrackedFlows = 200000;
}  // namespace

std::uint64_t payload_fingerprint(ByteSpan payload) {
  const auto digest = crypto::Sha1::hash(payload);
  return load_le64(digest.data());
}

Gfw::Gfw(net::Network& net, GfwConfig config, std::uint64_t seed)
    : net_(net),
      config_(std::move(config)),
      rng_(seed),
      classifier_(config_.classifier),
      pool_(net, config_.pool, seed ^ 0x900100),
      blocking_(net.loop(), config_.blocking, seed ^ 0xb10c),
      delay_model_() {
  if (!config_.is_domestic) {
    throw std::invalid_argument("Gfw: is_domestic predicate must be set");
  }
}

Gfw::~Gfw() = default;

std::size_t Gfw::servers_in_stage2() const {
  std::size_t n = 0;
  for (const auto& [server, state] : servers_) n += state.stage2 ? 1 : 0;
  return n;
}

net::Verdict Gfw::on_segment(const net::Segment& segment) {
  // Blocking rules first: null-route the server->client direction.
  if (blocking_.should_drop(segment)) return net::Verdict::kDrop;

  // The GFW's own probes are not re-inspected.
  if (pool_.is_prober_address(segment.src.addr) ||
      pool_.is_prober_address(segment.dst.addr)) {
    return net::Verdict::kPass;
  }

  // Only border-crossing flows are inspected; direction does not matter.
  const bool src_inside = config_.is_domestic(segment.src.addr);
  const bool dst_inside = config_.is_domestic(segment.dst.addr);
  if (src_inside == dst_inside) return net::Verdict::kPass;

  const auto key = std::make_pair(segment.src, segment.dst);
  const auto rkey = std::make_pair(segment.dst, segment.src);

  // Endpoint retransmissions (SYN retries, RTO copies of data) are
  // seq-deduplicated by the real GFW's flow reassembly: they must not
  // re-arm flow tracking or reach the classifier a second time.
  if (segment.retransmission) return net::Verdict::kPass;

  if (segment.has(net::TcpFlag::kSyn) && !segment.has(net::TcpFlag::kAck)) {
    if (flows_.size() < kMaxTrackedFlows) {
      const auto it = flows_.find(key);
      if (it != flows_.end() && !it->second.data_seen &&
          it->second.syn_sent_at == segment.sent_at &&
          it->second.syn_ip_id == segment.ip_id) {
        // Wire-duplicated copy of the SYN we just tracked; a genuine
        // 4-tuple reuse arrives later with fresh header fields and still
        // re-arms inspection below.
        return net::Verdict::kPass;
      }
      flows_[key] = FlowState{segment.src, false, segment.sent_at, segment.ip_id};
      ++flows_inspected_;
    }
    return net::Verdict::kPass;
  }

  if (segment.has(net::TcpFlag::kRst) || segment.has(net::TcpFlag::kFin)) {
    flows_.erase(key);
    flows_.erase(rkey);
    return net::Verdict::kPass;
  }

  if (!segment.is_data()) return net::Verdict::kPass;

  const auto it = flows_.find(key);
  if (it == flows_.end() || it->second.data_seen ||
      it->second.initiator != segment.src) {
    // Covers the wire-duplicated first payload too: the first copy set
    // data_seen and erased the flow, so the second copy falls through
    // here instead of flagging (and double-counting evidence) again.
    return net::Verdict::kPass;
  }
  it->second.data_seen = true;

  // First data-carrying packet of the connection, client->server: this is
  // the one (and only) input to the passive classifier.
  if (config_.enable_active_probing &&
      classifier_.triggers(segment.payload, rng_)) {
    flag_connection(segment.dst, segment.payload);
  }
  flows_.erase(it);  // nothing further to learn from this flow
  return net::Verdict::kPass;
}

void Gfw::register_server(net::Endpoint server, std::uint16_t server_id,
                          const std::string& region) {
  server_ids_[server] = server_id;
  blocking_.set_region(server, region);
}

void Gfw::flag_connection(net::Endpoint server, ByteSpan first_payload) {
  ++flows_flagged_;
  ServerState& state = servers_[server];
  if (state.payloads.size() >= kMaxStoredPayloadsPerServer) {
    state.payloads.erase(state.payloads.begin());
  }
  // Copy-on-flag: the replay store must outlive the segment, and only the
  // tiny flagged fraction of traffic pays for a payload copy.
  state.payloads.push_back(
      StoredPayload{Bytes(first_payload.begin(), first_payload.end()), net_.loop().now(), 0});
  const std::size_t index = state.payloads.size() - 1;

  schedule_stage1(server, index);

  // Ablation arm: no gating — stage-2 probes flow immediately.
  if (!config_.enable_staging && !state.stage2) enter_stage2(server);
}

void Gfw::schedule_stage1(net::Endpoint server, std::size_t payload_index) {
  using probesim::ProbeType;

  // The FIRST replay of the payload follows the Figure 7 delay model
  // directly; repeats and byte-changed variants come later, relative to
  // it (so the "first replay" CDF is the model's, and the "all replays"
  // CDF sits to its right — exactly the two lines of Figure 7).
  const net::Duration base = delay_model_.sample(rng_);
  schedule_probe(server, ProbeType::kR1, base, payload_index);
  int extra_r1 = 0;
  while (rng_.bernoulli(config_.extra_r1_probability) && extra_r1 < 5) ++extra_r1;
  for (int i = 0; i < extra_r1; ++i) {
    schedule_probe(server, ProbeType::kR1, base + delay_model_.sample(rng_), payload_index);
  }
  if (rng_.bernoulli(config_.r2_probability)) {
    schedule_probe(server, ProbeType::kR2, base + delay_model_.sample(rng_), payload_index);
  }
  if (rng_.bernoulli(config_.nr2_probability)) {
    schedule_probe(server, ProbeType::kNR2, delay_model_.sample(rng_), payload_index);
    // ~10% of NR2 payloads were observed more than once (section 5.3):
    // occasionally double-send, which also implements the replay-filter
    // detection trick.
    if (rng_.bernoulli(0.10)) {
      schedule_probe(server, ProbeType::kNR2, delay_model_.sample(rng_), payload_index);
    }
  }
}

void Gfw::schedule_probe(net::Endpoint server, probesim::ProbeType type,
                         net::Duration delay, std::size_t payload_index) {
  net_.loop().schedule_after(delay, [this, server, type, payload_index] {
    launch_probe(server, type, payload_index);
  });
}

void Gfw::launch_probe(net::Endpoint server, probesim::ProbeType type,
                       std::size_t payload_index) {
  using probesim::ProbeType;
  auto& loop = net_.loop();

  // Bounded admission: at the in-flight cap the probe waits in a FIFO
  // queue (re-launched from finalize_probe as slots free up); with the
  // queue also full it is shed and tallied per server. Both outcomes are
  // pure functions of the shard's own event sequence, so shed counts
  // replay bit-identically for any thread or worker count.
  if (config_.probe_queue_cap != 0 && in_flight_ >= config_.probe_queue_cap) {
    if (admission_queue_.size() < config_.probe_queue_cap) {
      admission_queue_.push_back(PendingProbe{server, type, payload_index});
      ++probes_deferred_;
    } else {
      ++probes_shed_;
      ++sheds_by_server_[server];
    }
    return;
  }

  ServerState& state = servers_[server];
  Bytes payload;
  ProbeRecord record;
  record.type = type;
  record.server = server;
  const auto id_it = server_ids_.find(server);
  if (id_it != server_ids_.end()) record.server_id = id_it->second;

  if (ProbeLog::is_replay(type)) {
    if (payload_index >= state.payloads.size()) return;  // store rotated out
    StoredPayload& stored = state.payloads[payload_index];
    if (stored.replays_sent >= config_.max_replays_per_payload) return;
    ++stored.replays_sent;
    payload = probesim::mutate_replay(stored.payload, type, rng_);
    record.replay_delay = loop.now() - stored.recorded_at;
    record.trigger_payload_hash = payload_fingerprint(stored.payload);
    record.is_first_replay_of_payload =
        replayed_payload_fingerprints_.insert(stored.payload).second;
  } else if (type == ProbeType::kNR1) {
    const auto& lengths = probesim::nr1_lengths();
    payload = rng_.bytes(lengths[rng_.uniform(0, lengths.size() - 1)]);
  } else {
    payload = rng_.bytes(probesim::kNr2Length);
  }
  record.payload_len = payload.size();

  // Async probe exchange: connect, push the payload, observe the reaction
  // until the GFW's own timeout, then close with FIN/ACK. Under path
  // faults a failed connection attempt is relaunched with backoff inside
  // the same probe window (start_probe_connection).
  const ProbeId id = probes_.emplace();
  ProbeAttempt& attempt = *probes_.get(id);
  attempt.server = server;
  attempt.identity = pool_.acquire();
  attempt.payload = std::move(payload);
  attempt.record = std::move(record);
  attempt.deadline = loop.now() + config_.probe_timeout;
  ++in_flight_;

  start_probe_connection(id);
  loop.schedule_after(config_.probe_timeout, [this, id] { finalize_probe(id); });
}

void Gfw::start_probe_connection(ProbeId id) {
  auto& loop = net_.loop();
  ProbeAttempt& attempt = *probes_.get(id);
  net::Host& prober_host = pool_.host_for(attempt.identity);
  net::ConnectOptions options = pool_.connect_options(attempt.identity, rng_);
  options.arq = config_.probe_arq;
  if (attempt.attempts == 1) {
    // The logged fingerprint is the first attempt's (what the server-side
    // pcap attributes the probe to); retries re-draw ephemeral ports.
    attempt.record.src_ip = attempt.identity.ip;
    attempt.record.asn = attempt.identity.asn;
    attempt.record.src_port = options.src_port;
    attempt.record.ttl = options.header->ttl;
    attempt.record.tsval_process = attempt.identity.tsval_process;
    attempt.record.tsval = pool_.tsval_at(attempt.identity.tsval_process, loop.now());
    attempt.record.sent_at = loop.now();
  }

  // Callbacks and timers hold only the probe's id: one that arrives after
  // the slot was freed (and possibly reused) finds nothing and does
  // nothing.
  net::ConnectionCallbacks cb;
  cb.on_connected = [this, id] {
    if (ProbeAttempt* a = probes_.get(id)) a->conn->send(a->payload);
  };
  cb.on_data = [this, id](ByteSpan data) {
    if (ProbeAttempt* a = probes_.get(id)) a->data_bytes += data.size();
  };
  cb.on_rst = [this, id] {
    if (ProbeAttempt* a = probes_.get(id)) a->rst = true;
    release_if_finalized(id);
  };
  cb.on_fin = [this, id] {
    if (ProbeAttempt* a = probes_.get(id)) a->fin = true;
    release_if_finalized(id);
  };
  cb.on_timeout = [this, id] {
    // ARQ gave up on this connection attempt (SYN retries or data
    // retransmissions exhausted). Relaunch while the window allows.
    release_if_finalized(id);
    ProbeAttempt* a = probes_.get(id);
    if (a == nullptr) return;
    a->conn.reset();
    if (a->attempts > config_.probe_connect_retries) return;
    const net::Duration backoff = config_.probe_retry_backoff * (1ll << (a->attempts - 1));
    if (net_.loop().now() + backoff >= a->deadline) return;
    ++a->attempts;
    ++probe_connect_retries_;
    net_.loop().schedule_after(backoff, [this, id] {
      if (probes_.get(id) != nullptr) start_probe_connection(id);
    });
  };

  attempt.conn = prober_host.connect(attempt.server, std::move(cb), std::move(options));
}

void Gfw::release_if_finalized(ProbeId id) {
  const ProbeAttempt* attempt = probes_.get(id);
  if (attempt != nullptr && attempt->finalized) probes_.erase(id);
}

void Gfw::finalize_probe(ProbeId id) {
  // Runs once per attempt, from the timer launch_probe set; the slot is
  // live until then.
  ProbeAttempt& attempt = *probes_.get(id);
  attempt.finalized = true;
  --in_flight_;
  ProbeRecord final_record = std::move(attempt.record);
  final_record.connect_retries = attempt.attempts - 1;
  if (attempt.data_bytes > 0) {
    final_record.reaction = probesim::Reaction::kData;
  } else if (attempt.rst) {
    final_record.reaction = probesim::Reaction::kRst;
  } else if (attempt.fin) {
    final_record.reaction = probesim::Reaction::kFinAck;
  } else {
    final_record.reaction = probesim::Reaction::kTimeout;
  }
  const net::Endpoint server = attempt.server;
  if (attempt.conn) attempt.conn->close();
  if (attempt.conn && attempt.conn->state() == net::Connection::State::kFinSent) {
    // The FIN is still unanswered: keep only the connection, registered
    // (and counted half-closed by the teardown report) until it sees
    // FIN, RST or timeout.
    attempt.payload = Bytes{};
  } else {
    probes_.erase(id);
  }
  handle_probe_result(server, final_record);
  // Probe-log records accumulate for the whole shard, so each one is
  // metered (and never released) against the governor's budget.
  if (governor_ != nullptr) {
    governor_->acquire(net::ResourceKind::kProbeRecords);
  }
  log_.add(std::move(final_record));
  drain_admission_queue();
}

void Gfw::drain_admission_queue() {
  while (!admission_queue_.empty() && in_flight_ < config_.probe_queue_cap) {
    const PendingProbe next = admission_queue_.front();
    admission_queue_.pop_front();
    launch_probe(next.server, next.type, next.payload_index);
  }
}

std::vector<ShedRecord> Gfw::probe_sheds() const {
  std::vector<ShedRecord> out;
  out.reserve(sheds_by_server_.size());
  for (const auto& [server, count] : sheds_by_server_) {
    ShedRecord shed;
    const auto id_it = server_ids_.find(server);
    if (id_it != server_ids_.end()) shed.server_id = id_it->second;
    shed.region = blocking_.region_of(server);
    shed.count = count;
    out.push_back(std::move(shed));
  }
  return out;
}

void Gfw::handle_probe_result(net::Endpoint server, const ProbeRecord& record) {
  using probesim::Reaction;
  double weight = config_.evidence_timeout;
  switch (record.reaction) {
    case Reaction::kData: weight = config_.evidence_data; break;
    case Reaction::kRst: weight = config_.evidence_rst; break;
    case Reaction::kFinAck: weight = config_.evidence_fin; break;
    case Reaction::kTimeout: weight = config_.evidence_timeout; break;
  }
  blocking_.add_evidence(server, weight);

  // Stage gating: a server that responds with data to a stage-1 probe
  // unlocks the stage-2 probe types (section 4.2).
  if (record.reaction == Reaction::kData) {
    ServerState& state = servers_[server];
    state.responded_with_data = true;
    if (config_.enable_staging && !state.stage2) enter_stage2(server);
  }
}

void Gfw::enter_stage2(net::Endpoint server) {
  ServerState& state = servers_[server];
  state.stage2 = true;
  state.stage2_until = net_.loop().now() + config_.stage2_duration;
  stage2_tick(server);
}

void Gfw::stage2_tick(net::Endpoint server) {
  using probesim::ProbeType;
  auto& loop = net_.loop();
  ServerState& state = servers_[server];
  if (loop.now() > state.stage2_until || state.payloads.empty()) {
    state.stage2 = false;
    return;
  }

  // A small batch per tick: stage-2 replays dominate; the NR1 battery is
  // trickled sparsely while NR2 and R1/R2 continue (NR2 stays ~3x as
  // common as all NR1 probes together, Figure 2).
  const int batch = static_cast<int>(
      rng_.uniform(static_cast<std::uint64_t>(config_.stage2_batch_min),
                   static_cast<std::uint64_t>(config_.stage2_batch_max)));
  static const std::vector<double> kTypeWeights = {
      0.27,   // R3
      0.27,   // R4
      0.01,   // R5 ("only two type R5 probes were received")
      0.10,   // NR1
      0.19,   // NR2 (continues during stage 2)
      0.10,   // R1 (continues during stage 2)
      0.06,   // R2
  };
  static const ProbeType kTypes[] = {ProbeType::kR3,  ProbeType::kR4, ProbeType::kR5,
                                     ProbeType::kNR1, ProbeType::kNR2, ProbeType::kR1,
                                     ProbeType::kR2};
  for (int i = 0; i < batch; ++i) {
    const ProbeType type = kTypes[rng_.weighted_index(kTypeWeights)];
    const std::size_t payload_index = rng_.uniform(0, state.payloads.size() - 1);
    // Spread the batch across the interval rather than bursting.
    const double spread = rng_.uniform01();
    schedule_probe(server, type,
                   net::from_seconds(net::to_seconds(config_.stage2_interval) * spread),
                   payload_index);
  }

  loop.schedule_after(config_.stage2_interval, [this, server] { stage2_tick(server); });
}

}  // namespace gfwsim::gfw
