// The Great Firewall model: passive classification on path, staged active
// probing from the prober pool, and the blocking module.
//
// Pipeline (paper Figure 1 + section 4):
//   1. The middlebox watches every border-crossing TCP flow and runs the
//      passive classifier on the FIRST data-carrying packet (segment) of
//      each connection. This is per-segment, not per-stream — the reason
//      brdgrd-style window clamping defeats it.
//   2. A flagged connection's payload is recorded, and stage-1 probes are
//      scheduled against the server with the heavy-tailed delay model of
//      Figure 7: identical replays (R1), byte-0-changed replays (R2), and
//      221-byte random probes (NR2). Payloads may be replayed many times
//      (up to 47 observed in the paper).
//   3. Stage 2 unlocks only when the server RESPONDS WITH DATA to a
//      stage-1 probe (section 4.2): replays with other byte changes (R3,
//      R4, rarely R5) and the NR1 random-length battery, trickled a few
//      per hour. R1/R2 continue as well.
//   4. Probe reactions accumulate evidence; the blocking module applies
//      its human-factor gate and, if it blocks, null-routes the
//      server->client direction by port or by IP.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "gfw/blocking.h"
#include "gfw/classifier.h"
#include "gfw/delay_model.h"
#include "gfw/probe_log.h"
#include "gfw/prober_pool.h"
#include "net/network.h"
#include "net/slot_table.h"
#include "probesim/probesim.h"

namespace gfwsim::gfw {

struct GfwConfig {
  // Which addresses are "inside" the censored network. Flows with exactly
  // one inside endpoint are inspected (direction does not matter,
  // section 4.2).
  std::function<bool(net::Ipv4)> is_domestic;

  ClassifierConfig classifier;
  BlockingConfig blocking;

  // Ablation arm: when false, stage-2 probes are sent unconditionally
  // alongside stage 1 (contradicting the observed gating).
  bool enable_staging = true;

  // Probe connections override the network ArqConfig with `probe_arq`
  // (active only when the network's ARQ layer is on, i.e. a FaultProfile
  // is enabled), so a dead path fails fast enough that a connect retry
  // still fits inside the probe timeout (gfw.cpp).
  net::ArqConfig probe_arq{.rto = net::milliseconds(500),
                           .max_data_retries = 3,
                           .syn_timeout = net::seconds(1),
                           .max_syn_retries = 1,
                           .idle_timeout = net::Duration{}};

  // Evidence weights of the non-data reactions (a data reply's weight is
  // fixed in gfw.cpp).
  double evidence_rst = 0.30;
  double evidence_fin = 0.30;
  double evidence_timeout = 0.05;
};

// One server's probe-shed tally, attributed like a probe record: probes
// the bounded admission queue refused outright because both the
// in-flight window and the deferral queue were full.
struct ShedRecord {
  std::uint16_t server_id = 0;
  std::string region;
  std::uint64_t count = 0;
};

class Gfw : public net::Middlebox {
 public:
  Gfw(net::Network& net, GfwConfig config, std::uint64_t seed = 0x6f17);
  ~Gfw() override;

  Gfw(const Gfw&) = delete;
  Gfw& operator=(const Gfw&) = delete;

  net::Verdict on_segment(const net::Segment& segment) override;

  // Injects a suspicion directly (tests/benches that bypass the
  // classifier's randomness). Copies the payload into the replay store.
  void flag_connection(net::Endpoint server, ByteSpan first_payload);

  // Fleet campaigns: declares which server (by fleet id and region) owns
  // an endpoint, so probe records carry the server id and the blocking
  // module can apply per-region policy. Unregistered endpoints (every
  // single-server campaign) keep id 0 and the global blocking policy.
  void register_server(net::Endpoint server, std::uint16_t server_id,
                       const std::string& region);

  const ProbeLog& log() const { return log_; }
  ProberPool& pool() { return pool_; }
  BlockingModule& blocking() { return blocking_; }
  const PassiveClassifier& classifier() const { return classifier_; }
  const ReplayDelayModel& delay_model() const { return delay_model_; }

  std::size_t flows_inspected() const { return flows_inspected_; }
  std::size_t flows_flagged() const { return flows_flagged_; }
  std::size_t probes_in_flight() const { return in_flight_; }
  // Probe attempts still owned: the ones in flight plus finalized probes
  // whose connection lingers half-closed (FIN sent, unanswered).
  std::size_t probe_slots() const { return probes_.size(); }
  // Probe connections relaunched after a connect failure (faults only).
  std::size_t probe_connect_retries() const { return probe_connect_retries_; }
  std::size_t servers_in_stage2() const;

  // ---- Resource governance -------------------------------------------------

  // Attaches the shard's resource governor: every probe-log record is
  // metered as one kProbeRecords unit. Null (the default) meters
  // nothing. The governor must outlive the attachment. probe_queue_cap
  // caps in-flight probes: a probe launched at the cap waits in a FIFO
  // admission queue of the same depth, and one arriving with the queue
  // also full is shed and counted per server. 0 = unbounded.
  void set_governor(net::ResourceGovernor* governor, std::size_t probe_queue_cap) {
    governor_ = governor;
    probe_queue_cap_ = probe_queue_cap;
  }

  // Shed-policy observability (all zero when probe_queue_cap_ is 0).
  // Probes dropped because both the in-flight cap and the admission
  // queue were full.
  std::uint64_t probes_shed() const { return probes_shed_; }
  // Probes that waited in the admission queue before launching.
  std::uint64_t probes_deferred() const { return probes_deferred_; }
  // Per-server shed tallies in deterministic endpoint order.
  std::vector<ShedRecord> probe_sheds() const;

 private:
  struct FlowState {
    net::Endpoint initiator;
    bool data_seen = false;
    // Identity of the SYN that created this entry, so a wire-duplicated
    // copy (same instant, same IP ID) is not double-counted while a
    // later 4-tuple reuse still re-arms inspection.
    net::TimePoint syn_sent_at{};
    std::uint16_t syn_ip_id = 0;
  };

  // One flagged-probe exchange, possibly spanning several connection
  // attempts when the path is faulty. Owned by probes_; connection
  // callbacks and timers refer to it by ProbeId only.
  struct ProbeAttempt {
    net::Endpoint server;
    ProberPool::Identity identity;
    Bytes payload;
    ProbeRecord record;
    net::TimePoint deadline{};
    int attempts = 1;
    net::ConnectionHandle conn;
    bool rst = false;
    bool fin = false;
    std::size_t data_bytes = 0;
    bool finalized = false;
  };

  struct StoredPayload {
    Bytes payload;
    net::TimePoint recorded_at{};
    int replays_sent = 0;
  };

  struct ServerState {
    std::vector<StoredPayload> payloads;  // replay store (bounded)
    bool stage2 = false;
    net::TimePoint stage2_until{};
    bool responded_with_data = false;
  };

  // A probe waiting for an in-flight slot (probe_queue_cap_ > 0 only).
  struct PendingProbe {
    net::Endpoint server;
    probesim::ProbeType type;
    std::size_t payload_index;
  };

  void schedule_stage1(net::Endpoint server, std::size_t payload_index);
  void schedule_probe(net::Endpoint server, probesim::ProbeType type,
                      net::Duration delay, std::size_t payload_index);
  void launch_probe(net::Endpoint server, probesim::ProbeType type,
                    std::size_t payload_index);
  // Re-launches queued probes while in-flight capacity allows (FIFO, so
  // the drain order is a pure function of the shard's event sequence).
  void drain_admission_queue();
  using ProbeId = net::SlotTable<ProbeAttempt>::Id;
  void start_probe_connection(ProbeId id);
  void finalize_probe(ProbeId id);
  // The probe's connection finished closing or failed: a finalized
  // attempt has nothing left to wait for and frees its slot.
  void release_if_finalized(ProbeId id);
  void enter_stage2(net::Endpoint server);
  void stage2_tick(net::Endpoint server);
  void handle_probe_result(net::Endpoint server, const ProbeRecord& record);

  net::Network& net_;
  GfwConfig config_;
  crypto::Rng rng_;
  PassiveClassifier classifier_;
  ProberPool pool_;
  BlockingModule blocking_;
  ReplayDelayModel delay_model_;
  ProbeLog log_;

  std::map<std::pair<net::Endpoint, net::Endpoint>, FlowState> flows_;
  std::map<net::Endpoint, ServerState> servers_;
  std::map<net::Endpoint, std::uint16_t> server_ids_;
  std::set<Bytes> replayed_payload_fingerprints_;
  std::size_t flows_inspected_ = 0;
  std::size_t flows_flagged_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t probe_connect_retries_ = 0;

  // Every probe attempt, from launch until finalize, or past finalize
  // until its half-closed connection sees FIN, RST or timeout; ~Gfw
  // releases whatever is left.
  net::SlotTable<ProbeAttempt> probes_;

  // Resource governance (inert while governor_ is null and
  // probe_queue_cap_ is 0).
  net::ResourceGovernor* governor_ = nullptr;
  std::size_t probe_queue_cap_ = 0;
  std::deque<PendingProbe> admission_queue_;
  std::uint64_t probes_shed_ = 0;
  std::uint64_t probes_deferred_ = 0;
  std::map<net::Endpoint, std::uint64_t> sheds_by_server_;
};

}  // namespace gfwsim::gfw
