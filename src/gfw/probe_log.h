// Record of every active probe the simulated GFW sends — the dataset the
// paper's measurement sections (3.2-3.5) are built from.
#pragma once

#include <vector>

#include "net/addr.h"
#include "net/time.h"
#include "probesim/probesim.h"

namespace gfwsim::gfw {

struct ProbeRecord {
  net::TimePoint sent_at{};
  probesim::ProbeType type = probesim::ProbeType::kNR2;
  net::Endpoint server;
  // Fleet index of the probed server (Gfw::register_server); stays 0 in
  // single-server campaigns, so legacy analyses are unaffected.
  std::uint16_t server_id = 0;

  // Prober fingerprint (what the server-side pcap records).
  net::Ipv4 src_ip;
  int asn = 0;
  std::uint16_t src_port = 0;
  std::uint8_t ttl = 0;
  std::uint32_t tsval = 0;
  int tsval_process = -1;  // which shared counter stamped this probe

  std::size_t payload_len = 0;
  probesim::Reaction reaction = probesim::Reaction::kTimeout;
  // Connection attempts beyond the first within this probe's window
  // (nonzero only when the path runs a fault profile).
  int connect_retries = 0;

  // Replay-based probes: how long after the triggering legitimate
  // connection this replay went out (Figure 7), whether this payload was
  // replayed before, and a fingerprint of the ORIGINAL recorded payload
  // (pre-mutation) so analyses can join probes back to the triggering
  // connection.
  net::Duration replay_delay{};
  bool is_first_replay_of_payload = false;
  std::uint64_t trigger_payload_hash = 0;
};

// Stable fingerprint for joining probe records to recorded payloads.
std::uint64_t payload_fingerprint(ByteSpan payload);

class ProbeLog {
 public:
  void add(ProbeRecord record) { records_.push_back(std::move(record)); }

  // Appends another log's records in order. Shard merges call this in
  // shard order, which keeps merged results independent of thread count.
  void merge(const ProbeLog& other) {
    records_.insert(records_.end(), other.records_.begin(), other.records_.end());
  }
  void reserve(std::size_t n) { records_.reserve(n); }

  // Wholesale replacement — checkpoint loads rebuild a shard's log from
  // its journaled records (gfw/checkpoint.h).
  void assign(std::vector<ProbeRecord> records) { records_ = std::move(records); }

  const std::vector<ProbeRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  static bool is_replay(probesim::ProbeType t) {
    return t != probesim::ProbeType::kNR1 && t != probesim::ProbeType::kNR2;
  }

 private:
  std::vector<ProbeRecord> records_;
};

}  // namespace gfwsim::gfw
