#include "gfw/checkpoint.h"

#include <array>
#include <bit>
#include <cstring>

namespace gfwsim::gfw {

namespace {

constexpr char kMagic[8] = {'G', 'F', 'W', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kShardFrame = 1;
constexpr std::uint32_t kFailureFrame = 3;
constexpr std::uint32_t kWorkerIoFrame = 5;
constexpr std::size_t kHeaderSize = 32;
// Frame header: u32 kind + u64 payload size + u32 payload CRC-32.
constexpr std::size_t kFrameHeaderSize = 16;

// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the frame
// integrity check that turns a mid-file bit flip into a structured
// CheckpointError instead of whatever the codec would make of the
// garbage.
constexpr auto kCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}();

std::uint32_t crc32(ByteSpan data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c = kCrcTable[(c ^ byte) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---- primitive writers ----------------------------------------------------

void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(Bytes& out, std::uint32_t v) {
  std::uint8_t buf[4];
  store_le32(buf, v);
  append(out, ByteSpan(buf, 4));
}

void put_u64(Bytes& out, std::uint64_t v) {
  std::uint8_t buf[8];
  store_le64(buf, v);
  append(out, ByteSpan(buf, 8));
}

void put_i64(Bytes& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_i32(Bytes& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }

void put_string(Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  append(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// ---- primitive readers (bounds-checked) -----------------------------------

struct Cursor {
  ByteSpan data;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (n > data.size() - pos) {
      throw CheckpointError("checkpoint: truncated frame payload");
    }
  }
  std::size_t remaining() const { return data.size() - pos; }
  // Count-field sanity: a corrupt (or hostile) element count whose
  // entries could not all fit in the remaining payload is rejected
  // BEFORE any reserve()/loop, so a flipped length byte costs a
  // CheckpointError, never a multi-gigabyte allocation.
  void need_count(std::uint64_t count, std::size_t min_entry_size,
                  const char* what) const {
    if (count > remaining() / min_entry_size) {
      throw CheckpointError(std::string("checkpoint: implausible ") + what +
                            " count " + std::to_string(count) +
                            " for remaining payload");
    }
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data[pos] | (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = load_le32(data.data() + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = load_le64(data.data() + pos);
    pos += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
};

// ---- component codecs -----------------------------------------------------

void put_teardown(Bytes& out, const net::TeardownReport& t) {
  put_u64(out, t.leaked_established);
  put_u64(out, t.live_established);
  put_u64(out, t.embryonic);
  put_u64(out, t.half_closed);
  put_u64(out, t.stale_registrations);
  put_u64(out, t.expired_registrations);
  put_u64(out, t.pending_timers);
  put_u8(out, t.timers_overdue ? 1 : 0);
  put_u64(out, t.segments_in_flight);
  put_u8(out, t.accounting_balanced ? 1 : 0);
}

net::TeardownReport get_teardown(Cursor& in) {
  net::TeardownReport t;
  t.leaked_established = in.u64();
  t.live_established = in.u64();
  t.embryonic = in.u64();
  t.half_closed = in.u64();
  t.stale_registrations = in.u64();
  t.expired_registrations = in.u64();
  t.pending_timers = in.u64();
  t.timers_overdue = in.u8() != 0;
  t.segments_in_flight = in.u64();
  t.accounting_balanced = in.u8() != 0;
  return t;
}

void put_block_entry(Bytes& out, const BlockingModule::BlockEntry& e) {
  put_u32(out, e.server_ip.value);
  put_u8(out, e.port.has_value() ? 1 : 0);
  put_u16(out, e.port.value_or(0));
  put_i64(out, e.blocked_at.count());
  put_i64(out, e.unblock_at.count());
  put_string(out, e.region);
}

BlockingModule::BlockEntry get_block_entry(Cursor& in) {
  BlockingModule::BlockEntry e;
  e.server_ip = net::Ipv4(in.u32());
  const bool has_port = in.u8() != 0;
  const std::uint16_t port = in.u16();
  if (has_port) e.port = port;
  e.blocked_at = net::TimePoint(in.i64());
  e.unblock_at = net::TimePoint(in.i64());
  e.region = in.str();
  return e;
}

void put_probe_record(Bytes& out, const ProbeRecord& r) {
  put_i64(out, r.sent_at.count());
  put_u8(out, static_cast<std::uint8_t>(r.type));
  put_u32(out, r.server.addr.value);
  put_u16(out, r.server.port);
  put_u32(out, r.src_ip.value);
  put_i32(out, r.asn);
  put_u16(out, r.src_port);
  put_u8(out, r.ttl);
  put_u32(out, r.tsval);
  put_i32(out, r.tsval_process);
  put_u64(out, r.payload_len);
  put_u8(out, static_cast<std::uint8_t>(r.reaction));
  put_i32(out, r.connect_retries);
  put_i64(out, r.replay_delay.count());
  put_u8(out, r.is_first_replay_of_payload ? 1 : 0);
  put_u64(out, r.trigger_payload_hash);
  put_u16(out, r.server_id);
}

void put_server_stats(Bytes& out, const ServerStats& s) {
  put_u16(out, s.server_id);
  put_u32(out, s.endpoint.addr.value);
  put_u16(out, s.endpoint.port);
  put_string(out, s.region);
  put_string(out, s.impl);
  put_string(out, s.cipher);
  for (const auto& row : kServerCounters) put_u64(out, s.*row.field);
}

ServerStats get_server_stats(Cursor& in) {
  ServerStats s;
  s.server_id = in.u16();
  s.endpoint.addr = net::Ipv4(in.u32());
  s.endpoint.port = in.u16();
  s.region = in.str();
  s.impl = in.str();
  s.cipher = in.str();
  for (const auto& row : kServerCounters) s.*row.field = in.u64();
  return s;
}

void put_resources(Bytes& out, const ShardResources& r) {
  for (const auto& row : kResourceCounters) put_u64(out, r.*row.field);
  // Peak count is explicit so a reader built with more (or fewer)
  // metered kinds still decodes the frame.
  put_u32(out, static_cast<std::uint32_t>(net::kResourceKindCount));
  for (const std::uint64_t peak : r.peak_units) put_u64(out, peak);
  put_u32(out, static_cast<std::uint32_t>(r.sheds.size()));
  for (const ShedRecord& shed : r.sheds) {
    put_u16(out, shed.server_id);
    put_string(out, shed.region);
    put_u64(out, shed.count);
  }
}

ShardResources get_resources(Cursor& in) {
  ShardResources r;
  for (const auto& row : kResourceCounters) r.*row.field = in.u64();
  const std::uint32_t peaks = in.u32();
  in.need_count(peaks, 8, "resource peak");
  for (std::uint32_t i = 0; i < peaks; ++i) {
    const std::uint64_t peak = in.u64();
    // Extra kinds from a newer writer are read and dropped.
    if (i < net::kResourceKindCount) r.peak_units[i] = peak;
  }
  const std::uint32_t sheds = in.u32();
  in.need_count(sheds, 14, "shed record");  // u16 + empty string + u64
  r.sheds.reserve(sheds);
  for (std::uint32_t i = 0; i < sheds; ++i) {
    ShedRecord shed;
    shed.server_id = in.u16();
    shed.region = in.str();
    shed.count = in.u64();
    r.sheds.push_back(std::move(shed));
  }
  return r;
}

ProbeRecord get_probe_record(Cursor& in) {
  ProbeRecord r;
  r.sent_at = net::TimePoint(in.i64());
  r.type = static_cast<probesim::ProbeType>(in.u8());
  r.server.addr = net::Ipv4(in.u32());
  r.server.port = in.u16();
  r.src_ip = net::Ipv4(in.u32());
  r.asn = in.i32();
  r.src_port = in.u16();
  r.ttl = in.u8();
  r.tsval = in.u32();
  r.tsval_process = in.i32();
  r.payload_len = in.u64();
  r.reaction = static_cast<probesim::Reaction>(in.u8());
  r.connect_retries = in.i32();
  r.replay_delay = net::Duration(in.i64());
  r.is_first_replay_of_payload = in.u8() != 0;
  r.trigger_payload_hash = in.u64();
  r.server_id = in.u16();
  return r;
}

Bytes serialize_header(const CheckpointHeader& header) {
  Bytes out;
  out.reserve(kHeaderSize);
  append(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(kMagic), 8));
  put_u32(out, header.version);
  put_u32(out, header.shard_count);
  put_u64(out, header.base_seed);
  put_u64(out, header.scenario_fingerprint);
  return out;
}

CheckpointHeader parse_header(ByteSpan data) {
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kMagic, 8) != 0) {
    throw CheckpointError("checkpoint: bad magic (not a GFWCKPT1 file)");
  }
  Cursor in{data, 8};
  CheckpointHeader header;
  header.version = in.u32();
  if (header.version != kCheckpointVersion) {
    throw CheckpointError("checkpoint: unsupported format version " +
                          std::to_string(header.version) + " (expected " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  header.shard_count = in.u32();
  header.base_seed = in.u64();
  header.scenario_fingerprint = in.u64();
  return header;
}

// ---- fingerprint ----------------------------------------------------------

struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    state ^= b;
    state *= 0x100000001b3ull;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  // One rule per leaf type. A struct with a row table (gfw/scenario.h) is
  // walked row by row, minus its skip rows.
  template <typename T>
  void mix(const T& v) {
    if constexpr (HasRows<T>) {
      for_each_row<T>([&](const auto& row) {
        if constexpr (std::remove_cvref_t<decltype(row)>::mixed) mix(v.*row.member);
      });
    } else if constexpr (std::is_same_v<T, std::string>) {
      word(v.size());
      for (const char c : v) byte(static_cast<std::uint8_t>(c));
    } else if constexpr (std::is_same_v<T, const proxy::CipherSpec*>) {
      mix(v != nullptr ? std::string(v->name) : std::string());
    } else if constexpr (kIs<T, std::optional>) {  // nullopt never mixes like a value
      word(v.has_value());
      if (v) mix(*v);
    } else if constexpr (kIs<T, std::function>) {  // code: only its presence
      word(static_cast<bool>(v));
    } else if constexpr (kIs<T, std::vector> || kIsArray<T> || kIs<T, std::map>) {
      word(v.size());
      for (const auto& element : v) mix(element);
    } else if constexpr (kIs<T, std::pair>) {  // a map entry
      mix(v.first);
      mix(v.second);
    } else if constexpr (std::is_same_v<T, net::Duration>) {
      word(static_cast<std::uint64_t>(v.count()));
    } else if constexpr (std::is_same_v<T, net::Ipv4>) {
      word(v.value);
    } else if constexpr (std::is_same_v<T, double>) {
      word(std::bit_cast<std::uint64_t>(v));
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>, "no fingerprint rule");
      word(static_cast<std::uint64_t>(v));
    }
  }
};

}  // namespace

std::uint64_t scenario_fingerprint(const Scenario& scenario) {
  Fnv1a h;
  h.mix(scenario);
  return h.state;
}

void require_same_campaign(const CheckpointHeader& journal,
                           const CheckpointHeader& campaign,
                           const std::string& path) {
  if (journal.shard_count != campaign.shard_count ||
      journal.base_seed != campaign.base_seed ||
      journal.scenario_fingerprint != campaign.scenario_fingerprint) {
    throw CheckpointError(
        "checkpoint: " + path +
        " records a different campaign (shard count, base seed, or scenario "
        "fingerprint mismatch) — refusing to resume from it");
  }
}

// ---- frame codec ----------------------------------------------------------

Bytes serialize_shard(const ShardSummary& summary, const ProbeLog& log) {
  Bytes out;
  // Rough upfront sizing: fixed summary block + 66B per probe record.
  out.reserve(384 + 66 * log.size());
  put_u32(out, summary.shard_index);
  put_u64(out, summary.seed);
  for (const auto& row : kShardCounters) put_u64(out, summary.*row.field);
  put_teardown(out, summary.teardown);
  put_u32(out, static_cast<std::uint32_t>(summary.blocking_history.size()));
  for (const auto& entry : summary.blocking_history) put_block_entry(out, entry);
  // log_offset is NOT serialized: the merge recomputes it, so a resumed
  // merge places restored slices exactly where an uninterrupted run did.
  put_u64(out, log.size());
  for (const auto& record : log.records()) put_probe_record(out, record);
  put_u32(out, static_cast<std::uint32_t>(summary.servers.size()));
  for (const ServerStats& server : summary.servers) put_server_stats(out, server);
  put_resources(out, summary.resources);
  return out;
}

ShardRun parse_shard(ByteSpan payload) {
  Cursor in{payload, 0};
  ShardRun out;
  out.completed = true;
  ShardSummary& s = out.summary;
  s.shard_index = in.u32();
  s.seed = in.u64();
  for (const auto& row : kShardCounters) s.*row.field = in.u64();
  s.teardown = get_teardown(in);
  // Count fields are checked against the minimum serialized entry size
  // (strings counted at their 4-byte length prefix, i.e. empty).
  const std::uint32_t blocks = in.u32();
  in.need_count(blocks, 27, "block entry");
  s.blocking_history.reserve(blocks);
  for (std::uint32_t i = 0; i < blocks; ++i) {
    s.blocking_history.push_back(get_block_entry(in));
  }
  const std::uint64_t probes = in.u64();
  in.need_count(probes, 66, "probe record");
  std::vector<ProbeRecord> records;
  records.reserve(probes);
  for (std::uint64_t i = 0; i < probes; ++i) records.push_back(get_probe_record(in));
  out.log.assign(std::move(records));
  s.probes = out.log.size();
  const std::uint32_t servers = in.u32();
  in.need_count(servers, 52, "server stats");
  s.servers.reserve(servers);
  for (std::uint32_t i = 0; i < servers; ++i) s.servers.push_back(get_server_stats(in));
  s.resources = get_resources(in);
  if (in.pos != payload.size()) {
    throw CheckpointError("checkpoint: trailing bytes inside shard frame");
  }
  return out;
}

bool shard_has_fleet_data(const ShardSummary& summary, const ProbeLog& log) {
  if (!summary.servers.empty()) return true;
  for (const auto& entry : summary.blocking_history) {
    if (!entry.region.empty()) return true;
  }
  for (const auto& record : log.records()) {
    if (record.server_id != 0) return true;
  }
  return false;
}

Bytes serialize_failure(const ShardFailure& failure) {
  Bytes out;
  out.reserve(128 + failure.what.size());
  put_u32(out, failure.shard_index);
  put_u64(out, failure.seed);
  put_u8(out, static_cast<std::uint8_t>(failure.phase));
  put_u8(out, static_cast<std::uint8_t>(failure.kind));
  put_i32(out, failure.attempts);
  put_u8(out, failure.quarantined ? 1 : 0);
  put_u8(out, failure.nondeterministic ? 1 : 0);
  put_string(out, failure.what);
  put_teardown(out, failure.teardown);
  return out;
}

ShardFailure parse_failure(ByteSpan payload) {
  Cursor in{payload, 0};
  ShardFailure f;
  f.shard_index = in.u32();
  f.seed = in.u64();
  const std::uint8_t phase = in.u8();
  if (phase > static_cast<std::uint8_t>(ShardPhase::kHarvest)) {
    throw CheckpointError("checkpoint: failure frame has unknown phase " +
                          std::to_string(phase));
  }
  f.phase = static_cast<ShardPhase>(phase);
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(FailureKind::kResource)) {
    throw CheckpointError("checkpoint: failure frame has unknown kind " +
                          std::to_string(kind));
  }
  f.kind = static_cast<FailureKind>(kind);
  f.attempts = in.i32();
  f.quarantined = in.u8() != 0;
  f.nondeterministic = in.u8() != 0;
  f.what = in.str();
  f.teardown = get_teardown(in);
  if (in.pos != payload.size()) {
    throw CheckpointError("checkpoint: trailing bytes inside failure frame");
  }
  return f;
}

Bytes serialize_worker_io(const WorkerIoStats& io) {
  Bytes out;
  out.reserve(28);
  put_u32(out, io.worker_id);
  for (const auto& row : kWorkerIoCounters) put_u64(out, io.*row.field);
  return out;
}

WorkerIoStats parse_worker_io(ByteSpan payload) {
  Cursor in{payload, 0};
  WorkerIoStats io;
  io.worker_id = in.u32();
  for (const auto& row : kWorkerIoCounters) io.*row.field = in.u64();
  if (in.pos != payload.size()) {
    throw CheckpointError("checkpoint: trailing bytes inside worker-io frame");
  }
  return io;
}

// ---- writer ---------------------------------------------------------------

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const CheckpointHeader& header, bool append)
    : path_(path) {
  if (append && checkpoint_exists(path)) {
    const Checkpoint existing = load_checkpoint(path);
    require_same_campaign(existing.header, header, path);
    // Re-open append-only; torn tail bytes (if any) are harmless because
    // the loader skips them and the next frame is self-delimiting only
    // from its own offset — so truncate the torn tail first.
    if (existing.torn_tail_bytes > 0) {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      const auto size = static_cast<std::size_t>(in.tellg());
      in.seekg(0);
      Bytes keep(size - existing.torn_tail_bytes);
      in.read(reinterpret_cast<char*>(keep.data()),
              static_cast<std::streamsize>(keep.size()));
      std::ofstream rewrite(path, std::ios::binary | std::ios::trunc);
      rewrite.write(reinterpret_cast<const char*>(keep.data()),
                    static_cast<std::streamsize>(keep.size()));
    }
    out_.open(path, std::ios::binary | std::ios::app);
    if (!out_) throw CheckpointError("checkpoint: cannot open " + path + " for append");
    return;
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw CheckpointError("checkpoint: cannot create " + path);
  const Bytes header_bytes = serialize_header(header);
  out_.write(reinterpret_cast<const char*>(header_bytes.data()),
             static_cast<std::streamsize>(header_bytes.size()));
  out_.flush();
}

void CheckpointWriter::append_shard(const ShardSummary& summary, const ProbeLog& log) {
  append_frame(kShardFrame, serialize_shard(summary, log));
}

void CheckpointWriter::append_worker_io(const WorkerIoStats& io) {
  append_frame(kWorkerIoFrame, serialize_worker_io(io));
}

void CheckpointWriter::append_failure(const ShardFailure& failure) {
  append_frame(kFailureFrame, serialize_failure(failure));
}

void CheckpointWriter::append_frame(std::uint32_t kind, const Bytes& payload) {
  // The whole frame is staged in one buffer and written with a single
  // write() + flush, so a kill mid-append leaves at most one torn TAIL
  // frame (which the loader drops) — never an interior hole.
  Bytes frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  put_u32(frame, kind);
  put_u64(frame, payload.size());
  put_u32(frame, crc32(payload));
  append(frame, payload);
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) throw CheckpointError("checkpoint: write to " + path_ + " failed");
}

// ---- loader ---------------------------------------------------------------

bool checkpoint_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good() && in.peek() != std::ifstream::traits_type::eof();
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw CheckpointError("checkpoint: cannot open " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  Bytes data(size);
  in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size));
  if (!in) throw CheckpointError("checkpoint: cannot read " + path);

  Checkpoint out;
  out.header = parse_header(data);
  // Every index is checked against the header's shard count, so
  // callers can index per-shard state with what the loader returns.
  const auto check_index = [&](std::uint32_t index, const char* what) {
    if (index >= out.header.shard_count) {
      throw CheckpointError("checkpoint: " + std::string(what) + " frame names shard " +
                            std::to_string(index) + " of a " +
                            std::to_string(out.header.shard_count) +
                            "-shard campaign — journal is corrupt");
    }
  };
  std::size_t pos = kHeaderSize;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeaderSize) {
      out.torn_tail_bytes = data.size() - pos;
      break;
    }
    const std::uint32_t kind = load_le32(data.data() + pos);
    const std::uint64_t payload_size = load_le64(data.data() + pos + 4);
    const std::uint32_t expected_crc = load_le32(data.data() + pos + 12);
    // An insane length claim is corruption, not a torn tail: a torn tail
    // can only make the file SHORTER than the length field promises, and
    // tolerating arbitrary lengths would let one flipped bit swallow the
    // rest of the journal as "torn".
    if (payload_size > kMaxFramePayload) {
      throw CheckpointError("checkpoint: frame at offset " + std::to_string(pos) +
                            " claims implausible payload size " +
                            std::to_string(payload_size));
    }
    if (data.size() - pos - kFrameHeaderSize < payload_size) {
      out.torn_tail_bytes = data.size() - pos;
      break;
    }
    const ByteSpan payload(data.data() + pos + kFrameHeaderSize,
                           static_cast<std::size_t>(payload_size));
    pos += kFrameHeaderSize + static_cast<std::size_t>(payload_size);
    if (crc32(payload) != expected_crc) {
      throw CheckpointError("checkpoint: CRC mismatch in frame ending at offset " +
                            std::to_string(pos) + " — journal is corrupt");
    }
    if (kind == kShardFrame) {
      ShardRun shard = parse_shard(payload);
      check_index(shard.summary.shard_index, "shard");
      out.shards.emplace(shard.summary.shard_index, std::move(shard));
    } else if (kind == kFailureFrame) {
      out.failures.push_back(parse_failure(payload));
      check_index(out.failures.back().shard_index, "failure");
    } else if (kind == kWorkerIoFrame) {
      out.worker_io.push_back(parse_worker_io(payload));
    } else {
      throw CheckpointError("checkpoint: unknown frame kind " + std::to_string(kind) +
                            " in frame ending at offset " + std::to_string(pos));
    }
  }
  return out;
}

}  // namespace gfwsim::gfw
