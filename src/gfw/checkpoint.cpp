#include "gfw/checkpoint.h"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>

#include "gfw/rows.h"

namespace gfwsim::gfw {

// ---- journaled records, in wire order ---------------------------------------
//
// One table per record the journal carries. The codec walks each table in
// order, so a table's row order is the record's byte layout.

GFWSIM_ROWS(net::Endpoint, GFWSIM_ROW(addr), GFWSIM_ROW(port));
GFWSIM_ROWS(net::TeardownReport, GFWSIM_ROW(leaked_established),
            GFWSIM_ROW(live_established), GFWSIM_ROW(embryonic), GFWSIM_ROW(half_closed),
            GFWSIM_ROW(stale_registrations), GFWSIM_ROW(expired_registrations),
            GFWSIM_ROW(pending_timers), GFWSIM_ROW(timers_overdue),
            GFWSIM_ROW(segments_in_flight), GFWSIM_ROW(accounting_balanced));
GFWSIM_ROWS(BlockingModule::BlockEntry, GFWSIM_ROW(server_ip), GFWSIM_ROW(port),
            GFWSIM_ROW(blocked_at), GFWSIM_ROW(unblock_at), GFWSIM_ROW(region));
GFWSIM_ROWS(ProbeRecord, GFWSIM_ROW(sent_at), GFWSIM_ROW(type), GFWSIM_ROW(server),
            GFWSIM_ROW(src_ip), GFWSIM_ROW(asn), GFWSIM_ROW(src_port), GFWSIM_ROW(ttl),
            GFWSIM_ROW(tsval), GFWSIM_ROW(tsval_process), GFWSIM_ROW(payload_len),
            GFWSIM_ROW(reaction), GFWSIM_ROW(connect_retries), GFWSIM_ROW(replay_delay),
            GFWSIM_ROW(is_first_replay_of_payload), GFWSIM_ROW(trigger_payload_hash),
            GFWSIM_ROW(server_id));
// Identity, then the kServerCounters rows (gfw/runner.h).
GFWSIM_ROWS(ServerStats, GFWSIM_ROW(server_id), GFWSIM_ROW(endpoint), GFWSIM_ROW(region),
            GFWSIM_ROW(impl), GFWSIM_ROW(cipher), GFWSIM_ROW(connections_launched),
            GFWSIM_ROW(payload_bytes), GFWSIM_ROW(probes), GFWSIM_ROW(blocks));
GFWSIM_ROWS(ShedRecord, GFWSIM_ROW(server_id), GFWSIM_ROW(region), GFWSIM_ROW(count));
// The kResourceCounters rows, then the peaks and the sheds. The peaks
// carry their own count, so a reader built with more (or fewer) metered
// kinds still decodes the frame.
GFWSIM_ROWS(ShardResources, GFWSIM_ROW(probes_shed), GFWSIM_ROW(probes_deferred),
            GFWSIM_ROW(queue_overflow_drops), GFWSIM_ROW(peak_metered_bytes),
            GFWSIM_ROW(acquisitions), GFWSIM_ROW(peak_units), GFWSIM_ROW(sheds));
GFWSIM_ROWS(ShardFailure, GFWSIM_ROW(shard_index), GFWSIM_ROW(seed), GFWSIM_ROW(phase),
            GFWSIM_ROW(kind), GFWSIM_ROW(attempts), GFWSIM_ROW(quarantined),
            GFWSIM_ROW(nondeterministic), GFWSIM_ROW(what), GFWSIM_ROW(teardown));
GFWSIM_ROWS(WorkerIoStats, GFWSIM_ROW(worker_id), GFWSIM_ROW(heartbeats_dropped),
            GFWSIM_ROW(heartbeat_retries), GFWSIM_ROW(journal_retries));
// After the 8-byte magic.
GFWSIM_ROWS(CheckpointHeader, GFWSIM_ROW(version), GFWSIM_ROW(shard_count),
            GFWSIM_ROW(base_seed), GFWSIM_ROW(scenario_fingerprint));

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

// ---- the codec: one rule per leaf type -----------------------------------

// The last enumerator of each journaled enum; a byte above it is corrupt.
constexpr auto last(probesim::ProbeType) { return probesim::ProbeType::kNR2; }
constexpr auto last(probesim::Reaction) { return probesim::Reaction::kData; }
constexpr auto last(ShardPhase) { return ShardPhase::kHarvest; }
constexpr auto last(FailureKind) { return FailureKind::kResource; }

// Appends v: a struct with a row table row by row, a leaf by its rule
// (gfw/checkpoint.h). Integers go in as words, little-endian.
template <typename T>
void put(Bytes& out, const T& v) {
  if constexpr (HasRows<T>) {
    for_each_row<T>([&](const auto& row) { put(out, v.*row.member); });
  } else if constexpr (std::is_same_v<T, std::string>) {
    put(out, static_cast<std::uint32_t>(v.size()));
    append(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
  } else if constexpr (kIs<T, std::optional>) {
    put(out, v.has_value());
    put(out, v.value_or(typename T::value_type{}));
  } else if constexpr (kIs<T, std::vector> || kIsArray<T>) {
    put(out, static_cast<std::uint32_t>(v.size()));
    for (const auto& element : v) put(out, element);
  } else if constexpr (std::is_same_v<T, net::Duration>) {
    put(out, static_cast<std::int64_t>(v.count()));
  } else if constexpr (std::is_same_v<T, net::Ipv4>) {
    put(out, v.value);
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    out.push_back(static_cast<std::uint8_t>(v));
  } else {
    static_assert(std::is_integral_v<T>, "no wire rule");
    if constexpr (sizeof(T) <= 2) {
      out.push_back(static_cast<std::uint8_t>(v));
      if constexpr (sizeof(T) == 2) out.push_back(static_cast<std::uint8_t>(v >> 8));
    } else {
      std::uint8_t buf[sizeof(T)];
      if constexpr (sizeof(T) == 4) store_le32(buf, static_cast<std::uint32_t>(v));
      else store_le64(buf, static_cast<std::uint64_t>(v));
      append(out, ByteSpan(buf, sizeof(T)));
    }
  }
}

// The fewest bytes put() writes for a T (strings and sequences empty).
template <typename T>
constexpr std::size_t min_size() {
  if constexpr (HasRows<T>) {
    std::size_t size = 0;
    for_each_row<T>([&](const auto& row) {
      size += min_size<std::remove_cvref_t<decltype(std::declval<T&>().*row.member)>>();
    });
    return size;
  } else if constexpr (std::is_same_v<T, std::string> || kIs<T, std::vector> ||
                       kIsArray<T>) {
    return 4;
  } else if constexpr (kIs<T, std::optional>) {
    return 1 + min_size<typename T::value_type>();
  } else if constexpr (std::is_same_v<T, net::Duration>) {
    return 8;
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    return 1;
  } else {
    return sizeof(T);  // an integer, or an Ipv4's u32
  }
}

template <typename T>
Bytes encode(const T& v) {
  Bytes out;
  out.reserve(min_size<T>());
  put(out, v);
  return out;
}

// Out of line, so that the reader's checks inline into their callers.
[[noreturn, gnu::noinline]] void corrupt(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

// Reads back what put() wrote, bounds-checked.
struct Cursor {
  ByteSpan data;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (n > data.size() - pos) corrupt("truncated frame payload");
  }
  // Count-field sanity: a corrupt (or hostile) element count whose
  // entries could not all fit in the remaining payload is rejected
  // BEFORE any allocation or loop, so a flipped length byte costs a
  // CheckpointError, never a multi-gigabyte allocation.
  void need_count(std::uint64_t count, std::size_t min_entry_size,
                  const char* what) const {
    if (count > (data.size() - pos) / min_entry_size) {
      corrupt("implausible " + std::string(what) + " count " + std::to_string(count) +
              " for remaining payload");
    }
  }
  void done(const char* frame) const {
    if (pos != data.size()) corrupt(std::string("trailing bytes inside ") + frame + " frame");
  }

  // `row` names v in errors: an implausible count, an unknown enum byte.
  template <typename T>
  void get(T& v, const char* row = "value") {
    if constexpr (HasRows<T>) {
      for_each_row<T>([&](const auto& r) { get(v.*r.member, r.name); });
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t n = 0;
      get(n);
      need(n);
      v.assign(reinterpret_cast<const char*>(data.data() + pos), n);
      pos += n;
    } else if constexpr (kIs<T, std::optional>) {
      bool present = false;
      typename T::value_type value{};
      get(present);
      get(value, row);
      if (present) v = std::move(value);
    } else if constexpr (kIs<T, std::vector> || kIsArray<T>) {
      std::uint32_t n = 0;
      get(n);
      need_count(n, min_size<typename T::value_type>(), row);
      if constexpr (kIs<T, std::vector>) v.resize(n);
      // An array keeps as many elements as it has room for: a writer's
      // extra ones are read and dropped; with fewer, the rest keep their
      // value.
      typename T::value_type dropped{};
      for (std::uint32_t i = 0; i < n; ++i) get(i < v.size() ? v[i] : dropped, row);
    } else if constexpr (std::is_same_v<T, net::Duration>) {
      std::int64_t count = 0;
      get(count);
      v = net::Duration(count);
    } else if constexpr (std::is_same_v<T, net::Ipv4>) {
      get(v.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t byte = 0;
      get(byte);
      v = byte != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::uint8_t byte = 0;
      get(byte);
      if (byte > static_cast<std::uint8_t>(last(T{}))) {
        corrupt("unknown " + std::string(row) + " byte " + std::to_string(byte));
      }
      v = static_cast<T>(byte);
    } else {
      static_assert(std::is_integral_v<T>, "no wire rule");
      need(sizeof(T));
      const std::uint8_t* p = data.data() + pos;
      if constexpr (sizeof(T) == 1) v = static_cast<T>(p[0]);
      else if constexpr (sizeof(T) == 2) v = static_cast<T>(p[0] | p[1] << 8);
      else if constexpr (sizeof(T) == 4) v = static_cast<T>(load_le32(p));
      else v = static_cast<T>(load_le64(p));
      pos += sizeof(T);
    }
  }
};

// One frame payload that is exactly one record.
template <typename T>
T decode(ByteSpan payload, const char* frame) {
  Cursor in{payload};
  T v;
  in.get(v);
  in.done(frame);
  return v;
}

static_assert(sizeof(kMagic) + min_size<CheckpointHeader>() == kHeaderSize);

Bytes serialize_header(const CheckpointHeader& header) {
  Bytes out(kMagic, kMagic + sizeof(kMagic));
  put(out, header);
  return out;
}

CheckpointHeader parse_header(ByteSpan data) {
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("checkpoint: bad magic (not a GFWCKPT1 file)");
  }
  Cursor in{data, sizeof(kMagic)};
  CheckpointHeader header;
  in.get(header);
  if (header.version != kCheckpointVersion) {
    throw CheckpointError("checkpoint: unsupported format version " +
                          std::to_string(header.version) + " (expected " +
                          std::to_string(kCheckpointVersion) + ")");
  }
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
  // Rough upfront sizing: fixed summary block + the probe records.
  out.reserve(384 + min_size<ProbeRecord>() * log.size());
  put(out, summary.shard_index);
  put(out, summary.seed);
  for (const auto& row : kShardCounters) put(out, summary.*row.field);
  put(out, summary.teardown);
  put(out, summary.blocking_history);
  // log_offset is NOT serialized: the merge recomputes it, so a resumed
  // merge places restored slices exactly where an uninterrupted run did.
  put(out, static_cast<std::uint64_t>(log.size()));
  for (const auto& record : log.records()) put(out, record);
  put(out, summary.servers);
  put(out, summary.resources);
  return out;
}

ShardRun parse_shard(ByteSpan payload) {
  Cursor in{payload};
  ShardRun out;
  out.completed = true;
  ShardSummary& s = out.summary;
  in.get(s.shard_index);
  in.get(s.seed);
  for (const auto& row : kShardCounters) in.get(s.*row.field);
  in.get(s.teardown);
  in.get(s.blocking_history, "blocking_history");
  std::uint64_t probes = 0;
  in.get(probes);
  in.need_count(probes, min_size<ProbeRecord>(), "probe record");
  std::vector<ProbeRecord> records;
  records.reserve(probes);
  for (std::uint64_t i = 0; i < probes; ++i) in.get(records.emplace_back());
  out.log.assign(std::move(records));
  s.probes = out.log.size();
  in.get(s.servers, "servers");
  in.get(s.resources);
  in.done("shard");
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

Bytes serialize_failure(const ShardFailure& failure) { return encode(failure); }

ShardFailure parse_failure(ByteSpan payload) {
  return decode<ShardFailure>(payload, "failure");
}

Bytes serialize_worker_io(const WorkerIoStats& io) { return encode(io); }

WorkerIoStats parse_worker_io(ByteSpan payload) {
  return decode<WorkerIoStats>(payload, "worker-io");
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
      std::error_code error;
      const std::uintmax_t size = std::filesystem::file_size(path, error);
      if (!error) std::filesystem::resize_file(path, size - existing.torn_tail_bytes, error);
      if (error) throw CheckpointError("checkpoint: cannot truncate torn tail of " + path);
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
  put(frame, kind);
  put(frame, static_cast<std::uint64_t>(payload.size()));
  put(frame, crc32(payload));
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
