// Deterministic resource governance for one shard's simulation.
//
// The governor meters the hot allocators the simulation already owns —
// in-flight PayloadRef bytes, timer-wheel slab nodes, connection-registry
// hash slots, ARQ SeqRing entries, and probe-log records — against
// configurable budgets, and converts exhaustion into a structured
// ResourceExhausted throw instead of an OOM-kill. A campaign under a
// breached budget therefore degrades through the supervision ladder
// (ShardFailure kind kResource, retry, quarantine) rather than dying.
//
// Determinism contract, mirroring the fault layer (net/fault.h):
//   * With all budgets zero (the default) the governor is provably
//     inert: acquire() is a single branch, no counter moves, no RNG is
//     ever seeded or drawn, and every golden transcript digest is
//     bit-identical to a build without the governor.
//   * With budgets set, every breach is a pure function of the shard's
//     own metered acquisition sequence — which depends only on the
//     shard seed and scenario, never on wall clock, thread count, or
//     worker count — so exhaustion reproduces bit-identically anywhere.
//   * Failure injection is deterministic two ways: fail the Nth metered
//     acquisition exactly, or draw per-acquisition from a dedicated
//     xoshiro stream seeded with (shard seed ^ kSeedSalt). The stream
//     is private to the governor, so arming it perturbs no other
//     subsystem's draw sequence.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "crypto/rng.h"

namespace gfwsim::net {

// The metered allocator families. Values are stable (they appear in
// checkpoint resource frames and operator output).
enum class ResourceKind : std::uint8_t {
  kPayloadBytes = 0,  // wire-copy payload bytes scheduled for delivery
  kTimerNodes = 1,    // timer-wheel slab nodes live in the event loop
  kMapSlots = 2,      // connection-registry FlatHashMap slots
  kArqEntries = 3,    // unacknowledged segments in ARQ SeqRing buffers
  kProbeRecords = 4,  // records accumulated in the GFW probe log
};

inline constexpr std::size_t kResourceKindCount = 5;

const char* resource_kind_name(ResourceKind kind);

// Approximate resident bytes one unit of each kind pins (payload bytes
// count 1:1; the node/slot/entry/record kinds use their struct sizes
// rounded to a stable constant so the byte accounting never shifts with
// compiler layout).
std::uint64_t resource_unit_bytes(ResourceKind kind);

// All-zero limits keep the governor inert (see header comment). Any
// nonzero field arms it.
struct ResourceLimits {
  // Budget on the weighted total of all metered kinds, in bytes
  // (sum over kinds of in_use * resource_unit_bytes). 0 = unlimited.
  std::uint64_t total_bytes = 0;
  // Per-kind unit caps (same indexing as ResourceKind). 0 = unlimited.
  std::array<std::uint64_t, kResourceKindCount> unit_caps{};
  // Deterministic injection: breach on exactly the Nth metered
  // acquisition (1-based). 0 = off.
  std::uint64_t fail_at_acquisition = 0;
  // Deterministic injection: per-acquisition breach probability drawn
  // from the governor's dedicated xoshiro stream. 0 = off (and the
  // stream is never consulted).
  double fail_probability = 0.0;

  bool enabled() const {
    if (total_bytes != 0 || fail_at_acquisition != 0 || fail_probability > 0.0) {
      return true;
    }
    for (const std::uint64_t cap : unit_caps) {
      if (cap != 0) return true;
    }
    return false;
  }
};

// Thrown by ResourceGovernor::acquire on a budget breach or injected
// failure. Caught by the shard runner and converted into a ShardFailure
// of kind kResource (gfw/supervisor.h).
class ResourceExhausted : public std::runtime_error {
 public:
  ResourceExhausted(ResourceKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  ResourceKind kind() const { return kind_; }

 private:
  ResourceKind kind_;
};

class ResourceGovernor {
 public:
  // XOR'd into the shard seed to derive the governor's private stream,
  // following the fault layer's seed ^ 0xFA17 idiom.
  static constexpr std::uint64_t kSeedSalt = 0xB0D6;

  ResourceGovernor() = default;
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  // Arms the governor. The injection stream is seeded only when
  // fail_probability is nonzero, so a probability-free configuration
  // performs zero RNG work.
  void configure(const ResourceLimits& limits, std::uint64_t seed);

  bool enabled() const { return enabled_; }

  // Meters an acquisition of `units` of `kind`. A single branch when the
  // governor is disarmed. Throws ResourceExhausted on a budget breach or
  // injected failure; the units stay accounted so the matching releases
  // during unwind balance.
  void acquire(ResourceKind kind, std::uint64_t units = 1);

  // Returns metered units. Saturates at zero so teardown paths that race
  // a mid-acquire breach can never underflow the books.
  void release(ResourceKind kind, std::uint64_t units = 1) noexcept;

  std::uint64_t in_use(ResourceKind kind) const {
    return in_use_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t peak(ResourceKind kind) const {
    return peak_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t bytes_in_use() const { return bytes_in_use_; }
  std::uint64_t peak_bytes() const { return peak_bytes_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  // Breaches thrown so far (normally 0 or 1 per shard attempt: the first
  // breach aborts the attempt).
  std::uint64_t breaches() const { return breaches_; }

 private:
  [[noreturn]] void breach(ResourceKind kind, const std::string& why);

  bool enabled_ = false;
  ResourceLimits limits_;
  crypto::Rng rng_;
  std::array<std::uint64_t, kResourceKindCount> in_use_{};
  std::array<std::uint64_t, kResourceKindCount> peak_{};
  std::uint64_t bytes_in_use_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t breaches_ = 0;
};

}  // namespace gfwsim::net
