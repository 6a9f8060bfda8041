#include "net/resources.h"

namespace gfwsim::net {

const char* resource_kind_name(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kPayloadBytes:
      return "payload-bytes";
    case ResourceKind::kTimerNodes:
      return "timer-nodes";
    case ResourceKind::kMapSlots:
      return "map-slots";
    case ResourceKind::kArqEntries:
      return "arq-entries";
    case ResourceKind::kProbeRecords:
      return "probe-records";
  }
  return "unknown";
}

std::uint64_t resource_unit_bytes(ResourceKind kind) {
  // Stable constants, not sizeof(): the byte accounting is part of the
  // determinism contract and must not shift with compiler or libc++
  // layout changes.
  switch (kind) {
    case ResourceKind::kPayloadBytes:
      return 1;
    case ResourceKind::kTimerNodes:
      return 128;  // EventLoop::Node: links + deadline + inline callback
    case ResourceKind::kMapSlots:
      return 64;  // a fixed accounting unit per registry entry
    case ResourceKind::kArqEntries:
      return 1600;  // SeqRing<Segment> slot: header + typical MSS payload ref
    case ResourceKind::kProbeRecords:
      return 112;  // ProbeRecord
  }
  return 1;
}

void ResourceGovernor::configure(const ResourceLimits& limits, std::uint64_t seed) {
  limits_ = limits;
  enabled_ = limits.enabled();
  if (enabled_ && limits_.fail_probability > 0.0) rng_.reseed(seed);
}

void ResourceGovernor::acquire(ResourceKind kind, std::uint64_t units) {
  if (!enabled_) return;
  const auto k = static_cast<std::size_t>(kind);
  ++acquisitions_;
  in_use_[k] += units;
  if (in_use_[k] > peak_[k]) peak_[k] = in_use_[k];
  bytes_in_use_ += units * resource_unit_bytes(kind);
  if (bytes_in_use_ > peak_bytes_) peak_bytes_ = bytes_in_use_;

  if (limits_.fail_at_acquisition != 0 &&
      acquisitions_ == limits_.fail_at_acquisition) {
    breach(kind, "injected failure at metered acquisition #" +
                     std::to_string(acquisitions_));
  }
  if (limits_.fail_probability > 0.0 && rng_.bernoulli(limits_.fail_probability)) {
    breach(kind, "injected probabilistic failure at metered acquisition #" +
                     std::to_string(acquisitions_));
  }
  if (limits_.unit_caps[k] != 0 && in_use_[k] > limits_.unit_caps[k]) {
    breach(kind, "budget of " + std::to_string(limits_.unit_caps[k]) +
                     " unit(s) exceeded (" + std::to_string(in_use_[k]) +
                     " in use)");
  }
  if (limits_.total_bytes != 0 && bytes_in_use_ > limits_.total_bytes) {
    breach(kind, "memory budget of " + std::to_string(limits_.total_bytes) +
                     " byte(s) exceeded (" + std::to_string(bytes_in_use_) +
                     " metered bytes in use, peak " +
                     std::to_string(peak_bytes_) + ")");
  }
}

void ResourceGovernor::release(ResourceKind kind, std::uint64_t units) noexcept {
  if (!enabled_) return;
  const auto k = static_cast<std::size_t>(kind);
  const std::uint64_t taken = units < in_use_[k] ? units : in_use_[k];
  in_use_[k] -= taken;
  bytes_in_use_ -= taken * resource_unit_bytes(kind);
}

void ResourceGovernor::breach(ResourceKind kind, const std::string& why) {
  ++breaches_;
  throw ResourceExhausted(
      kind, std::string("resource governor: ") + resource_kind_name(kind) +
                ": " + why);
}

}  // namespace gfwsim::net
