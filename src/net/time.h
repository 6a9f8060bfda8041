// Simulated time.
//
// The whole simulator runs on a virtual clock owned by the EventLoop;
// nothing reads wall time. Durations are nanoseconds in int64, giving a
// ±292-year range — the paper's longest experiment (4 months) and longest
// replay delay (570 hours) fit comfortably.
#pragma once

#include <chrono>
#include <cstdint>

namespace gfwsim::net {

using Duration = std::chrono::nanoseconds;
// A point on the simulation clock, expressed as time since simulation start.
using TimePoint = std::chrono::nanoseconds;

constexpr Duration nanoseconds(std::int64_t n) { return Duration(n); }
constexpr Duration milliseconds(std::int64_t n) { return Duration(n * 1000000); }
constexpr Duration seconds(std::int64_t n) { return Duration(n * 1000000000); }
constexpr Duration minutes(std::int64_t n) { return seconds(n * 60); }
constexpr Duration hours(std::int64_t n) { return seconds(n * 3600); }

inline Duration from_seconds(double s) {
  return Duration(static_cast<std::int64_t>(s * 1e9));
}

inline double to_seconds(Duration d) {
  return static_cast<double>(d.count()) / 1e9;
}

inline double to_hours(Duration d) { return to_seconds(d) / 3600.0; }

}  // namespace gfwsim::net
