// The benchmark's one clock. On x86-64 it reads the TSC (one rdtsc, no
// fence: cheap enough to bracket a single engine CAS), calibrated once
// against std::chrono::steady_clock; elsewhere it is steady_clock itself
// and a tick is a nanosecond. Every latency sample and every traced span
// is taken with ticks(); ns_per_tick() converts.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace perfbench {

inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

// Busy-waits 50 ms of steady_clock and divides by the ticks that elapsed.
inline double calibrate_ns_per_tick() {
  const std::uint64_t s0 = steady_ns();
  const std::uint64_t t0 = ticks();
  std::uint64_t s1 = s0;
  while (s1 - s0 < 50'000'000) s1 = steady_ns();
  const std::uint64_t t1 = ticks();
  return t1 > t0 ? static_cast<double>(s1 - s0) / static_cast<double>(t1 - t0)
                 : 1.0;
}

}  // namespace detail

/// Calibrated on first call (thread-safe static init); call it once from
/// main before any worker starts so no timed window pays for it.
inline double ns_per_tick() {
  static const double v = detail::calibrate_ns_per_tick();
  return v;
}

inline double to_ns(std::uint64_t t) {
  return static_cast<double>(t) * ns_per_tick();
}

/// Cost of one ticks() call, in ns: the per-sample price every timed op
/// and every span side pays (reported as driver.clock_ns).
inline double clock_cost_ns() {
  // rdtsc is a volatile builtin and steady_clock::now an opaque call, so
  // the compiler keeps every read.
  constexpr int kReads = 1 << 20;
  const std::uint64_t t0 = ticks();
  for (int i = 0; i < kReads; ++i) (void)ticks();
  const std::uint64_t t1 = ticks();
  return to_ns(t1 - t0) / kReads;
}

}  // namespace perfbench
