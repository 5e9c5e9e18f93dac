// The closed-loop window driver. A workload's body runs on each worker
// thread and loops { pick op; run it to completion; finish() } until the
// window ends, so every caller waits for its operation before issuing the
// next. The main thread sleeps through the window, waking at each slice
// boundary to snapshot the workers' op counters; rates and percentiles are
// computed per slice so the caller can report their interquartile means,
// which a short burst of interference on a shared machine does not move.
//
// Only a fixed share of ops is timed (8 of every 64, by op index) so the
// two clock reads around a sampled op barely perturb the fast path; the
// sampled op's latency runs from before its first LL to after its commit
// and includes every retry.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "clock.hpp"
#include "histogram.hpp"
#include "ledger.hpp"

namespace perfbench {

/// Window control, written by the main thread a few times per second and
/// polled by the workers.
struct alignas(64) Control {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> slice{0};
};

/// One worker's record of a window; the op counters are its only fields
/// another thread reads while the window runs.
struct alignas(64) WorkerState {
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<Histogram> update_ticks;  ///< per slice, plus one overflow slot
  std::vector<Histogram> read_ticks;
  std::uint64_t failed = 0;
  Ledger ledger;
  std::uint64_t window_ns = 0;  ///< steady_clock, from go to loop exit
};

/// A worker's view of the window: when to stop, which ops to time, and
/// where their samples go.
class Worker {
 public:
  Worker(const Control& ctl, WorkerState& st, std::uint64_t limit)
      : ctl_(ctl), st_(st), limit_(limit) {}

  bool stopped() const {
    return op_ >= limit_ || ctl_.stop.load(std::memory_order_relaxed);
  }

  /// The read share of the mixed workloads: every 8th op.
  bool mixed_read() const { return (op_ & 7) == 7; }

  /// Start of an op: a timestamp when this op is sampled, else 0.
  std::uint64_t start() const { return (op_ & 63) < 8 ? ticks() : 0; }

  /// End of an op: counts it, records its latency if sampled, and charges
  /// a failed correctness check.
  void finish(bool read, std::uint64_t t0, bool ok) {
    if (t0 != 0) {
      const std::uint64_t dt = ticks() - t0;
      const std::uint32_t s = ctl_.slice.load(std::memory_order_relaxed);
      (read ? st_.read_ticks : st_.update_ticks)[s].record(dt);
    }
    // Single writer: a relaxed load + store, read by the main thread's
    // slice snapshots.
    std::atomic<std::uint64_t>& c = read ? st_.reads : st_.updates;
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    if (!ok) ++st_.failed;
    ++op_;
  }

 private:
  const Control& ctl_;
  WorkerState& st_;
  const std::uint64_t limit_;
  std::uint64_t op_ = 0;
};

struct WindowResult {
  std::vector<double> update_rate, read_rate;  ///< ops/s per slice
  std::vector<double> update_p50, update_p99, read_p50, read_p99;  ///< ns
  std::uint64_t update_samples = 0, read_samples = 0;
  std::uint64_t updates = 0, reads = 0, failed = 0;
  Ledger ledger;               ///< merged over workers (traced windows)
  std::uint64_t window_ns = 0; ///< summed over workers
};

namespace detail {

inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

inline void pin_self(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace detail

/// CPUs this process may run on (the run header's nproc).
inline unsigned usable_cpus() {
  const auto n = detail::allowed_cpus().size();
  return n ? static_cast<unsigned>(n) : std::thread::hardware_concurrency();
}

/// Runs `body(tid, worker)` on `threads` threads. With `seconds` > 0 it is
/// a timed window of `slices` equal slices; otherwise each worker runs
/// exactly `ops` ops (the untimed warm-up). When there is a CPU to spare
/// for the sleeping main thread, worker t is pinned to a CPU of its own.
template <class Body>
WindowResult run_window(unsigned threads, double seconds, unsigned slices,
                        std::uint64_t ops, bool traced, Body&& body) {
  const bool timed = seconds > 0;
  if (!timed) slices = 1;
  Control ctl;
  std::vector<std::unique_ptr<WorkerState>> st;
  for (unsigned t = 0; t < threads; ++t) {
    st.push_back(std::make_unique<WorkerState>());
    st.back()->update_ticks.resize(slices + 1);
    st.back()->read_ticks.resize(slices + 1);
  }
  const std::vector<int> cpus = detail::allowed_cpus();
  const bool pin = cpus.size() > threads;
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (pin) detail::pin_self(cpus[t + 1]);
      WorkerState& me = *st[t];
      Worker w(ctl, me, timed ? ~std::uint64_t{0} : ops);
      ready.fetch_add(1, std::memory_order_release);
      while (!ctl.go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t begin = steady_ns();
      if (traced) t_ledger = &me.ledger;
      body(t, w);
      t_ledger = nullptr;
      me.window_ns = steady_ns() - begin;
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) std::this_thread::yield();

  WindowResult r;
  const auto t_start = std::chrono::steady_clock::now();
  ctl.go.store(true, std::memory_order_release);
  if (timed) {
    const auto slice_len = std::chrono::duration<double>(seconds / slices);
    auto prev_t = t_start;
    std::uint64_t prev_u = 0, prev_r = 0;
    for (unsigned s = 0; s < slices; ++s) {
      std::this_thread::sleep_until(
          t_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        slice_len * (s + 1)));
      const auto now = std::chrono::steady_clock::now();
      std::uint64_t u = 0, rd = 0;
      for (const auto& w : st) {
        u += w->updates.load(std::memory_order_relaxed);
        rd += w->reads.load(std::memory_order_relaxed);
      }
      const double dt = std::chrono::duration<double>(now - prev_t).count();
      r.update_rate.push_back(static_cast<double>(u - prev_u) / dt);
      r.read_rate.push_back(static_cast<double>(rd - prev_r) / dt);
      prev_t = now;
      prev_u = u;
      prev_r = rd;
      ctl.slice.store(s + 1, std::memory_order_relaxed);
    }
    ctl.stop.store(true, std::memory_order_relaxed);
  }
  for (auto& th : pool) th.join();

  for (unsigned s = 0; s < slices; ++s) {
    Histogram u, rd;
    for (const auto& w : st) {
      u.merge(w->update_ticks[s]);
      rd.merge(w->read_ticks[s]);
    }
    r.update_samples += u.count();
    r.read_samples += rd.count();
    r.update_p50.push_back(ns_per_tick() * u.percentile(0.50));
    r.update_p99.push_back(ns_per_tick() * u.percentile(0.99));
    r.read_p50.push_back(ns_per_tick() * rd.percentile(0.50));
    r.read_p99.push_back(ns_per_tick() * rd.percentile(0.99));
  }
  for (const auto& w : st) {
    r.updates += w->updates.load(std::memory_order_relaxed);
    r.reads += w->reads.load(std::memory_order_relaxed);
    r.failed += w->failed;
    r.ledger.merge(w->ledger);
    r.window_ns += w->window_ns;
  }
  return r;
}

/// Mean of the middle half of `v` (the lowest and highest quarter
/// dropped). A slice hit by a burst of interference falls in a dropped
/// quarter, and unlike a median the result moves smoothly when the machine
/// switches between two steady regimes (e.g. vCPUs placed on sibling
/// hyperthreads or not) part-way through a window.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t drop = v.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
