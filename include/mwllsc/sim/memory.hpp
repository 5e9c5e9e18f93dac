// The simulator's shared-memory policy. The shipped protocols (core/,
// baseline/) are templates over a policy supplying Atomic<T>; instantiated
// with sim::Memory, every load, store and CAS they make first calls into
// the harness (sim/harness.hpp), which may park the calling process right
// there and run another one. One access is one step, so the step counts
// the harness reports are counts of the shipped code's shared accesses.
//
// All simulated processes run on one thread, so the cells are plain values;
// memory orders are accepted and ignored (the simulator explores
// sequentially consistent interleavings). Accesses made outside a
// simulated process (construction, the invariant checker's peek()) are not
// scheduling points.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/llsc.hpp"

namespace mwllsc::sim {

enum class Access : std::uint8_t { kLoad, kStore, kRmw };

namespace detail {

/// The harness side of the policy: told about each access before it runs.
class AccessSink {
 public:
  virtual void before_access(const void* cell, Access kind) = 0;

 protected:
  ~AccessSink() = default;
};

/// The process running on this thread, or null outside a simulated process.
inline AccessSink*& running() {
  static thread_local AccessSink* sink = nullptr;
  return sink;
}

inline void access(const void* cell, Access kind) {
  if (AccessSink* s = running()) s->before_access(cell, kind);
}

}  // namespace detail

template <class T>
class SimAtomic {
 public:
  SimAtomic() = default;
  SimAtomic(const SimAtomic&) = delete;
  SimAtomic& operator=(const SimAtomic&) = delete;

  T load(std::memory_order) const {
    detail::access(this, Access::kLoad);
    return v_;
  }
  void store(T v, std::memory_order) {
    detail::access(this, Access::kStore);
    v_ = v;
  }
  bool compare_exchange_strong(T& expected, T desired, std::memory_order) {
    detail::access(this, Access::kRmw);
    if (v_ == expected) {
      v_ = desired;
      return true;
    }
    expected = v_;
    return false;
  }
  bool compare_exchange_strong(T& expected, T desired, std::memory_order o,
                               std::memory_order) {
    return compare_exchange_strong(expected, desired, o);
  }

  /// The current value, without a scheduling point (checker use only).
  T peek() const { return v_; }

 private:
  T v_{};
};

struct Memory {
  template <class T>
  using Atomic = SimAtomic<T>;
};

/// The single-word engine under simulation, over sim memory.
using Engine = llsc::BasicEngine<Memory>;

}  // namespace mwllsc::sim
