// lint-expect: R1 (operator sugar on a policy-typed atomic: defaulted seq_cst)
#pragma once

#include <cstdint>

namespace fixture {

template <class Mem>
struct alignas(64) Counter {
  template <class T>
  using Atomic = typename Mem::template Atomic<T>;

  Atomic<std::uint64_t> n;

  void bump() { ++n; }

  std::uint64_t read() const { return n.load(std::memory_order_relaxed); }
};

}  // namespace fixture
