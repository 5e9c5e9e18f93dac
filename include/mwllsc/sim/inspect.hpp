// Read-only access to the shipped protocol objects for the simulator's
// checkers and schedulers. The protocols befriend sim::Inspector and
// nothing else; every read here is a peek() that is not a scheduling
// point, so inspecting never perturbs the schedule under test.
//
// The simulated instantiations are the shipped templates over sim::Memory:
// Jp (core::MwLLSC), Am (baseline::AmLLSC) and Retry (baseline::RetryLLSC),
// all over the one single-word engine.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/am_llsc.hpp"
#include "baseline/retry_llsc.hpp"
#include "core/mwllsc.hpp"
#include "core/rows.hpp"
#include "sim/memory.hpp"

namespace mwllsc::sim {

using Jp = core::MwLLSC<Engine, Memory>;
using Am = baseline::AmLLSC<Engine, Memory>;
using Retry = baseline::RetryLLSC<Engine, Memory>;

/// Row b of a simulated pool, read without scheduling points.
inline std::vector<std::uint64_t> peek_row(const core::RowPool<Memory>& rows,
                                           std::uint32_t b) {
  const auto* row = rows.row(b);
  std::vector<std::uint64_t> v(rows.words());
  for (std::uint32_t i = 0; i < rows.words(); ++i) v[i] = row[i].peek();
  return v;
}

/// The single-word engine: X's buffer and tag (the abstract version).
template <>
struct Inspector<Engine> {
  static std::uint32_t buf(const Engine& e) {
    return llsc::buf_of(e.cell_.w.peek());
  }
  static std::uint64_t tag(const Engine& e) {
    return llsc::tag_of(e.cell_.w.peek());
  }
  static const void* cell(const Engine& e) { return &e.cell_.w; }
};

/// The am and retry baselines: N+1 value rows, and both validate
/// strictly, so one successful SC dooms a pending validation.
template <class Object>
struct Inspector {
  using X = Inspector<Engine>;
  static std::uint64_t version(const Object& o) { return X::tag(o.x_); }
  static const void* x_cell(const Object& o) { return X::cell(o.x_); }
  static std::vector<std::uint64_t> current_value(const Object& o) {
    return peek_row(o.rows_, X::buf(o.x_));
  }
  static bool link_valid(const Object& o, std::uint32_t p) {
    return o.priv_[p].link_valid;
  }
  static std::uint64_t doom_delta(const Object&) { return 1; }
};

/// The paper's protocol: everything the I1 census and I2 equation read.
template <>
struct Inspector<Jp> {
  using X = Inspector<Engine>;
  static std::uint64_t version(const Jp& o) { return X::tag(o.x_); }
  static const void* x_cell(const Jp& o) { return X::cell(o.x_); }
  static std::uint32_t current_buf(const Jp& o) { return X::buf(o.x_); }
  static std::vector<std::uint64_t> current_value(const Jp& o) {
    return peek_row(o.rows_, current_buf(o));
  }
  static bool link_valid(const Jp& o, std::uint32_t p) {
    return o.priv_[p].link_valid;
  }
  /// Aged validation tolerates a drift of P: P+1 successful SCs doom it.
  static std::uint64_t doom_delta(const Jp& o) { return o.p2_ + 1; }

  static std::uint32_t num_bufs(const Jp& o) { return o.nbufs_; }
  static std::uint32_t ring_size(const Jp& o) { return o.ring_size_; }
  static std::uint32_t ring_buf(const Jp& o, std::uint32_t j) {
    return llsc::buf_of(o.ring_cell(j).peek());
  }
  /// Addresses of ring word j and p's announce word (the layout test
  /// checks alignment and packing; core::RowPool's rows are public).
  static const void* ring_addr(const Jp& o, std::uint32_t j) {
    return &o.ring_cell(j);
  }
  static const void* announce_addr(const Jp& o, std::uint32_t p) {
    return &o.slot(p);
  }
  /// The one buffer p owns: while p's announce is in flight its slot word
  /// names it (a donation may have replaced the offered spare); otherwise
  /// Priv::spare does, and a stale slot word may name a buffer p has since
  /// donated away as a helper.
  static std::uint32_t private_buf_of(const Jp& o, std::uint32_t p) {
    const std::uint64_t a = o.slot(p).peek();
    return Jp::in_flight(a, o.priv_[p].seq) ? Jp::buf_of_a(a)
                                            : o.priv_[p].spare;
  }
  /// p is between its X SC and its ring swap (a bank write is owed).
  static bool retire_pending(const Jp& o, std::uint32_t p) {
    return o.priv_[p].retire_tag != Jp::kNoRetire;
  }
  /// p's current LL has posted its announce and no donation replaced it.
  static bool announce_posted(const Jp& o, std::uint32_t p) {
    return in_flight_state(o, p) == Jp::kWaiting;
  }
  /// A donation to p's current LL sits in its slot.
  static bool donation_posted(const Jp& o, std::uint32_t p) {
    return in_flight_state(o, p) == Jp::kHelped;
  }

 private:
  /// The state of p's in-flight announce word, or IDLE if none is.
  static std::uint64_t in_flight_state(const Jp& o, std::uint32_t p) {
    const std::uint64_t a = o.slot(p).peek();
    return Jp::in_flight(a, o.priv_[p].seq) ? Jp::state_of_a(a) : Jp::kIdle;
  }
};

}  // namespace mwllsc::sim
