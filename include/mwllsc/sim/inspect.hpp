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
#include "sim/memory.hpp"

namespace mwllsc::sim {

using Jp = core::MwLLSC<Engine, Memory>;
using Am = baseline::AmLLSC<Engine, Memory>;
using Retry = baseline::RetryLLSC<Engine, Memory>;

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

/// The am and retry baselines share one layout, N+1 unpadded buffers;
/// both validate strictly, so one successful SC dooms a pending
/// validation.
template <class Object>
struct Inspector {
  using X = Inspector<Engine>;
  static std::uint64_t version(const Object& o) { return X::tag(o.x_); }
  static const void* x_cell(const Object& o) { return X::cell(o.x_); }
  static std::vector<std::uint64_t> current_value(const Object& o) {
    const std::uint32_t b = X::buf(o.x_);
    std::vector<std::uint64_t> v(o.w_);
    for (std::uint32_t i = 0; i < o.w_; ++i) {
      v[i] = o.buf_[static_cast<std::size_t>(b) * o.w_ + i].peek();
    }
    return v;
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
    const auto* row = o.buf_row(current_buf(o));
    std::vector<std::uint64_t> v(o.w_);
    for (std::uint32_t i = 0; i < o.w_; ++i) v[i] = row[i].peek();
    return v;
  }
  static bool link_valid(const Jp& o, std::uint32_t p) {
    return o.priv_[p].link_valid;
  }
  /// Aged validation tolerates a drift of P: P+1 successful SCs doom it.
  static std::uint64_t doom_delta(const Jp& o) { return o.p2_ + 1; }

  static std::uint32_t num_bufs(const Jp& o) { return o.nbufs_; }
  static std::uint32_t ring_size(const Jp& o) { return o.ring_size_; }
  static std::uint32_t ring_buf(const Jp& o, std::uint32_t j) {
    return llsc::buf_of(o.ring_[j].w.peek());
  }
  static std::uint32_t spare_of(const Jp& o, std::uint32_t p) {
    return o.priv_[p].spare;
  }
  /// The buffer p owns through its exchange side: inside an LL whose
  /// announce is posted, the slot word names it (a donation may have
  /// replaced the offered buffer); otherwise Priv::xbuf does, and a stale
  /// word may name a buffer p has since donated away as a helper.
  static std::uint32_t exchange_buf_of(const Jp& o, std::uint32_t p) {
    const auto& me = o.priv_[p];
    const std::uint64_t a = o.announce_[p].a.peek();
    if (me.announced && Jp::seq_of_a(a) == me.seq &&
        Jp::state_of_a(a) != Jp::kIdle) {
      return Jp::buf_of_a(a);
    }
    return me.xbuf;
  }
  /// p is between its X SC and its ring swap (a bank write is owed).
  static bool retire_pending(const Jp& o, std::uint32_t p) {
    return o.priv_[p].retire_tag != Jp::kNoRetire;
  }
  /// p's current LL has posted its announce and no donation replaced it.
  static bool announce_posted(const Jp& o, std::uint32_t p) {
    const std::uint64_t a = o.announce_[p].a.peek();
    return o.priv_[p].announced && Jp::state_of_a(a) == Jp::kWaiting &&
           Jp::seq_of_a(a) == o.priv_[p].seq;
  }
  /// A donation to p's current LL sits in its slot.
  static bool donation_posted(const Jp& o, std::uint32_t p) {
    const std::uint64_t a = o.announce_[p].a.peek();
    return o.priv_[p].announced && Jp::state_of_a(a) == Jp::kHelped &&
           Jp::seq_of_a(a) == o.priv_[p].seq;
  }
};

}  // namespace mwllsc::sim
