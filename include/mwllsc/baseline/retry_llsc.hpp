// Lock-free retry strawman: the obvious buffer-swing construction with no
// helping at all. SC is a single 1-word SC on the descriptor; LL retries
// its copy until a validation passes. Writers are lock-free and fast —
// but a reader's copy loop can be invalidated forever under a write storm
// (reader starvation), which is exactly the gap between lock-freedom and
// the paper's wait-freedom (experiments E8/E9).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/llsc.hpp"
#include "core/rows.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace mwllsc::baseline {

template <class LLSC, class Mem = NativeMemory>
class RetryLLSC {
 public:
  RetryLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(llsc::checked_nprocs(nprocs)),
        rows_(std::size_t{nprocs} + 1, words),
        x_(nprocs, nprocs),
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    for (std::uint32_t p = 0; p < n_; ++p) priv_[p].spare = p;
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    trace_.emit(obs::EventKind::kLlStart, p);
    for (;;) {  // unbounded: lock-free, not wait-free
      const auto b = static_cast<std::uint32_t>(x_.ll(p));
      rows_.copy_out(b, out);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (x_.vl(p)) {
        me.ll_buf = b;
        me.link_valid = true;
        stats_.at(p).bump(stats_.at(p).ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, 0, b);
        return;
      }
      trace_.emit(obs::EventKind::kLlRetry, p);
    }
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p, 0, me.link_valid ? 1 : 0);
    if (!me.link_valid) {
      trace_.emit(obs::EventKind::kScFail, p);
      return false;
    }
    me.link_valid = false;
    rows_.copy_in(me.spare, v);
    std::atomic_thread_fence(std::memory_order_release);
    if (!x_.sc(p, me.spare)) {
      trace_.emit(obs::EventKind::kScFail, p);
      return false;
    }
    c.bump(c.sc_success);
    trace_.emit(obs::EventKind::kScCommit, p);
    me.spare = me.ll_buf;
    trace_.emit(obs::EventKind::kBankWrite, p, 0, me.spare);
    return true;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    return x_.vl(p);
  }

  std::uint32_t words() const { return rows_.words(); }

  core::OpStatsSnapshot stats() const { return stats_.snapshot(); }

  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, rows_.words(), "retry");
  }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers (N+1 rows)", rows_.bytes());
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

 private:
  struct alignas(64) Priv {
    std::uint32_t spare = 0;
    std::uint32_t ll_buf = 0;
    bool link_valid = false;
  };

  const std::uint32_t n_;
  core::RowPool<Mem> rows_;  ///< the N+1 value rows (core/rows.hpp)
  LLSC x_;
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;

  template <class>
  friend struct sim::Inspector;
};

}  // namespace mwllsc::baseline
