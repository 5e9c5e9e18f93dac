// Blocking baseline: one mutex around a W-word value plus a version
// counter for the link semantics. Simple and sequentially fast, but a
// stalled holder blocks every other process — the convoying/fault-
// tolerance failure mode the paper's introduction argues against.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/llsc.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_safety.hpp"

namespace mwllsc::baseline {

class LockLLSC {
 public:
  LockLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(llsc::checked_nprocs(nprocs)),
        w_(words),
        value_(words, 0),
        linked_(new Linked[nprocs]),
        stats_(nprocs) {
    assert(words >= 1);
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      linked_[p].version = kUnlinked;
    }
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    trace_.emit(obs::EventKind::kLlStart, p);
    std::uint64_t linked = 0;
    {
      util::MutexLock g(mu_);
      for (std::uint32_t i = 0; i < w_; ++i) out[i] = value_[i];
      linked_[p].version = version_;
      linked = version_;
    }
    stats_.at(p).bump(stats_.at(p).ll_ops);
    trace_.emit(obs::EventKind::kLlFast, p, linked);
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p);
    bool ok = false;
    std::uint64_t newv = 0;
    {
      util::MutexLock g(mu_);
      if (linked_[p].version == version_) {
        for (std::uint32_t i = 0; i < w_; ++i) value_[i] = v[i];
        ++version_;
        newv = version_;
        ok = true;
      }
      linked_[p].version = kUnlinked;  // the link is consumed either way
    }
    if (ok) c.bump(c.sc_success);
    trace_.emit(ok ? obs::EventKind::kScCommit : obs::EventKind::kScFail, p,
                newv);
    return ok;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    util::MutexLock g(mu_);
    return linked_[p].version == version_;
  }

  std::uint32_t words() const { return w_; }

  core::OpStatsSnapshot stats() const { return stats_.snapshot(); }

  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, w_, "lock");
  }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("value (W words)", w_ * sizeof(std::uint64_t));
    f.add("mutex + version", sizeof(mu_) + sizeof(version_));
    f.add("per-process state (private)",
          n_ * sizeof(Linked) + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

 private:
  static constexpr std::uint64_t kUnlinked = ~std::uint64_t{0};

  struct alignas(64) Linked {
    std::uint64_t version;
  };

  const std::uint32_t n_;
  const std::uint32_t w_;
  util::Mutex mu_;
  std::uint64_t version_ MWLLSC_GUARDED_BY(mu_) = 0;
  std::vector<std::uint64_t> value_ MWLLSC_GUARDED_BY(mu_);
  std::unique_ptr<Linked[]> linked_ MWLLSC_PT_GUARDED_BY(mu_);
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::baseline
