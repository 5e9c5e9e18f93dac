// Lock-free universal construction over a multiword LL/SC variable (the
// consumer the paper's §1 leads with): the object state lives directly in
// the W-word variable, and apply is the canonical { LL; compute; SC }
// retry loop. Progress is lock-free — an apply retries only because some
// other apply committed — but an individual process can starve; the
// wait-free help-all construction is wf_universal.hpp.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>

#include "core/any.hpp"
#include "core/mwllsc.hpp"

namespace mwllsc::apps {

/// Factory producing the multiword LL/SC variable a construction runs on:
/// (nprocs, words) -> facade. `core::MwLLSCFactory::make` has exactly this
/// shape, so the bench factory list (jp / am / retry / lock) plugs
/// straight in; the default is the paper's wait-free jp protocol.
using Substrate =
    std::function<std::unique_ptr<core::IMwLLSC>(std::uint32_t, std::uint32_t)>;

inline Substrate jp_substrate() {
  return [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<core::IMwLLSC> {
    return std::make_unique<core::MwLLSCAdapter<core::MwLLSC<llsc::Engine>>>(
        n, w);
  };
}

/// Sequential object of type T lifted to a linearizable concurrent object.
/// T must be trivially copyable: it is stored bytewise in the variable's
/// ceil(sizeof(T)/8) words. Each process id (0..N-1) must be driven by at
/// most one thread at a time, mirroring the LL/SC contract.
template <class T>
class UniversalObject {
  static_assert(std::is_trivially_copyable_v<T>,
                "state is stored bytewise in the LL/SC variable");

 public:
  static constexpr std::uint32_t kWords =
      static_cast<std::uint32_t>((sizeof(T) + 7) / 8);

  UniversalObject(std::uint32_t nprocs, const T& initial,
                  Substrate substrate = jp_substrate())
      : n_(nprocs), obj_(substrate(nprocs, kWords)), priv_(new Priv[nprocs]) {
    // Install the initial value; the constructor runs single-threaded, so
    // the first SC cannot be interfered with.
    Priv& p0 = priv_[0];
    obj_->ll(0, p0.scratch);
    std::memcpy(p0.scratch, &initial, sizeof(T));
    const bool ok = obj_->sc(0, p0.scratch);
    assert(ok);
    (void)ok;
  }

  /// Applies `mutate(state)` atomically. Lock-free: retries until this
  /// process's SC commits, so exactly one committed SC per apply.
  template <class F>
  void apply(std::uint32_t p, F&& mutate) {
    assert(p < n_);
    Priv& me = priv_[p];
    std::uint64_t attempts = 0;
    for (;;) {
      ++attempts;
      obj_->ll(p, me.scratch);
      T state;
      std::memcpy(&state, me.scratch, sizeof(T));
      mutate(state);
      std::memcpy(me.scratch, &state, sizeof(T));
      if (obj_->sc(p, me.scratch)) break;
    }
    me.attempts.store(me.attempts.load(std::memory_order_relaxed) + attempts,
                      std::memory_order_relaxed);
  }

  /// Reads the current state (one LL — an atomic snapshot).
  T read(std::uint32_t p) {
    assert(p < n_);
    obj_->ll(p, priv_[p].scratch);
    T state;
    std::memcpy(&state, priv_[p].scratch, sizeof(T));
    return state;
  }

  /// Total { LL; compute; SC } rounds across all applies so far. A hint:
  /// per-process cells are summed relaxed, so a concurrent reader may see
  /// a slightly stale total. attempts == applies iff there was no retry.
  std::uint64_t attempts_hint() const {
    std::uint64_t t = 0;
    for (std::uint32_t p = 0; p < n_; ++p)
      t += priv_[p].attempts.load(std::memory_order_relaxed);
    return t;
  }

  core::IMwLLSC& substrate() { return *obj_; }
  std::uint32_t procs() const { return n_; }

 private:
  struct alignas(64) Priv {
    std::uint64_t scratch[kWords];
    std::atomic<std::uint64_t> attempts{0};
  };

  std::uint32_t n_;
  std::unique_ptr<core::IMwLLSC> obj_;
  std::unique_ptr<Priv[]> priv_;
};

}  // namespace mwllsc::apps
