// Managed multiword LL/SC: the protocol object plus a process lifecycle
// (DESIGN.md §10). Threads join() to obtain a Session — an RAII pid lease
// drawn from a SlotRegistry — and call ll/sc/vl through it; retire (or
// crash) returns the pid to the pool. The managed object owns the
// crash-reclaim policy: reclaim_scan() recycles the slots of holders that
// are certainly dead — they abandon()ed — and settles their announce-slot
// help obligations (core reclaim_pid) so the survivors' 4W+12 step bound is
// unaffected by the corpse. A holder that is merely quiet is never
// condemned: the registry's heartbeat staleness is a guess, and reclaim_pid
// rewrites the pid's private state, which a live holder still owns.
//
// Graceful degradation: when every slot is held, join() runs a bounded
// number of orphan-recycling retries and then falls over to a *degraded*
// session — a pid reserved at construction whose LL..SC window is
// serialized by a mutex. Degraded sessions keep the exact LL/SC/VL
// semantics (they run the same protocol object, so they linearize with
// everyone else on the one variable), but trade away the two properties
// the paper buys: they are not wait-free against each other, and a holder
// that crashes inside the LL..SC window wedges the degraded path (never
// the wait-free one). The jp protocol itself never blocks on the lock.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

#include "membership/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_safety.hpp"

namespace mwllsc::membership {

/// Point-in-time view of the lifecycle counters (mirrors the
/// mwllsc_membership_* metrics series).
struct MembershipSnapshot {
  std::uint64_t joins = 0;           ///< wait-free slot claims
  std::uint64_t degraded_joins = 0;  ///< joins that fell over to the lock
  std::uint64_t join_retries = 0;    ///< exhaustion retries (scan + re-claim)
  std::uint64_t retires = 0;         ///< clean releases
  std::uint64_t crash_reclaims = 0;  ///< dead holders' slots recycled
  std::uint64_t scans = 0;           ///< reclaim sweeps run
  std::uint32_t active = 0;          ///< slots currently held (approximate)
  std::uint32_t capacity = 0;        ///< slot pool size
};

/// The protocol object (any type with the MwLLSC member surface) wrapped
/// with join/retire/crash lifecycle. Constructed with `slots` concurrent
/// wait-free sessions over `words` words; pid `slots` is reserved for the
/// degraded path.
template <class Impl>
class ManagedMwLLSC {
 public:
  /// RAII pid lease. Move-only; destruction retires. ll/sc/vl mirror the
  /// protocol's contract. abandon() is the crash-stop seam: the session
  /// walks away without cleanup and the slot waits for reclaim_scan().
  class Session {
   public:
    Session() = default;
    Session(Session&& o) noexcept { *this = std::move(o); }
    Session& operator=(Session&& o) noexcept MWLLSC_NO_TSA {
      if (this != &o) {
        retire();
        parent_ = o.parent_;
        slot_ = std::move(o.slot_);
        degraded_ = o.degraded_;
        lock_held_ = o.lock_held_;
        o.parent_ = nullptr;
        o.lock_held_ = false;
      }
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { retire(); }

    bool valid() const { return parent_ != nullptr; }
    bool degraded() const { return degraded_; }
    std::uint32_t pid() const {
      return degraded_ ? parent_->reserved_pid() : slot_.id();
    }

    void ll(std::uint64_t* out) MWLLSC_NO_TSA {
      assert(valid());
      if (degraded_) {
        // The lock spans LL..SC so the reserved pid's link can't be
        // clobbered by another degraded session.
        if (!lock_held_) {
          parent_->degraded_mu_.lock();
          lock_held_ = true;
        }
        parent_->impl_.ll(parent_->reserved_pid(), out);
        return;
      }
      parent_->impl_.ll(slot_.id(), out);
    }

    bool sc(const std::uint64_t* in) MWLLSC_NO_TSA {
      assert(valid());
      if (degraded_) {
        if (!lock_held_) return false;  // SC without a prior LL: no link
        const bool ok = parent_->impl_.sc(parent_->reserved_pid(), in);
        lock_held_ = false;
        parent_->degraded_mu_.unlock();
        return ok;
      }
      return parent_->impl_.sc(slot_.id(), in);
    }

    bool vl() {
      assert(valid());
      if (degraded_) {
        return lock_held_ && parent_->impl_.vl(parent_->reserved_pid());
      }
      return parent_->impl_.vl(slot_.id());
    }

    /// Clean retirement. Returns false only if the slot was no longer this
    /// session's to release; reclaim_scan() never takes an ACTIVE slot, so
    /// with this layer's policy that does not happen.
    bool retire() MWLLSC_NO_TSA {
      if (!parent_) return true;
      ManagedMwLLSC* p = parent_;
      parent_ = nullptr;
      if (degraded_) {
        if (!lock_held_) p->degraded_mu_.lock();
        p->trace_.emit(obs::EventKind::kProcRetire, p->reserved_pid(), 0, 1);
        p->degraded_mu_.unlock();
        lock_held_ = false;
        p->c_.retires.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      const std::uint32_t id = slot_.id();
      const std::uint64_t gen = slot_.generation();
      // Emit before release: after the release CAS the pid may instantly
      // be claimed by another thread, and pid streams are single-writer.
      p->trace_.emit(obs::EventKind::kProcRetire, id, gen);
      const bool ok = slot_.release();
      p->c_.retires.fetch_add(1, std::memory_order_relaxed);
      return ok;
    }

    /// Crash-stop seam: walk away mid-whatever. A wait-free session's slot
    /// goes ORPHANED for the reclaimer; a degraded session releases the
    /// lock (a *real* crash inside the degraded window would wedge the
    /// degraded path — that is the documented cost of degradation, and
    /// simulating it would just deadlock the test).
    void abandon() MWLLSC_NO_TSA {
      if (!parent_) return;
      ManagedMwLLSC* p = parent_;
      parent_ = nullptr;
      if (degraded_) {
        if (lock_held_) {
          p->degraded_mu_.unlock();
          lock_held_ = false;
        }
        return;
      }
      slot_.abandon();
    }

   private:
    friend class ManagedMwLLSC;
    Session(ManagedMwLLSC* parent, ProcessSlot slot)
        : parent_(parent), slot_(std::move(slot)) {}
    explicit Session(ManagedMwLLSC* parent)
        : parent_(parent), degraded_(true) {}

    ManagedMwLLSC* parent_ = nullptr;
    ProcessSlot slot_;
    bool degraded_ = false;
    bool lock_held_ = false;
  };

  ManagedMwLLSC(std::uint32_t slots, std::uint32_t words,
                std::uint32_t join_retries = 2)
      : slots_(slots),
        join_retries_(join_retries),
        impl_(slots + 1, words),
        reg_(slots) {
    assert(slots >= 1);
  }

  /// Acquires a session. Wait-free while slots are available (one bounded
  /// claim pass). Under exhaustion: up to `join_retries` rounds of
  /// orphan-recycling scans, then the degraded lock-serialized session.
  /// Never fails, never blocks.
  Session join() {
    for (std::uint32_t attempt = 0;; ++attempt) {
      const std::uint32_t s = reg_.try_acquire();
      if (s != SlotRegistry::kNone) {
        // Sync the pid's private protocol state with however the previous
        // incarnation left the announce word (retired or reclaimed).
        impl_.rebind_pid(s);
        c_.joins.fetch_add(1, std::memory_order_relaxed);
        trace_.emit(obs::EventKind::kProcJoin, s, reg_.generation(s), 0);
        return Session(this, ProcessSlot(&reg_, s));
      }
      if (attempt >= join_retries_) break;
      c_.join_retries.fetch_add(1, std::memory_order_relaxed);
      reclaim_scan();
    }
    c_.degraded_joins.fetch_add(1, std::memory_order_relaxed);
    {
      // Serialize the emit: degraded sessions share the reserved pid's
      // trace stream, which is single-writer by contract.
      util::MutexLock g(degraded_mu_);
      trace_.emit(obs::EventKind::kProcJoin, reserved_pid(), 0, 1);
    }
    return Session(this);
  }

  /// Reclaim sweep over ORPHANED slots only (SlotRegistry::scan with
  /// include_stale=false). For every abandoned holder this settles the
  /// pid's obligations (core reclaim_pid) before the slot can be
  /// re-claimed, so a new holder inherits a quiescent pid and survivors'
  /// help bookkeeping stays exact. Heartbeat-stale ACTIVE slots are left
  /// alone: reclaim_pid's precondition is a holder that takes no further
  /// steps, and staleness cannot establish that. Safe to call at any time
  /// and from any thread.
  std::uint32_t reclaim_scan() {
    c_.scans.fetch_add(1, std::memory_order_relaxed);
    return reg_.scan(
        [this](std::uint32_t s) {
          // Safe to touch pid s here: the holder abandon()ed the slot (its
          // acq_rel CAS publishes every private write of its last op to
          // this scanner's acq_rel RECLAIMING CAS) and no new holder can
          // claim it until the scan frees it — the pid stays single-writer.
          impl_.reclaim_pid(s);
          c_.crash_reclaims.fetch_add(1, std::memory_order_relaxed);
        },
        /*include_stale=*/false);
  }

  std::uint32_t words() const { return impl_.words(); }
  std::uint32_t slots() const { return slots_; }
  std::uint32_t reserved_pid() const { return slots_; }

  core::OpStatsSnapshot stats() const { return impl_.stats(); }

  util::Footprint footprint() const {
    util::Footprint f = impl_.footprint();
    f.add("membership slot registry (slots x 1 line)", reg_.slot_bytes());
    return f;
  }

  MembershipSnapshot membership() const {
    MembershipSnapshot s;
    s.joins = c_.joins.load(std::memory_order_relaxed);
    s.degraded_joins = c_.degraded_joins.load(std::memory_order_relaxed);
    s.join_retries = c_.join_retries.load(std::memory_order_relaxed);
    s.retires = c_.retires.load(std::memory_order_relaxed);
    s.crash_reclaims = c_.crash_reclaims.load(std::memory_order_relaxed);
    s.scans = c_.scans.load(std::memory_order_relaxed);
    s.active = reg_.active();
    s.capacity = reg_.capacity();
    return s;
  }

  /// Publishes the lifecycle counters as mwllsc_membership_* series.
  void export_metrics(obs::MetricsRegistry& m,
                      const std::string& labels) const {
    using obs::MetricsRegistry;
    const MembershipSnapshot s = membership();
    m.set_counter(MetricsRegistry::labeled("mwllsc_membership_joins_total",
                                           labels),
                  s.joins);
    m.set_counter(MetricsRegistry::labeled(
                      "mwllsc_membership_degraded_joins_total", labels),
                  s.degraded_joins);
    m.set_counter(MetricsRegistry::labeled(
                      "mwllsc_membership_join_retries_total", labels),
                  s.join_retries);
    m.set_counter(MetricsRegistry::labeled("mwllsc_membership_retires_total",
                                           labels),
                  s.retires);
    m.set_counter(MetricsRegistry::labeled(
                      "mwllsc_membership_crash_reclaims_total", labels),
                  s.crash_reclaims);
    m.set_counter(MetricsRegistry::labeled("mwllsc_membership_scans_total",
                                           labels),
                  s.scans);
    m.set_gauge(MetricsRegistry::labeled("mwllsc_membership_active", labels),
                static_cast<double>(s.active));
    m.set_gauge(MetricsRegistry::labeled("mwllsc_membership_capacity",
                                         labels),
                static_cast<double>(s.capacity));
  }

  /// Binds both the lifecycle events and the protocol's own events to the
  /// same sink under the same variable id.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    impl_.set_trace(sink, var);
  }

  Impl& impl() { return impl_; }
  SlotRegistry& registry() { return reg_; }

 private:
  /// Lifecycle counters, one line so the hot protocol state never false-
  /// shares with bookkeeping (alignas satisfies the R5 padding rule for
  /// every member).
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> joins{0};
    std::atomic<std::uint64_t> degraded_joins{0};
    std::atomic<std::uint64_t> join_retries{0};
    std::atomic<std::uint64_t> retires{0};
    std::atomic<std::uint64_t> crash_reclaims{0};
    std::atomic<std::uint64_t> scans{0};
  };

  const std::uint32_t slots_;
  const std::uint32_t join_retries_;
  Impl impl_;
  SlotRegistry reg_;
  util::Mutex degraded_mu_;  ///< spans a degraded session's LL..SC window
  Counters c_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::membership
