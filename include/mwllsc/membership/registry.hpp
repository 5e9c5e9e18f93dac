// Wait-free process registration for the multiword LL/SC protocol
// (DESIGN.md §10). The core protocol is pid-indexed and fixed-N; this
// layer turns the fixed pid range into a pool real threads check slots out
// of and back into, so "N processes" becomes "at most N *concurrent*
// sessions" drawn from an unbounded thread population.
//
// Each slot is one cache line: a generation-tagged word — state(2) |
// generation(62) — and the slot's lifecycle counters. The lifecycle is a
// three-state machine, every transition bumping the generation so a slot
// handle from one incarnation can never act on a later one:
//
//     FREE --claim--> ACTIVE --release--> FREE
//                       \--abandon--> ORPHANED --sweep--> FREE
//                                         \--adopt--> ACTIVE (the joiner's)
//
// Claiming is one pass of at most `capacity` CASes (wait-free) that takes
// the first FREE or ORPHANED slot. The pass starts at the calling thread's
// own index, fixed for its lifetime, so a thread that leases again finds
// its previous slot first and the pid's private lines stay on its core.
// Release and abandon are one CAS each. None touches any other shared line.
//
// abandon() is the only death verdict: the holder itself marks its slot
// ORPHANED at an op boundary and takes no further steps. It owes nothing
// then (core rebind_pid), so adopting or sweeping an orphan is one CAS with
// no cleanup, and the survivors' 4W+12 bound never depended on it.
//
// Counters: each slot's joins, retires and crash_reclaims are written only
// by the slot's current holder (the claimer, the holder before its release
// or abandon CAS) with a relaxed load + store; the acq_rel slot CASes
// order one holder's writes before the next one's. counts() sums them.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

namespace mwllsc::membership {

/// Increments a counter that has one writer at a time (a slot's holder, or
/// whoever holds the degraded lock): a relaxed load + store, the idiom of
/// util::OpStatsCell::bump, not a locked RMW.
inline void bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Lifecycle counters summed over a registry's slots.
struct SlotCounts {
  std::uint64_t joins = 0;           ///< claims (FREE or adopted ORPHANED)
  std::uint64_t retires = 0;         ///< clean releases
  std::uint64_t crash_reclaims = 0;  ///< abandons (each orphan counted once)
};

class SlotRegistry {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kActive = 1;
  static constexpr std::uint64_t kOrphaned = 2;

  explicit SlotRegistry(std::uint32_t capacity)
      : cap_(capacity), slots_(new Slot[capacity]) {
    assert(capacity >= 1);
  }

  std::uint32_t capacity() const { return cap_; }

  /// Shared bytes the slot array occupies (for footprint accounting).
  std::size_t slot_bytes() const { return cap_ * sizeof(Slot); }

  /// One pass of claim attempts from this thread's start index: takes the
  /// first FREE slot, or adopts the first ORPHANED one. Returns the slot id
  /// or kNone — at most `capacity` CASes, no retry loop per slot (a lost
  /// race just moves on; the caller owns the retry policy).
  std::uint32_t try_acquire() {
    std::uint32_t s = thread_ordinal() % cap_;
    for (std::uint32_t i = 0; i < cap_; ++i, s = s + 1 == cap_ ? 0 : s + 1) {
      Slot& slot = slots_[s];
      std::uint64_t w = slot.word.load(std::memory_order_relaxed);
      // Acquire pairs with the release, abandon or sweep that left the slot
      // claimable: the new holder sees the previous incarnation's writes.
      if ((state_of(w) != kFree && state_of(w) != kOrphaned) ||
          !slot.word.compare_exchange_strong(
              w, pack(kActive, gen_of(w) + 1), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        continue;
      }
      bump(slot.joins);
      return s;
    }
    return kNone;
  }

  /// Releases a held slot. Returns false, counting nothing, if `gen` is not
  /// the slot's current ACTIVE incarnation (a second release of one lease).
  bool release(std::uint32_t s, std::uint64_t gen) {
    Slot& slot = slots_[s];
    std::uint64_t w = pack(kActive, gen);
    if (slot.word.load(std::memory_order_relaxed) != w) return false;
    // Only the holder moves an ACTIVE slot, so the slot is still ours:
    // count before the CAS, after which the next holder owns the counters.
    bump(slot.retires);
    return slot.word.compare_exchange_strong(w, pack(kFree, gen + 1),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed);
  }

  /// Cooperative crash simulation: the holder walks away at an op
  /// boundary without cleaning up, leaving the slot for an adopting joiner
  /// or scan(). Returns false, counting nothing, if `gen` is not the slot's
  /// current ACTIVE incarnation (a second abandon, or one after a release).
  bool abandon(std::uint32_t s, std::uint64_t gen) {
    Slot& slot = slots_[s];
    std::uint64_t w = pack(kActive, gen);
    if (slot.word.load(std::memory_order_relaxed) != w) return false;
    bump(slot.crash_reclaims);  // still ours: count before the CAS
    return slot.word.compare_exchange_strong(w, pack(kOrphaned, gen + 1),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed);
  }

  std::uint64_t generation(std::uint32_t s) const {
    return gen_of(slots_[s].word.load(std::memory_order_relaxed));
  }

  std::uint64_t state(std::uint32_t s) const {
    return state_of(slots_[s].word.load(std::memory_order_relaxed));
  }

  /// Approximate count of held slots (a metrics gauge, not a decision
  /// input — it races with claims and releases by design).
  std::uint32_t active() const {
    std::uint32_t n = 0;
    for (std::uint32_t s = 0; s < cap_; ++s) {
      const std::uint64_t st =
          state_of(slots_[s].word.load(std::memory_order_relaxed));
      if (st == kActive || st == kOrphaned) ++n;
    }
    return n;
  }

  /// Counters summed over the slots (racy against live holders, like
  /// active(); exact once they are quiescent).
  SlotCounts counts() const {
    SlotCounts c;
    for (std::uint32_t s = 0; s < cap_; ++s) {
      c.joins += slots_[s].joins.load(std::memory_order_relaxed);
      c.retires += slots_[s].retires.load(std::memory_order_relaxed);
      c.crash_reclaims +=
          slots_[s].crash_reclaims.load(std::memory_order_relaxed);
    }
    return c;
  }

  /// Lock-free sweep: frees every ORPHANED slot that no joiner adopts
  /// first, one CAS each. Returns slots freed.
  std::uint32_t scan() {
    std::uint32_t freed = 0;
    for (std::uint32_t s = 0; s < cap_; ++s) {
      std::uint64_t w = slots_[s].word.load(std::memory_order_relaxed);
      // Acq_rel: one sweeper wins, and it passes the dead holder's writes
      // on to the next claimant's acquire CAS.
      if (state_of(w) == kOrphaned &&
          slots_[s].word.compare_exchange_strong(
              w, pack(kFree, gen_of(w) + 1), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        ++freed;
      }
    }
    return freed;
  }

 private:
  static std::uint64_t pack(std::uint64_t state, std::uint64_t gen) {
    return (gen << 2) | state;
  }
  static std::uint64_t state_of(std::uint64_t w) { return w & 3; }
  static std::uint64_t gen_of(std::uint64_t w) { return w >> 2; }

  /// The calling thread's claim-pass start, drawn once per thread from a
  /// process-wide counter; consecutive threads start on distinct slots.
  static std::uint32_t thread_ordinal() {
    // mwllsc-pad: exempt(process-wide thread counter, bumped once per
    // thread at its first join; nothing hot shares its line)
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal;
  }

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> word{pack(kFree, 0)};
    std::atomic<std::uint64_t> joins{0};
    std::atomic<std::uint64_t> retires{0};
    std::atomic<std::uint64_t> crash_reclaims{0};
  };

  const std::uint32_t cap_;
  std::unique_ptr<Slot[]> slots_;
};

/// RAII slot guard: releases the slot on destruction. Move-only; the test
/// and bench seam abandon() turns the guard into a simulated crash (the
/// slot is left ORPHANED for the next joiner or scan, and the destructor
/// does nothing).
class ProcessSlot {
 public:
  ProcessSlot() = default;
  ProcessSlot(SlotRegistry* reg, std::uint32_t slot)
      : reg_(reg), slot_(slot), gen_(reg->generation(slot)) {}

  ProcessSlot(ProcessSlot&& o) noexcept { *this = std::move(o); }
  ProcessSlot& operator=(ProcessSlot&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = o.reg_;
      slot_ = o.slot_;
      gen_ = o.gen_;
      o.reg_ = nullptr;
      o.slot_ = SlotRegistry::kNone;
    }
    return *this;
  }
  ProcessSlot(const ProcessSlot&) = delete;
  ProcessSlot& operator=(const ProcessSlot&) = delete;

  ~ProcessSlot() { release(); }

  bool valid() const { return reg_ != nullptr; }
  std::uint32_t id() const { return slot_; }
  std::uint64_t generation() const { return gen_; }

  /// Returns false if the lease was no longer this guard's to release; the
  /// holder must not reuse the pid either way.
  bool release() {
    if (!reg_) return true;
    const bool ok = reg_->release(slot_, gen_);
    reg_ = nullptr;
    slot_ = SlotRegistry::kNone;
    return ok;
  }

  /// Simulated crash: walk away without releasing.
  void abandon() {
    if (!reg_) return;
    reg_->abandon(slot_, gen_);
    reg_ = nullptr;
    slot_ = SlotRegistry::kNone;
  }

 private:
  SlotRegistry* reg_ = nullptr;
  std::uint32_t slot_ = SlotRegistry::kNone;
  std::uint64_t gen_ = 0;
};

}  // namespace mwllsc::membership
