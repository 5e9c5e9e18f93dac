// Single-word LL/SC building blocks ("the hardware primitive").
//
// Real hardware LL/SC is not exposed portably, so both engines emulate an
// N-process single-word LL/SC variable with CAS on a (value, sequence-tag)
// pair; the tag advances on every successful SC, which makes SC failures
// semantic (an SC fails iff another SC succeeded since the caller's LL) and
// defeats ABA up to tag wrap-around:
//
//   * Dw128LLSC   — 128-bit CAS (x86 cmpxchg16b via libatomic): full 64-bit
//                   values and a 64-bit tag, i.e. no practical ABA bound.
//   * Packed64LLSC — single 64-bit CAS holding a 32-bit value and a 32-bit
//                   tag: cheaper hardware op, wraps after 2^32 SCs. The
//                   ablation engine.
//
// Operating envelope (tag wrap). The ABA guarantee holds for at most
// kMaxTag = 2^kTagBits - 1 successful SCs per variable; past that the tag
// wraps to 0 and a process parked across the full wrap cycle could see a
// stale link validate ("spurious" SC/VL success). For Dw128LLSC that is
// 2^64 SCs — over 580 years at 10^9 SCs/s, no practical bound. For
// Packed64LLSC it is 2^32 SCs — minutes under saturation — so Packed64 is
// an ablation/short-run engine: long-running deployments must either use
// Dw128LLSC or retire/reconstruct the variable (epoch reset) before the
// tag budget is spent. One word inside the envelope is also reserved: the
// all-ones (value == kValueMask, tag == kMaxTag) packed word is the
// kUnlinked sentinel, and installing it would make the next LL silently
// drop its link (spurious SC/VL failure). Debug builds assert on both the
// wrap and the sentinel; release builds degrade silently (tag arithmetic
// is masked to kTagBits, so behavior stays defined — only the LL/SC
// guarantees lapse). The `initial_tag` constructor parameter exists so
// tests can exercise the boundary without 2^32 warm-up SCs.
//
// Per-process link state (the word observed at the last LL) is private to
// the linking process and padded to its own cache line.
//
// Shared-memory policy. The engine and the protocols built on it reach
// shared memory only through a policy's `Atomic<T>` (and, for the am
// baseline's handoff rows, `Plain<T>`). NativeMemory is plain std::atomic
// and plain words, so production code compiles exactly as if written
// against std::atomic directly; the simulator's policy (sim/memory.hpp)
// turns every load, store and CAS into a scheduling point.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mwllsc {

/// The production shared-memory policy (see the header comment).
struct NativeMemory {
  template <class T>
  using Atomic = std::atomic<T>;
  template <class T>
  using Plain = T;
};

namespace sim {
/// Read-only view of a protocol object's shared and private state for the
/// simulator's invariant checker (sim/inspect.hpp); nothing else uses it.
template <class Object>
struct Inspector;
}  // namespace sim

namespace llsc {

namespace detail {

/// Shared implementation: Word is the CAS granule, split into the low
/// kValueBits of value and the remaining high bits of sequence tag.
template <typename Word, unsigned kValueBitsParam, class Mem = NativeMemory>
class SeqTagLLSC {
  template <class T>
  using Atomic = typename Mem::template Atomic<T>;

 public:
  static constexpr unsigned kValueBits = kValueBitsParam;
  static constexpr unsigned kTagBits = sizeof(Word) * 8 - kValueBitsParam;
  /// Largest tag value: the engine's ABA budget is kMaxTag successful SCs
  /// (see the operating-envelope note in the header comment).
  static constexpr std::uint64_t kMaxTag =
      kTagBits >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << kTagBits) - 1;

  /// `initial_tag` pre-ages the variable for wrap-boundary tests; normal
  /// construction starts the tag at 0.
  explicit SeqTagLLSC(std::uint32_t nprocs, std::uint64_t initial = 0,
                      std::uint64_t initial_tag = 0)
      : links_(new Link[nprocs]), n_(nprocs) {
    assert(nprocs >= 1);
    assert(initial_tag <= kMaxTag);
    // All-ones is the kUnlinked sentinel; starting there is pathological
    // (it needs both the maximum tag and the maximum value).
    assert(pack(initial, initial_tag) != kUnlinked);
    cell_.w.store(pack(initial, initial_tag), std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      links_[p].seen = kUnlinked;
    }
  }

  /// Load-linked: returns the current value and links p to it. A later
  /// sc/vl by p succeeds iff no successful SC (by anyone) intervened.
  std::uint64_t ll(std::uint32_t p) {
    const Word w = cell_.w.load(std::memory_order_acquire);
    links_[p].seen = w;
    return value_of(w);
  }

  /// Store-conditional: succeeds iff the variable still carries the exact
  /// (value, tag) pair p linked to; installs v with the next tag.
  bool sc(std::uint32_t p, std::uint64_t v) {
    Word expected = links_[p].seen;
    links_[p].seen = kUnlinked;  // the link is consumed either way
    if (expected == kUnlinked) return false;
    // Wrap detection: installing past kMaxTag re-enables ABA (operating
    // envelope in the header comment). Masked so release builds stay
    // defined; debug builds refuse to cross silently.
    const std::uint64_t next_tag = (tag_of(expected) + 1) & kMaxTag;
    assert(next_tag != 0 &&
           "SeqTagLLSC tag wrapped: ABA budget exhausted — use Dw128LLSC "
           "or epoch-reset the variable (see llsc.hpp operating envelope)");
    const Word desired = pack(v, next_tag);
    // The all-ones word is the kUnlinked sentinel: installing it would
    // make the next LL record "no link" and fail spuriously.
    assert(desired != kUnlinked &&
           "SeqTagLLSC would install the kUnlinked sentinel (all-ones "
           "value at the maximum tag — see llsc.hpp operating envelope)");
    // mwllsc-ordering: seq_cst(the SC CAS is the protocol's linearization
    // point: every successful SC is globally ordered, which the announce
    // sweep and the tag arithmetic in core/mwllsc.hpp both assume)
    return cell_.w.compare_exchange_strong(expected, desired,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed);
  }

  /// Validate: true iff p's link is still current. Does not consume it.
  bool vl(std::uint32_t p) const {
    const Word w = links_[p].seen;
    if (w == kUnlinked) return false;
    return cell_.w.load(std::memory_order_acquire) == w;
  }

  /// Unlinked read of the current value.
  std::uint64_t peek() const {
    return value_of(cell_.w.load(std::memory_order_acquire));
  }

  /// Tag of the word p linked to (for deterministic help scheduling).
  std::uint64_t linked_tag(std::uint32_t p) const {
    return tag_of(links_[p].seen);
  }

  std::uint64_t current_tag() const {
    return tag_of(cell_.w.load(std::memory_order_acquire));
  }

  std::size_t shared_bytes() const { return sizeof(Cell); }
  std::size_t private_bytes() const { return n_ * sizeof(Link); }

 private:
  static constexpr Word kValueMask =
      kValueBitsParam == sizeof(Word) * 8
          ? static_cast<Word>(~Word{0})
          : (Word{1} << kValueBitsParam) - 1;
  // All-ones is unreachable: the tag would have to hit its maximum, which
  // takes 2^kTagBits successful SCs.
  static constexpr Word kUnlinked = static_cast<Word>(~Word{0});

  static Word pack(std::uint64_t v, std::uint64_t tag) {
    assert((static_cast<Word>(v) & ~kValueMask) == 0);
    return (static_cast<Word>(tag) << kValueBitsParam) |
           (static_cast<Word>(v) & kValueMask);
  }
  static std::uint64_t value_of(Word w) {
    return static_cast<std::uint64_t>(w & kValueMask);
  }
  static std::uint64_t tag_of(Word w) {
    return static_cast<std::uint64_t>(w >> kValueBitsParam);
  }

  // A full line to itself: the CAS-hot variable must not share a cache
  // line with the read-mostly members (or the enclosing object's fields).
  struct alignas(64) Cell {
    Atomic<Word> w;
  };
  struct alignas(64) Link {
    Word seen;  // only process p reads/writes links_[p]
  };

  template <class>
  friend struct sim::Inspector;

  Cell cell_;
  std::unique_ptr<Link[]> links_;
  std::uint32_t n_;
};

}  // namespace detail

using Dw128LLSC = detail::SeqTagLLSC<unsigned __int128, 64>;
using Packed64LLSC = detail::SeqTagLLSC<std::uint64_t, 32>;

}  // namespace llsc
}  // namespace mwllsc
