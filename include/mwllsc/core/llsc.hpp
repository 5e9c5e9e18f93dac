// Single-word LL/SC building block ("the hardware primitive"), and the one
// home of the word format every protocol word shares.
//
// Real hardware LL/SC is not exposed portably, so the engine emulates an
// N-process single-word LL/SC variable with a 64-bit CAS on a
// `buf(18) | tag(46)` word. The value is a buffer index (the multiword
// objects only install the index of the buffer holding the current value),
// and the tag advances on every successful SC, which makes SC failures
// semantic (an SC fails iff another SC succeeded since the caller's LL)
// and defeats ABA up to tag wrap-around. jp's retirement-ring cells use
// the same format.
//
// Envelope. Every bounded counter wraps modulo its width, identically in
// debug and release builds. Each is safe while no stall spans a cycle:
//
//   word          layout                 wraps    a stall is safe while
//   ------------  ---------------------  -------  ------------------------
//   X tag         buf(18) | tag(46)      2^46     an LL/VL/SC's link spans
//                                                 < 2^46 - P successful SCs
//   ring tag      buf(18) | tag(46)      2^46     a winner's X SC -> ring
//                                                 swap spans < 2^45 SCs
//   announce seq  state(2)|buf(18)|      2^44     a helper's probe -> mark
//                 seq(44)                         spans < 2^44 of the
//                                                 owner's announced LLs
//
// P is N rounded up to a power of two: aged validation reads drift mod
// 2^46, and the ring's lapped test is signed, hence half its range. At
// 10^9 successful SCs/s, 2^45 SCs take about ten hours. An unbounded
// envelope needs other machinery: Blelloch & Wei, "LL/SC and Atomic Copy"
// (PAPERS.md), give constant-time LL/SC from pointer-width CAS.
//
// Limits. jp uses N+R+1 buffers with R <= P, so N <= kMaxProcs = 2^16
// keeps every index below 2*2^16+1 < 2^18 - 1: the all-ones word (the
// kUnlinked link sentinel) is never installed. checked_nprocs, the first
// initializer of the engine and of every object, throws for a larger N in
// every build type.
//
// Per-process link state (the word observed at the last LL) is private to
// the linking process and padded to its own cache line.
//
// Shared-memory policy. The engine and the protocols built on it reach
// shared memory only through a policy's `Atomic<T>`. NativeMemory is plain
// std::atomic, so production code compiles exactly as if written against
// std::atomic directly; the simulator's policy (sim/memory.hpp) turns
// every load, store and CAS into a scheduling point.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace mwllsc {

/// The production shared-memory policy (see the header comment).
struct NativeMemory {
  template <class T>
  using Atomic = std::atomic<T>;
};

namespace sim {
/// Read-only view of a protocol object's shared and private state for the
/// simulator's invariant checker (sim/inspect.hpp); nothing else uses it.
template <class Object>
struct Inspector;
}  // namespace sim

namespace llsc {

// The descriptor word: buf(kBufBits) | tag(kTagBits).
inline constexpr unsigned kBufBits = 18;
inline constexpr unsigned kTagBits = 64 - kBufBits;
inline constexpr std::uint64_t kBufMask = (std::uint64_t{1} << kBufBits) - 1;
inline constexpr std::uint64_t kTagMask = (std::uint64_t{1} << kTagBits) - 1;
inline constexpr std::uint32_t kMaxProcs = std::uint32_t{1} << 16;
static_assert(2 * std::uint64_t{kMaxProcs} + 1 < kBufMask,
              "jp's N+R+1 buffer indices must stay below all-ones");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the engine needs a lock-free 64-bit CAS");

constexpr std::uint64_t pack(std::uint32_t buf, std::uint64_t tag) {
  return (tag << kBufBits) | (buf & kBufMask);
}
constexpr std::uint32_t buf_of(std::uint64_t w) {
  return static_cast<std::uint32_t>(w & kBufMask);
}
constexpr std::uint64_t tag_of(std::uint64_t w) { return w >> kBufBits; }

/// Returns nprocs, or throws std::invalid_argument if it is outside
/// [1, kMaxProcs]. Every object runs this as its first initializer.
inline std::uint32_t checked_nprocs(std::uint32_t nprocs) {
  if (nprocs < 1 || nprocs > kMaxProcs) {
    throw std::invalid_argument(
        "mwllsc: nprocs must be in [1, llsc::kMaxProcs = 65536]");
  }
  return nprocs;
}

template <class Mem = NativeMemory>
class BasicEngine {
  template <class T>
  using Atomic = typename Mem::template Atomic<T>;

 public:
  static constexpr unsigned kValueBits = kBufBits;

  /// `initial_tag` pre-ages the variable for wrap-boundary tests; normal
  /// construction starts the tag at 0. Throws std::invalid_argument if
  /// nprocs is outside [1, kMaxProcs].
  explicit BasicEngine(std::uint32_t nprocs, std::uint64_t initial = 0,
                       std::uint64_t initial_tag = 0)
      : links_(new Link[checked_nprocs(nprocs)]), n_(nprocs) {
    assert(initial < kBufMask && initial_tag <= kTagMask);
    cell_.w.store(pack(static_cast<std::uint32_t>(initial), initial_tag),
                  std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      links_[p].seen = kUnlinked;
    }
  }

  /// Load-linked: returns the current value and links p to it. A later
  /// sc/vl by p succeeds iff no successful SC (by anyone) intervened.
  std::uint64_t ll(std::uint32_t p) {
    const std::uint64_t w = cell_.w.load(std::memory_order_acquire);
    links_[p].seen = w;
    return buf_of(w);
  }

  /// Store-conditional: succeeds iff the variable still carries the exact
  /// (value, tag) pair p linked to; installs v with the next tag (mod
  /// 2^46, see the envelope table).
  bool sc(std::uint32_t p, std::uint64_t v) {
    std::uint64_t expected = links_[p].seen;
    links_[p].seen = kUnlinked;  // the link is consumed either way
    if (expected == kUnlinked) return false;
    assert(v < kBufMask);  // keeps the kUnlinked word uninstallable
    const std::uint64_t desired =
        pack(static_cast<std::uint32_t>(v), (tag_of(expected) + 1) & kTagMask);
    // mwllsc-ordering: seq_cst(the SC CAS is the protocol's linearization
    // point: every successful SC is globally ordered, which the announce
    // sweep and the tag arithmetic in core/mwllsc.hpp both assume)
    return cell_.w.compare_exchange_strong(expected, desired,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed);
  }

  /// Validate: true iff p's link is still current. Does not consume it.
  bool vl(std::uint32_t p) const {
    const std::uint64_t w = links_[p].seen;
    if (w == kUnlinked) return false;
    return cell_.w.load(std::memory_order_acquire) == w;
  }

  /// Unlinked read of the current value.
  std::uint64_t peek() const {
    return buf_of(cell_.w.load(std::memory_order_acquire));
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
  // The all-ones word: its buffer field is never installed (Limits above).
  static constexpr std::uint64_t kUnlinked = ~std::uint64_t{0};

  // A full line to itself: the CAS-hot variable must not share a cache
  // line with the read-mostly members (or the enclosing object's fields).
  struct alignas(64) Cell {
    Atomic<std::uint64_t> w;
  };
  struct alignas(64) Link {
    std::uint64_t seen;  // only process p reads/writes links_[p]
  };

  template <class>
  friend struct sim::Inspector;

  Cell cell_;
  std::unique_ptr<Link[]> links_;
  std::uint32_t n_;
};

using Engine = BasicEngine<>;
/// The engine's former name, still spelled by perfbench/.
using Dw128LLSC = Engine;

}  // namespace llsc
}  // namespace mwllsc
