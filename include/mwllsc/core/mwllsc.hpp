// The paper's wait-free N-process W-word LL/SC variable, built from a
// single-word LL/SC building block (core/llsc.hpp) — full protocol: LL
// completes in at most 4W+12 memory accesses regardless of N (Theorem 1's
// O(W) bound), SC in O(W), VL in O(1), with O(NW) shared space.
//
// Layout. The W-word value always lives in one of N+R+1 buffers, where
// R = max(2, P) and P is N rounded up to a power of two. Process p owns one
// private *spare*: it writes its next SC value there, offers it through its
// announce slot, and copies into it when it helps. R buffers rest in the
// global *retirement ring*; the remaining buffer is current. The buffers
// are the rows of a core::RowPool (core/rows.hpp: two to a cache line when
// W <= 4, no row straddling a line); the R ring words and the N announce
// words are packed eight to a line. The 1-word LL/SC variable X holds the
// current buffer's index; its sequence tag is the abstract version: tag
// T's value is whatever the T-th successful SC installed. Every tag
// comparison is taken mod 2^46 (the envelope table in core/llsc.hpp), so
// the object runs across a tag wrap unchanged.
//
// Fast path with aged validation. LL(p) first links X (tag T, buffer b),
// copies b, then re-reads X's tag, announcing nothing: the snapshot is
// accepted if the tag advanced by AT MOST P. This is safe because retired
// buffers pass through the ring and are only reused once at least R >= P
// further SCs have succeeded: a buffer current at tag T is not rewritten
// until the global tag exceeds T+P (a writer lapped in the ring keeps the
// same bound), and any rewrite concurrent with the copy forces the
// validation to observe drift > P and reject. None of this involves the
// announce, so a passing first attempt is final — no announce store, no
// withdraw CAS. A snapshot accepted with drift in [1, P] is still exactly
// version T's value and linearizes at the link; only drift 0 leaves the
// SC link intact (link_valid). Asking for help only after a cheap attempt
// fails is the fast-path/slow-path method (Brown's thesis, PAPERS.md).
//
// Slow path. If the first attempt sees drift > P, LL announces under its
// seq (offering its spare) and runs the paper's announced attempt: link,
// copy, aged validation again, then withdraw the announce.
// The seq moves on as the LL finishes, so stale donations keyed to this
// announce fail.
//
// Help path, pre-SC. If the announced attempt's validation fails (drift
// >= P+1), at least P successful SCs linked X *after* p's announce — the
// slow path announces before it links. The winner installing tag U probes
// announce slot U mod P before its SC, so those P consecutive winners
// sweep every slot including p's; a prober that finds p WAITING copies the
// current buffer into its own spare, re-validates its link (strict: the
// copy is untorn and the value is current at an instant inside p's LL —
// the prober wins its SC, so its link held throughout), and CASes A[p]
// from the exact WAITING word to <HELPED, copy, seq>, taking p's offered
// spare in return; only then does it write its own SC value, into the
// spare it now holds. Because the mark lands before the helper's SC
// installs, it is complete before p's validation can fail — so a failed
// validation finds HELPED already posted, and LL finishes by copying the
// donated buffer. Worst case: failed first attempt (link 1 + copy W +
// validate 1) + announce (1) + link (1) + copy (W) + validate (1) + check
// A[p] (1) + donated copy (W) = (W+2) + (2W+4) = 3W+6 <= 4W+12 accesses,
// with no retry loop at all. (A defensive retry remains for robustness;
// tests assert it never fires.)
//
// Retirement ring. A successful SC retires the previously-current buffer
// into ring cell (T+1) mod R — <buf, tag T+1> — taking the cell's old
// buffer (aged by >= R-1 intervening SCs) as its new spare. Writers that
// stall so long they get lapped (the cell's tag moved ahead of theirs)
// keep their own retiree, which the lapping itself aged. All tags in a
// cell are congruent mod R, the CAS retries at most N times (each failure
// is a distinct slower winner resolving), and exactly one ring resolution
// — the "bank write" of invariant I2 — happens per successful SC.
//
// Linearization. An LL that returns its own copy linearizes at the X link
// of the attempt that passed; a helped LL at the donor's help-validation
// instant (inside p's LL window). A helped or drifted LL returns with its
// link broken: VL reports false and SC fails in O(1), which is
// semantically exact — a successful SC intervened.
//
// Crash-stop. A process that stops takes no further steps; survivors stay
// within 4W+12 whatever it left behind, since helping a stopped process is
// indistinguishable from helping a slow one. A pid is reissued only at an
// op boundary (membership layer, DESIGN.md §10), where nothing is owed: the
// slow LL has withdrawn or consumed its announce, and the SC has run its
// ring swap. Priv::retire_tag marks the window between the X SC and the
// ring swap, during which the retiree is provisionally the writer's spare.
//
// Memory ordering. Buffer words are relaxed atomics; both the reader copy
// and the helper copy are validated seqlock-style (acquire fence before
// the tag re-check / link re-validation); donated contents are published
// by the helper's seq_cst mark CAS and need no reader-side validation —
// ownership transfer makes the buffer private to the reader. ABA on the
// announce word is bounded by the 44-bit seq; ring tags carry 46 bits.
// Word formats and their envelopes are defined once, in core/llsc.hpp.
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

namespace mwllsc::core {

template <class LLSC, class Mem = NativeMemory>
class MwLLSC {
  template <class T>
  using Atomic = typename Mem::template Atomic<T>;

 public:
  /// Theorem 1's LL step bound: no LL takes more than 4W+12 shared-memory
  /// accesses, independent of N. The implementation's worst case is 3W+6:
  /// a failed unannounced attempt (W+2) then a rescued announced one
  /// (2W+4).
  static constexpr std::uint32_t ll_step_bound(std::uint32_t /*n*/,
                                               std::uint32_t w) {
    return 4 * w + 12;
  }

  MwLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(llsc::checked_nprocs(nprocs)),
        p2_(next_pow2(nprocs)),
        ring_size_(p2_ < 2 ? 2 : p2_),
        nbufs_(nprocs + ring_size_ + 1),
        rows_(nbufs_, words),
        x_(nprocs, nprocs + ring_size_),
        ring_(std::make_unique<Line<Mem>[]>(lines_for(ring_size_))),
        announce_(std::make_unique<Line<Mem>[]>(lines_for(nprocs))),
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    // make_unique value-initializes every line, so all words start at zero
    // (every announce word is IDLE). Buffer N+R is current (all-zero
    // initial value); process p owns spare p; ring cell j seeds buffer N+j
    // with the cell's last tag in [T0-R, T0), T0 being X's initial tag:
    // already "aged" for the first real lap.
    for (std::uint32_t p = 0; p < n_; ++p) priv_[p].spare = p;
    const std::uint64_t t0 = x_.current_tag();
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      const std::uint64_t seed_tag =
          (t0 - ring_size_ + ((j - t0) & (ring_size_ - 1))) & llsc::kTagMask;
      ring_cell(j).store(llsc::pack(n_ + j, seed_tag),
                         std::memory_order_relaxed);
    }
  }

  // The trace decision is made once per op: the untraced bodies carry no
  // trace code at all (obs/trace.hpp). Both stay out of line, so ll and sc
  // are one test and a tail call, and callers inline no protocol code.
  void ll(std::uint32_t p, std::uint64_t* out) {
    if (__builtin_expect(trace_.bound(), 0)) return ll_op<true>(p, out);
    ll_op<false>(p, out);
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    if (__builtin_expect(trace_.bound(), 0)) return sc_op<true>(p, v);
    return sc_op<false>(p, v);
  }

 private:
  template <bool kTraced>
  [[gnu::noinline]] void ll_op(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    trace_.emit<kTraced>(obs::EventKind::kLlStart, p, me.seq);
    // Fast attempt, unannounced. Aged validation never relied on the
    // announce, so a pass is final: no announce store, no withdraw CAS.
    std::uint32_t b;
    std::uint64_t t0;
    std::uint64_t drift = link_and_copy(p, out, &b, &t0);
    if (drift > p2_) {
      // More than P SCs landed during the attempt: ask for help. Announce,
      // offering our spare to a prospective helper, then run the
      // paper's announced attempt. The word carries me.seq, which moves on
      // only when this LL finishes: a non-IDLE word carrying me.seq is
      // exactly the announce in flight.
      c.bump(c.ll_slow);
      // mwllsc-ordering: seq_cst(this store and the winners' pre-SC probes
      // of A[(T+1) mod P] share one total order, so a winner that misses
      // the announce must have linked before it — bounding drift at P tags)
      slot(p).store(pack_a(kWaiting, me.spare, me.seq),
                    std::memory_order_seq_cst);
      trace_.emit<kTraced>(obs::EventKind::kLlSlow, p, me.seq);
      while ((drift = link_and_copy(p, out, &b, &t0)) > p2_) {
        // Drift >= P+1: the P winners that linked after our announce swept
        // every announce slot pre-SC, so a donation is already posted.
        // mwllsc-ordering: seq_cst(this load sits in the same total order
        // as the announce store and the winners' probes — the sweep
        // argument only holds inside that order)
        const std::uint64_t a = slot(p).load(std::memory_order_seq_cst);
        if (state_of_a(a) == kHelped && seq_of_a(a) == me.seq) {
          // Return the donated snapshot. We own the buffer now, as our new
          // spare; no validation needed.
          const std::uint32_t d = buf_of_a(a);
          rows_.copy_out(d, out);
          me.spare = d;
          me.link_valid = false;  // a successful SC already intervened
          c.bump(c.ll_helped);
          c.bump(c.ll_used_helped_value);
          c.bump(c.ll_ops);
          trace_.emit<kTraced>(obs::EventKind::kLlRescue, p, me.seq, d);
          me.seq = next_seq(me.seq);
          return;
        }
        // Unreachable if the help guarantee holds (tests assert this
        // counter stays zero); kept as a defensive retry.
        c.bump(c.ll_retries);
        trace_.emit<kTraced>(obs::EventKind::kLlRetry, p, me.seq);
      }
      // Aged validation passed: withdraw the announce. The withdraw races
      // a winner's donation CAS on this slot; the total order picks
      // exactly one side of the ownership exchange.
      // mwllsc-ordering: seq_cst(withdraw vs donation CAS, one winner)
      std::uint64_t expect = pack_a(kWaiting, me.spare, me.seq);
      if (!slot(p).compare_exchange_strong(
              expect, pack_a(kIdle, me.spare, me.seq),
              std::memory_order_seq_cst)) {
        // Only a donation to this announce moves the word. The validated
        // value stands; adopt the donated buffer as our new spare — the
        // donor took the one we offered.
        assert(state_of_a(expect) == kHelped && seq_of_a(expect) == me.seq);
        me.spare = buf_of_a(expect);
        c.bump(c.ll_helped);
        trace_.emit<kTraced>(obs::EventKind::kLlHelped, p, me.seq, me.spare);
      }
      me.seq = next_seq(me.seq);
    }
    // The copy is an untorn snapshot of version t0, linearized at the link.
    me.ll_buf = b;
    // Any drift already broke the link.
    me.link_valid = drift == 0;
    c.bump(c.ll_ops);
    trace_.emit<kTraced>(obs::EventKind::kLlFast, p, t0, b);
  }

  template <bool kTraced>
  [[gnu::noinline]] bool sc_op(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit<kTraced>(obs::EventKind::kScAttempt, p, me.seq,
                         me.link_valid ? 1 : 0);
    if (!me.link_valid) {               // helped/drifted LL or no LL: O(1)
      trace_.emit<kTraced>(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    me.link_valid = false;             // the link is consumed either way
    const std::uint64_t t = x_.linked_tag(p);
    // Probe the help schedule *before* the SC: the winner of tag T+1
    // reads A[(T+1) mod P] (P a power of two — mask, no division), so
    // consecutive winners sweep all slots after any announce.
    const std::uint32_t target =
        static_cast<std::uint32_t>(t + 1) & (p2_ - 1);
    if (target != p && target < n_) {
      // The probe pairs with the announce store in the single total
      // order: a probe after the announce cannot miss kWaiting.
      // mwllsc-ordering: seq_cst(probe half of the announce handshake)
      const std::uint64_t seen =
          slot(target).load(std::memory_order_seq_cst);
      if (state_of_a(seen) == kWaiting) {
        // Pre-SC help: copy the (still linked) current buffer into our
        // spare, re-validate the link seqlock-style — if it holds, the
        // copy is an untorn snapshot of version T taken after the target
        // announced — and donate it by marking A[target].
        rows_.copy_row(me.ll_buf, me.spare);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (x_.vl(p)) {
          // The donation must precede our SC of tag T+1 in the total
          // order, and it races the owner's withdraw CAS on the same
          // slot; exactly one wins.
          // mwllsc-ordering: seq_cst(donation before SC; races withdraw)
          std::uint64_t expect = seen;
          if (slot(target).compare_exchange_strong(
                  expect, pack_a(kHelped, me.spare, seq_of_a(seen)),
                  std::memory_order_seq_cst)) {
            me.spare = buf_of_a(seen);  // ownership exchange, O(1)
            c.bump(c.helps_given);
            trace_.emit<kTraced>(obs::EventKind::kHelpInstall, p,
                                 seq_of_a(seen), target);
          }
        }
      }
    }
    // Only now write the new value: the spare may have just been swapped
    // for the target's offered buffer, or hold a help copy.
    rows_.copy_in(me.spare, v);
    std::atomic_thread_fence(std::memory_order_release);
    if (!x_.sc(p, me.spare)) {
      trace_.emit<kTraced>(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    c.bump(c.sc_success);
    const std::uint64_t mytag = (t + 1) & llsc::kTagMask;
    trace_.emit<kTraced>(obs::EventKind::kScCommit, p, mytag);
    // The previously-current buffer is ours until the ring swap resolves:
    // provisionally the spare, with the bank write marked pending (the I1
    // census and I2 read it while a winner is stopped before its swap).
    me.spare = me.ll_buf;
    me.retire_tag = mytag;
    retire<kTraced>(p, me);
    return true;
  }

 public:
  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    return x_.vl(p);  // O(1), independent of W
  }

  /// Alias of rebind_pid, kept for wrappers that forward it: an abandoned
  /// pid stopped at an op boundary, so it owes nothing.
  bool reclaim_pid(std::uint32_t p) { rebind_pid(p); return false; }

  /// Reissues pid p to a new owner after its previous one retired or
  /// abandoned it, both at an op boundary: no ring swap is pending and no
  /// announce is in flight. The private mirror is authoritative — spare is
  /// the buffer the previous owner actually held (the slot word can still
  /// name one it donated away as a helper) — so the new owner only starts
  /// with its link broken. Must not run concurrently with any operation by
  /// a previous owner of p; the membership layer guarantees this by only
  /// reissuing slots whose holder released or abandoned them.
  void rebind_pid(std::uint32_t p) {
    assert(p < n_);
    Priv& me = priv_[p];
    assert(me.retire_tag == kNoRetire);
    assert(!in_flight(slot(p).load(std::memory_order_relaxed), me.seq));
    me.link_valid = false;
  }

  std::uint32_t words() const { return rows_.words(); }

  OpStatsSnapshot stats() const { return stats_.snapshot(); }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers ((N+R+1) rows, two per line if W <= 4)",
          rows_.bytes());
    f.add("retirement ring (R words, packed)",
          lines_for(ring_size_) * sizeof(Line<Mem>));
    f.add("announce words (N, packed)", lines_for(n_) * sizeof(Line<Mem>));
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

  /// Binds this variable to a trace sink (obs/trace.hpp); self-describes
  /// with the "jp" substrate prefix the offline checker keys its 4W+12 /
  /// zero-retry rules on. A null sink unbinds.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, rows_.words(), "jp");
  }

 private:
  // Announce slot word: state(2) | buf(18) | seq(44).
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kWaiting = 1;
  static constexpr std::uint64_t kHelped = 2;

  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 44) - 1;

  static std::uint64_t pack_a(std::uint64_t state, std::uint32_t buf,
                              std::uint64_t seq) {
    return (seq << 20) | (static_cast<std::uint64_t>(buf) << 2) | state;
  }
  static std::uint64_t state_of_a(std::uint64_t a) { return a & 3; }
  static std::uint32_t buf_of_a(std::uint64_t a) {
    return llsc::buf_of(a >> 2);
  }
  static std::uint64_t seq_of_a(std::uint64_t a) { return a >> 20; }
  static std::uint64_t next_seq(std::uint64_t seq) {
    return (seq + 1) & kSeqMask;  // the announce word holds 44 bits
  }
  /// Whether announce word a is the announce of an LL still in flight: the
  /// owner's seq moves on when its slow LL finishes, so only that LL
  /// leaves a non-IDLE word carrying the owner's current seq.
  static bool in_flight(std::uint64_t a, std::uint64_t seq) {
    return state_of_a(a) != kIdle && seq_of_a(a) == seq;
  }

  static std::uint32_t next_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  static constexpr std::uint64_t kNoRetire = ~std::uint64_t{0};

  // Touched only by the owning process.
  struct alignas(64) Priv {
    std::uint32_t spare = 0;  ///< the one private buffer (see Layout)
    std::uint32_t ll_buf = 0;
    std::uint64_t seq = 0;
    std::uint64_t retire_tag = kNoRetire;  ///< pending bank write's tag
    bool link_valid = false;
  };

  Atomic<std::uint64_t>& ring_cell(std::uint32_t j) const {
    return ring_[j / 8].w[j % 8];
  }
  Atomic<std::uint64_t>& slot(std::uint32_t p) const {
    return announce_[p / 8].w[p % 8];
  }

  /// One LL attempt: link X, copy its buffer, re-read X's tag (W+2
  /// accesses). Returns the drift; the copy is version *t0's value iff the
  /// drift is at most P (aged validation).
  std::uint64_t link_and_copy(std::uint32_t p, std::uint64_t* out,
                              std::uint32_t* b, std::uint64_t* t0) {
    *b = static_cast<std::uint32_t>(x_.ll(p));
    *t0 = x_.linked_tag(p);
    rows_.copy_out(*b, out);
    std::atomic_thread_fence(std::memory_order_acquire);
    return (x_.current_tag() - *t0) & llsc::kTagMask;
  }

  /// The bank write: retires me.ll_buf through the aged ring cell of
  /// me.retire_tag (I2: exactly one resolution per successful SC), taking
  /// the cell's aged buffer as the new spare. Run by the SC's winner.
  template <bool kTraced>
  void retire(std::uint32_t p, Priv& me) {
    const std::uint32_t retired = me.ll_buf;
    const std::uint64_t mytag = me.retire_tag;
    Atomic<std::uint64_t>& cell =
        ring_cell(static_cast<std::uint32_t>(mytag) & (ring_size_ - 1));
    for (;;) {
      const std::uint64_t rw = cell.load(std::memory_order_acquire);
      const std::uint64_t d = (mytag - llsc::tag_of(rw)) & llsc::kTagMask;
      // All tags in a cell are congruent mod R, so d is a multiple of R:
      // d >= R with the high bits clear means the cell is genuinely
      // behind us — swap our retiree in and take the aged buffer out.
      // Otherwise we were lapped: the cell moved past our tag while we
      // stalled, so the retiree has already aged >= R tags and stays the
      // spare.
      if (d < ring_size_ || (d >> (llsc::kTagBits - 1))) break;
      // The ring swap is the bank-write resolution: exactly one winner
      // per tag retires into the cell, which is what keeps invariant
      // I2 and the aging bound R.
      // mwllsc-ordering: seq_cst(one retiree per tag resolves the cell)
      std::uint64_t expect = rw;
      if (cell.compare_exchange_strong(expect, llsc::pack(retired, mytag),
                                       std::memory_order_seq_cst)) {
        me.spare = llsc::buf_of(rw);
        break;
      }
      // Lost to another winner resolving this cell; re-read (bounded:
      // each failure is a distinct winner with a smaller tag).
    }
    me.retire_tag = kNoRetire;
    auto& c = stats_.at(p);
    c.bump(c.bank_writes);
    trace_.emit<kTraced>(obs::EventKind::kBufferRetire, p, mytag, retired);
    trace_.emit<kTraced>(obs::EventKind::kBankWrite, p, mytag, retired);
  }

  const std::uint32_t n_;
  const std::uint32_t p2_;        ///< N rounded up to a power of two (P)
  const std::uint32_t ring_size_; ///< R = max(2, P), a power of two
  const std::uint32_t nbufs_;
  // The N+R+1 value rows (core/rows.hpp). Declared ahead of x_, so the
  // pool's fields share the object's first line with the counts above.
  RowPool<Mem> rows_;
  LLSC x_;
  // The R ring words share ceil(R/8) lines. Packing them costs little:
  // only SC winners write them, one resolution per tag.
  std::unique_ptr<Line<Mem>[]> ring_;  ///< X's format: buf(18) | tag(46)
  // The N announce words share ceil(N/8) lines. Only slow-path LLs, their
  // withdraws and donations write them; fast-path LLs never do.
  std::unique_ptr<Line<Mem>[]> announce_;
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;

  template <class>
  friend struct sim::Inspector;
};

}  // namespace mwllsc::core
