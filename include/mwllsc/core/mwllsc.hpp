// The paper's wait-free N-process W-word LL/SC variable, built from a
// single-word LL/SC building block (core/llsc.hpp) — full protocol: LL
// completes in at most 4W+12 memory accesses regardless of N (Theorem 1's
// O(W) bound), SC in O(W), VL in O(1), with O(NW) shared space.
//
// Layout. The W-word value always lives in one of 2N+R+1 buffers, where
// R = max(2, P) and P is N rounded up to a power of two. Process p owns a
// *spare* it writes its next SC value into and an *exchange* buffer it
// offers through its announce slot (and reuses as help-copy scratch). R
// buffers rest in the global *retirement ring*; the remaining buffer is
// current. The 1-word LL/SC variable X holds the current buffer's index;
// its sequence tag is the abstract version: tag T's value is whatever the
// T-th successful SC installed. Every tag comparison is taken mod 2^46
// (the envelope table in core/llsc.hpp), so the object runs across a tag
// wrap unchanged.
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
// Slow path. If the first attempt sees drift > P, LL bumps its seq,
// announces (offering its exchange buffer) and runs the paper's announced
// attempt: link, copy, aged validation again, then withdraw the announce.
//
// Help path, pre-SC. If the announced attempt's validation fails (drift
// >= P+1), at least P successful SCs linked X *after* p's announce — the
// slow path announces before it links. The winner installing tag U probes
// announce slot U mod P before its SC, so those P consecutive winners
// sweep every slot including p's; a prober that finds p WAITING copies the
// current buffer into its own exchange buffer, re-validates its link
// (strict: the copy is untorn and the value is current at an instant
// inside p's LL — the prober wins its SC, so its link held throughout),
// and CASes A[p] from the exact WAITING word to <HELPED, copy, seq>,
// taking p's offered exchange buffer in return. Because the mark lands
// before the helper's SC installs, it is complete before p's validation
// can fail — so a failed validation finds HELPED already posted, and LL
// finishes by copying the donated buffer. Worst case: failed first
// attempt (link 1 + copy W + validate 1) + announce (1) + link (1) + copy
// (W) + validate (1) + check A[p] (1) + donated copy (W) = (W+2) + (2W+4)
// = 3W+6 <= 4W+12 accesses, with no retry loop at all. (A defensive retry
// remains for robustness; tests assert it never fires.)
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
// Crash-stop reclamation (reclaim_pid, DESIGN.md §10). A process that died
// at a step boundary (the fast attempt writes nothing shared, so only the
// slow path and SC matter) may leave three obligations: a posted announce
// (withdrawn), an unconsumed donation (adopted into its exchange side), and
// a successful SC whose ring swap never ran (settled on its behalf).
// Priv::announced marks the LL window in which the slot word, not xbuf,
// names the exchange buffer; Priv::retire_tag marks the window between the
// X SC and the ring swap, during which the retiree is provisionally the
// writer's spare.
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
        w_(words),
        p2_(next_pow2(nprocs)),
        ring_size_(p2_ < 2 ? 2 : p2_),
        nbufs_(2 * nprocs + ring_size_ + 1),
        stride_((words + 7) & ~7u),
        x_(nprocs, 2 * nprocs + ring_size_),
        raw_buf_(new Atomic<std::uint64_t>[
            static_cast<std::size_t>(2 * nprocs + ring_size_ + 1) *
                ((words + 7) & ~7u) + 7]),
        ring_(new RingCell[ring_size_]),
        announce_(new AnnounceSlot[nprocs]),
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    assert(words >= 1);
    // Align buffer row 0 to a cache line so the stride padding isolates
    // rows from each other (the false-sharing fix E2/E3 measure).
    auto addr = reinterpret_cast<std::uintptr_t>(raw_buf_.get());
    buf0_ = raw_buf_.get() + ((64 - (addr & 63)) & 63) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < static_cast<std::size_t>(nbufs_) * stride_;
         ++i) {
      buf0_[i].store(0, std::memory_order_relaxed);
    }
    // Buffer 2N+R is current (all-zero initial value); process p owns
    // spare p and exchange buffer N+p; ring cell j seeds buffer 2N+j with
    // the cell's last tag in [T0-R, T0), T0 being X's initial tag: already
    // "aged" for the first real lap.
    for (std::uint32_t p = 0; p < n_; ++p) {
      priv_[p].spare = p;
      priv_[p].xbuf = n_ + p;
      announce_[p].a.store(pack_a(kIdle, n_ + p, 0),
                           std::memory_order_relaxed);
    }
    const std::uint64_t t0 = x_.current_tag();
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      const std::uint64_t seed_tag =
          (t0 - ring_size_ + ((j - t0) & (ring_size_ - 1))) & llsc::kTagMask;
      ring_[j].w.store(llsc::pack(2 * n_ + j, seed_tag),
                       std::memory_order_relaxed);
    }
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    trace_.emit(obs::EventKind::kLlStart, p, me.seq);
    // Fast attempt, unannounced. Aged validation never relied on the
    // announce, so a pass is final: no announce store, no withdraw CAS.
    std::uint32_t b;
    std::uint64_t t0;
    std::uint64_t drift = link_and_copy(p, out, &b, &t0);
    bool reclaimed = false;
    if (drift > p2_) {
      // More than P SCs landed during the attempt: ask for help. Announce,
      // offering our exchange buffer to a prospective helper, then run the
      // paper's announced attempt.
      c.bump(c.ll_slow);
      me.seq = (me.seq + 1) & kSeqMask;  // the announce word holds 44 bits
      me.announced = true;
      // mwllsc-ordering: seq_cst(this store and the winners' pre-SC probes
      // of A[(T+1) mod P] share one total order, so a winner that misses
      // the announce must have linked before it — bounding drift at P tags)
      announce_[p].a.store(pack_a(kWaiting, me.xbuf, me.seq),
                           std::memory_order_seq_cst);
      trace_.emit(obs::EventKind::kLlSlow, p, me.seq);
      while ((drift = link_and_copy(p, out, &b, &t0)) > p2_) {
        // Drift >= P+1: the P winners that linked after our announce swept
        // every announce slot pre-SC, so a donation is already posted.
        // mwllsc-ordering: seq_cst(this load sits in the same total order
        // as the announce store and the winners' probes — the sweep
        // argument only holds inside that order)
        const std::uint64_t a = announce_[p].a.load(std::memory_order_seq_cst);
        if (state_of_a(a) == kHelped && seq_of_a(a) == me.seq) {
          // Return the donated snapshot. We own the buffer now; no
          // validation needed.
          const std::uint32_t d = buf_of_a(a);
          copy_out(d, out);
          me.xbuf = d;
          me.announced = false;
          me.link_valid = false;  // a successful SC already intervened
          c.bump(c.ll_helped);
          c.bump(c.ll_used_helped_value);
          c.bump(c.ll_ops);
          trace_.emit(obs::EventKind::kLlRescue, p, me.seq, d);
          return;
        }
        // Unreachable if the help guarantee holds (tests assert this
        // counter stays zero); kept as a defensive retry.
        c.bump(c.ll_retries);
        trace_.emit(obs::EventKind::kLlRetry, p, me.seq);
      }
      // Aged validation passed: withdraw the announce. The withdraw races
      // a winner's donation CAS on this slot; the total order picks
      // exactly one side of the ownership exchange.
      // mwllsc-ordering: seq_cst(withdraw vs donation CAS, one winner)
      std::uint64_t expect = pack_a(kWaiting, me.xbuf, me.seq);
      if (!announce_[p].a.compare_exchange_strong(
              expect, pack_a(kIdle, me.xbuf, me.seq),
              std::memory_order_seq_cst)) {
        if (state_of_a(expect) == kHelped && seq_of_a(expect) == me.seq) {
          // A donation raced in. The validated value stands; adopt the
          // donated buffer as our new exchange buffer — the donor took the
          // one we offered.
          me.xbuf = buf_of_a(expect);
          c.bump(c.ll_helped);
          trace_.emit(obs::EventKind::kLlHelped, p, me.seq,
                      buf_of_a(expect));
        } else {
          // The word no longer carries our seq: a crash-stop reclaim
          // (reclaim_pid) judged this process dead and withdrew the
          // announce out from under it. The value is still an untorn
          // snapshot, but the slot — and the exchange buffer folded into
          // its word — belong to the reclaimer now, so the only safe exit
          // is to break the link and finish this op. Reached only when a
          // reclaimed process is resurrected under test control; a
          // genuinely dead process never gets here.
          reclaimed = true;
        }
      }
      me.announced = false;
    }
    // The copy is an untorn snapshot of version t0, linearized at the link.
    me.ll_buf = b;
    // Any drift already broke the link; so does a raced reclaim.
    me.link_valid = drift == 0 && !reclaimed;
    c.bump(c.ll_ops);
    trace_.emit(obs::EventKind::kLlFast, p, t0, b);
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p, me.seq,
                me.link_valid ? 1 : 0);
    if (!me.link_valid) {               // helped/drifted LL or no LL: O(1)
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    me.link_valid = false;             // the link is consumed either way
    // Write the new value into our spare buffer.
    copy_in(me.spare, v);
    std::atomic_thread_fence(std::memory_order_release);
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
          announce_[target].a.load(std::memory_order_seq_cst);
      if (state_of_a(seen) == kWaiting) {
        // Pre-SC help: copy the (still linked) current buffer into our
        // exchange buffer, re-validate the link seqlock-style — if it
        // holds, the copy is an untorn snapshot of version T taken after
        // the target announced — and donate it by marking A[target].
        copy_buf(me.ll_buf, me.xbuf);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (x_.vl(p)) {
          // The donation must precede our SC of tag T+1 in the total
          // order, and it races the owner's withdraw CAS on the same
          // slot; exactly one wins.
          // mwllsc-ordering: seq_cst(donation before SC; races withdraw)
          std::uint64_t expect = seen;
          if (announce_[target].a.compare_exchange_strong(
                  expect, pack_a(kHelped, me.xbuf, seq_of_a(seen)),
                  std::memory_order_seq_cst)) {
            me.xbuf = buf_of_a(seen);  // ownership exchange, O(1)
            c.bump(c.helps_given);
            trace_.emit(obs::EventKind::kHelpInstall, p, seq_of_a(seen),
                        target);
          }
        }
      }
    }
    if (!x_.sc(p, me.spare)) {
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    c.bump(c.sc_success);
    const std::uint64_t mytag = (t + 1) & llsc::kTagMask;
    trace_.emit(obs::EventKind::kScCommit, p, mytag);
    // The previously-current buffer is ours until the ring swap resolves:
    // provisionally the spare, with the bank write marked pending so a
    // reclaimer can finish it if we die before the swap.
    me.spare = me.ll_buf;
    me.retire_tag = mytag;
    retire(p, me);
    return true;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    return x_.vl(p);  // O(1), independent of W
  }

  /// Crash-stop slot reclamation (membership layer, DESIGN.md §10).
  /// Settles every obligation a dead process left behind so its pid can
  /// be reissued with the ownership census exact:
  ///  - a successful SC whose ring swap never ran is retired now (I2: its
  ///    one bank write still happens exactly once);
  ///  - a posted WAITING announce is withdrawn, so winners stop donating
  ///    into a slot nobody reads;
  ///  - an unconsumed donation is adopted: the donor took the offered
  ///    exchange buffer, so the donated one becomes the pid's xbuf.
  /// The slot word is rewritten IDLE with the next seq, which fences it
  /// against stale donation CASes keyed to the dead LL. The pid is
  /// reissued only after rebind_pid. Returns true if an obligation was
  /// actually settled.
  ///
  /// Precondition: p is certainly dead — it takes no further steps, and
  /// its private state is the one it left at a step boundary (a shared
  /// access together with the private bookkeeping that records its
  /// result), published to the caller. The membership layer calls this
  /// only for holders that abandon()ed, i.e. stopped at an op boundary;
  /// the simulator crashes processes at step boundaries. A process that
  /// could stop between its X SC and the bookkeeping after it is outside
  /// this contract: once X moves on, whether that SC landed cannot be
  /// read back from shared memory.
  bool reclaim_pid(std::uint32_t p) {
    assert(p < n_);
    Priv& me = priv_[p];
    const bool retiring = me.retire_tag != kNoRetire;
    if (retiring) retire(p, me);
    // mwllsc-ordering: seq_cst(the withdraw-by-proxy races a winner's
    // donation CAS on this slot exactly like the owner's withdraw does;
    // the single total order picks one side of the ownership exchange)
    std::uint64_t a = announce_[p].a.load(std::memory_order_seq_cst);
    std::uint32_t xbuf;
    for (;;) {
      // Only a donation to the LL in flight is unconsumed; a HELPED word
      // from an earlier LL is stale, and xbuf is authoritative then.
      const bool donated = me.announced && state_of_a(a) == kHelped &&
                           seq_of_a(a) == me.seq;
      xbuf = donated ? buf_of_a(a) : me.xbuf;
      const std::uint64_t next =
          pack_a(kIdle, xbuf, (seq_of_a(a) + 1) & kSeqMask);
      // mwllsc-ordering: seq_cst(same handshake as the load above: one
      // winner between this withdraw-by-proxy and a racing donation)
      if (announce_[p].a.compare_exchange_weak(a, next,
                                               std::memory_order_seq_cst)) {
        break;
      }
      // Lost to a donation landing on the dead WAITING word; the reloaded
      // word is HELPED and the next lap adopts it (at most one extra lap:
      // donations require WAITING, which the word never is again).
    }
    const bool announced = me.announced;
    me.xbuf = xbuf;
    me.seq = (seq_of_a(a) + 1) & kSeqMask;
    me.announced = false;
    me.link_valid = false;
    trace_.emit(obs::EventKind::kProcCrashReclaim, p, seq_of_a(a));
    return retiring || announced;
  }

  /// Reissues pid p to a new owner after reclaim_pid or a graceful
  /// retirement. The private mirror is authoritative — xbuf is the
  /// exchange buffer the previous owner actually held (the slot word can
  /// still name one it donated away as a helper) — so the new owner only
  /// starts with its link broken. Must not run concurrently with any
  /// operation by a previous owner of p; the membership layer guarantees
  /// this by only reissuing slots whose holder retired or was reclaimed.
  void rebind_pid(std::uint32_t p) {
    assert(p < n_);
    assert(!priv_[p].announced && priv_[p].retire_tag == kNoRetire);
    priv_[p].link_valid = false;
  }

  std::uint32_t words() const { return w_; }

  OpStatsSnapshot stats() const { return stats_.snapshot(); }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers ((2N+R+1) x W words, rows line-padded)",
          static_cast<std::size_t>(nbufs_) * stride_ * sizeof(std::uint64_t) +
              64);  // + alignment slack
    f.add("retirement ring (R cells)", ring_size_ * sizeof(RingCell));
    f.add("announce/help slots (N)", n_ * sizeof(AnnounceSlot));
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

  /// Binds this variable to a trace sink (obs/trace.hpp); self-describes
  /// with the "jp" substrate prefix the offline checker keys its 4W+12 /
  /// zero-retry rules on. No-op when MWLLSC_TRACE is off.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, w_, "jp");
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

  static std::uint32_t next_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  struct alignas(64) AnnounceSlot {
    Atomic<std::uint64_t> a;
  };

  struct alignas(64) RingCell {
    Atomic<std::uint64_t> w;  ///< X's format: buf(18) | tag(46)
  };

  static constexpr std::uint64_t kNoRetire = ~std::uint64_t{0};

  // Touched only by the owning process (and by reclaim_pid once it died).
  struct alignas(64) Priv {
    std::uint32_t spare = 0;
    std::uint32_t xbuf = 0;
    std::uint32_t ll_buf = 0;
    std::uint64_t seq = 0;
    std::uint64_t retire_tag = kNoRetire;  ///< pending bank write's tag
    bool link_valid = false;
    bool announced = false;  ///< in LL: the slot word names the exchange side
  };

  Atomic<std::uint64_t>* buf_row(std::uint32_t b) const {
    return buf0_ + static_cast<std::size_t>(b) * stride_;
  }

  void copy_out(std::uint32_t b, std::uint64_t* out) const {
    const Atomic<std::uint64_t>* row = buf_row(b);
    for (std::uint32_t i = 0; i < w_; ++i) {
      out[i] = row[i].load(std::memory_order_relaxed);
    }
  }

  /// One LL attempt: link X, copy its buffer, re-read X's tag (W+2
  /// accesses). Returns the drift; the copy is version *t0's value iff the
  /// drift is at most P (aged validation).
  std::uint64_t link_and_copy(std::uint32_t p, std::uint64_t* out,
                              std::uint32_t* b, std::uint64_t* t0) {
    *b = static_cast<std::uint32_t>(x_.ll(p));
    *t0 = x_.linked_tag(p);
    copy_out(*b, out);
    std::atomic_thread_fence(std::memory_order_acquire);
    return (x_.current_tag() - *t0) & llsc::kTagMask;
  }

  void copy_in(std::uint32_t b, const std::uint64_t* v) {
    Atomic<std::uint64_t>* row = buf_row(b);
    for (std::uint32_t i = 0; i < w_; ++i) {
      row[i].store(v[i], std::memory_order_relaxed);
    }
  }

  void copy_buf(std::uint32_t from, std::uint32_t to) {
    const Atomic<std::uint64_t>* src = buf_row(from);
    Atomic<std::uint64_t>* dst = buf_row(to);
    for (std::uint32_t i = 0; i < w_; ++i) {
      dst[i].store(src[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
  }

  /// The bank write: retires me.ll_buf through the aged ring cell of
  /// me.retire_tag (I2: exactly one resolution per successful SC), taking
  /// the cell's aged buffer as the new spare. Run by the SC's winner, or
  /// by reclaim_pid for a winner that died before its swap.
  void retire(std::uint32_t p, Priv& me) {
    const std::uint32_t retired = me.ll_buf;
    const std::uint64_t mytag = me.retire_tag;
    RingCell& cell =
        ring_[static_cast<std::uint32_t>(mytag) & (ring_size_ - 1)];
    for (;;) {
      const std::uint64_t rw = cell.w.load(std::memory_order_acquire);
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
      if (cell.w.compare_exchange_strong(expect, llsc::pack(retired, mytag),
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
    trace_.emit(obs::EventKind::kBufferRetire, p, mytag, retired);
    trace_.emit(obs::EventKind::kBankWrite, p, mytag, retired);
  }

  const std::uint32_t n_;
  const std::uint32_t w_;
  const std::uint32_t p2_;        ///< N rounded up to a power of two (P)
  const std::uint32_t ring_size_; ///< R = max(2, P), a power of two
  const std::uint32_t nbufs_;
  const std::uint32_t stride_;    ///< buffer row pitch, words (line-padded)
  LLSC x_;
  std::unique_ptr<Atomic<std::uint64_t>[]> raw_buf_;
  Atomic<std::uint64_t>* buf0_ = nullptr;  ///< 64B-aligned row 0
  std::unique_ptr<RingCell[]> ring_;
  std::unique_ptr<AnnounceSlot[]> announce_;
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;

  template <class>
  friend struct sim::Inspector;
};

}  // namespace mwllsc::core
