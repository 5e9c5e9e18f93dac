// Invariant checkers for the simulation harness.
//
// A checker is constructed from the workload it watches; the harness calls
// on_step after every step, crash, reclaim and rebind, on_op after every
// completed operation, and on_rebind when a pid is reissued. ok() turns
// false, with error() explaining, the first time anything is violated. The
// checkers read the shipped object through sim::Inspector (never through
// ghost state), so what they verify is the code that ships:
//
//   * NullChecker    accepts everything (pure measurement runs);
//   * OracleChecker  the sequential-spec linearizability oracle, for any
//     simulated object. Every SC writes a value unique to (pid, round), so
//     the version history (X's tag -> the current buffer's contents,
//     recorded the step each version appears) identifies the version an
//     LL read: the index of its returned value. Then
//       - every LL returns a value that was the variable's state at some
//         version inside the op's invocation/response window;
//       - an SC succeeds iff no successful SC intervened since its LL's
//         version (the Brown–Ellen–Ruppert "pragmatic primitives"
//         contract: failures are semantic, never spurious), and a
//         successful SC's value is the next version's; VL mirrors SC;
//   * JpChecker      the oracle plus the paper's structural invariants on
//     the jp object:
//       I1      every buffer has exactly one owner: the object (current),
//               one process (its private buffer), or one retirement-ring
//               cell;
//       I2      exactly one bank write (the ring retirement) per
//               successful SC, counting the pending ones;
//       4W+12   no LL exceeds Theorem 1's step bound and the defensive
//               retry arm never fires (stats().ll_retries == 0).
//
// Crash-stop schedules need no weakening of any check: a frozen process
// must leave the census and the bank-write equation exact (its buffers stay
// owned, its in-flight retirement stays pending), and the bound and the
// oracle keep applying to every op the *live* processes complete — which
// is precisely the wait-freedom claim under crashes: nobody who keeps
// taking steps is ever blocked by one that stopped.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/harness.hpp"
#include "sim/inspect.hpp"

namespace mwllsc::sim {

/// Checker that checks nothing: for runs that only measure step counts.
struct NullChecker {
  NullChecker() = default;
  template <class Workload>
  explicit NullChecker(const Workload&) {}
  template <class Workload>
  void on_step(const Workload&) {}
  template <class Workload>
  void on_op(const Workload&, const OpRecord&) {}
  template <class Workload>
  void on_rebind(const Workload&, std::uint32_t) {}
  bool ok() const { return true; }
  const std::string& error() const {
    static const std::string kEmpty;
    return kEmpty;
  }
};

template <class Object>
class OracleChecker {
 public:
  explicit OracleChecker(const SimWorkload<Object>& wl)
      : lin_(wl.n(), kNone) {
    record(wl);
  }

  void on_step(const SimWorkload<Object>& wl) {
    if (failed_) return;
    ++step_count_;
    record(wl);
  }

  void on_op(const SimWorkload<Object>&, const OpRecord& rec) {
    if (failed_) return;
    std::uint64_t& lin = lin_[rec.pid];
    switch (rec.type) {
      case OpType::kLl: {
        const std::uint64_t v = version_of(rec.value);
        if (v == kNone) {
          return fail("LL(p%u) returned a value that was never the "
                      "variable's state",
                      rec.pid);
        }
        if (v < rec.start_version || v > rec.end_version) {
          return fail("LL(p%u) returned version %llu's value, outside its "
                      "window [%llu, %llu]",
                      rec.pid, ull(v), ull(rec.start_version),
                      ull(rec.end_version));
        }
        lin = v;
        break;
      }
      case OpType::kSc: {
        if (rec.success) {
          const std::uint64_t u = version_of(rec.value);
          if (lin == kNone || !rec.had_link || u == kNone || u != lin + 1 ||
              u <= rec.start_version || u > rec.end_version) {
            return fail("SC(p%u) succeeded but its value is not version "
                        "LL+1 (LL version %llu, installed %llu, window "
                        "[%llu, %llu])",
                        rec.pid, ull(lin), ull(u), ull(rec.start_version),
                        ull(rec.end_version));
          }
        } else if (rec.had_link && lin != kNone &&
                   rec.end_version == lin) {
          return fail("SC(p%u) failed but no SC succeeded since its LL "
                      "(version %llu) — SC failures must be semantic, "
                      "never spurious",
                      rec.pid, ull(lin));
        }
        lin = kNone;  // the link is consumed either way
        break;
      }
      case OpType::kVl: {
        // True means X still held the LL's version at the VL's read, so
        // no SC can have landed before the VL began; false with a link
        // needs an SC to have landed by the time it returned.
        const bool linked = rec.had_link && lin != kNone;
        if (rec.success ? !(linked && rec.start_version == lin)
                        : linked && rec.end_version == lin) {
          return fail("VL(p%u) returned %d with LL version %llu, window "
                      "[%llu, %llu], had_link=%d",
                      rec.pid, rec.success ? 1 : 0, ull(lin),
                      ull(rec.start_version), ull(rec.end_version),
                      rec.had_link ? 1 : 0);
        }
        break;
      }
    }
  }

  /// A reissued pid has no link: its next SC/VL must fail.
  void on_rebind(const SimWorkload<Object>&, std::uint32_t p) {
    lin_[p] = kNone;
  }

  bool ok() const { return !failed_; }
  const std::string& error() const { return error_; }

 protected:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  static unsigned long long ull(std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  }

  template <typename... Args>
  void fail(const char* fmt, Args... args) {
    if (failed_) return;
    char buf[320];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    failed_ = true;
    error_ = buf;
  }

  std::uint64_t step_count_ = 0;

 private:
  // Tracks the abstract state: one step applies at most one successful SC,
  // whose value is the new current buffer's content (a buffer cannot be
  // rewritten while current, so reading it now is exact).
  void record(const SimWorkload<Object>& wl) {
    const std::uint64_t v = wl.version();
    if (v == versions_) {
      auto ins = index_.emplace(Inspector<Object>::current_value(wl.object()),
                                v);
      if (!ins.second) {
        return fail("version %llu installed a value already seen at "
                    "version %llu",
                    ull(v), ull(ins.first->second));
      }
      ++versions_;
    } else if (v + 1 != versions_) {
      fail("abstract version jumped: version=%llu, %llu recorded", ull(v),
           ull(versions_));
    }
  }

  std::uint64_t version_of(const std::vector<std::uint64_t>& value) const {
    const auto it = index_.find(value);
    return it == index_.end() ? kNone : it->second;
  }

  bool failed_ = false;
  std::string error_;
  std::uint64_t versions_ = 0;
  std::map<std::vector<std::uint64_t>, std::uint64_t> index_;
  std::vector<std::uint64_t> lin_;  ///< per pid: version of the last LL
};

/// The oracle plus I1, I2 and the 4W+12 LL bound, for the paper's protocol.
class JpChecker : public OracleChecker<Jp> {
  using Base = OracleChecker<Jp>;
  using Base::fail;
  using Base::step_count_;
  using Base::ull;
  using Peek = Inspector<Jp>;

 public:
  using Base::ok;

  explicit JpChecker(const SimWorkload<Jp>& wl)
      : Base(wl), n_(wl.n()), w_(wl.w()) {}

  void on_step(const SimWorkload<Jp>& wl) {
    Base::on_step(wl);
    if (!ok()) return;
    check_i1(wl.object());
    check_i2(wl);
    if (wl.object().stats().ll_retries > 0) {
      fail("defensive LL retry fired at step %llu — the 4W+12 help "
           "guarantee is broken",
           ull(step_count_));
    }
  }

  void on_op(const SimWorkload<Jp>& wl, const OpRecord& rec) {
    if (rec.type == OpType::kLl && rec.steps > Jp::ll_step_bound(n_, w_)) {
      return fail("LL(p%u) took %u steps, over the 4W+12 bound of %u",
                  rec.pid, rec.steps, Jp::ll_step_bound(n_, w_));
    }
    Base::on_op(wl, rec);
  }

 private:
  void check_i1(const Jp& o) {
    const std::uint32_t nbufs = Peek::num_bufs(o);
    owners_.assign(nbufs, 0);
    bump_owner(Peek::current_buf(o), nbufs);
    for (std::uint32_t p = 0; p < n_; ++p) {
      bump_owner(Peek::private_buf_of(o, p), nbufs);
    }
    for (std::uint32_t j = 0; j < Peek::ring_size(o); ++j) {
      bump_owner(Peek::ring_buf(o, j), nbufs);
    }
    for (std::uint32_t b = 0; b < nbufs; ++b) {
      if (owners_[b] != 1) {
        return fail("I1 violated at step %llu: buffer %u has %d owners "
                    "(want exactly 1: current, one process, or one "
                    "ring cell)",
                    ull(step_count_), b, owners_[b]);
      }
    }
  }

  void bump_owner(std::uint32_t b, std::uint32_t nbufs) {
    if (b < nbufs) {
      ++owners_[b];
    } else {
      fail("I1 violated: out-of-range buffer index %u", b);
    }
  }

  void check_i2(const SimWorkload<Jp>& wl) {
    const auto s = wl.object().stats();
    std::uint64_t pending = 0;
    for (std::uint32_t p = 0; p < n_; ++p) {
      pending += Peek::retire_pending(wl.object(), p) ? 1 : 0;
    }
    if (s.bank_writes + pending != s.sc_success ||
        s.sc_success != wl.version()) {
      fail("I2 violated at step %llu: %llu+%llu bank writes "
           "(done+pending), %llu successful SCs, version %llu (want one "
           "bank write per successful SC)",
           ull(step_count_), ull(s.bank_writes), ull(pending),
           ull(s.sc_success), ull(wl.version()));
    }
  }

  std::uint32_t n_;
  std::uint32_t w_;
  std::vector<int> owners_;  ///< scratch for the I1 ownership census
};

/// The strongest checker for an object: JpChecker for the paper's
/// protocol, the linearizability oracle for the baselines.
template <class Object>
struct CheckerFor {
  using type = OracleChecker<Object>;
};
template <>
struct CheckerFor<Jp> {
  using type = JpChecker;
};

template <class Object>
using CheckerOf = typename CheckerFor<Object>::type;

}  // namespace mwllsc::sim
