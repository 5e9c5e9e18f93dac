// The four closed-loop workloads, each on 3 worker threads against the
// shipped jp stack (core::MwLLSC<llsc::Dw128LLSC>). A workload owns its
// objects and the per-thread bookkeeping its oracles need; `body` is one
// worker's loop and `verify` the end-of-run oracle. With kTraced the same
// workload runs on the timed wrappers of timed.hpp and its own loop opens a
// driver span per iteration.
//
//   spread  256 W=4 objects through the IMwLLSC facade, picked at random:
//           the uncontended fast path on cache-cold objects.
//   lease   64 ManagedMwLLSC objects: join, 16 committed updates, a read
//           back, retire; every 8th lease abandons its slot instead, so
//           later joins run the orphan sweep (the membership layer's work).
//   hot     fetch&inc on one WfUniversal counter: apps help-all and jp's
//           contended path (failed SCs, donation, ring retries).
//   scan    one writer stamping a W=64 object, two readers checking every
//           snapshot is untorn: the O(W) copy and the helped-LL path. Not
//           in BENCHMARK.json: its read p50 sits between a warm and a cold
//           mode whose mix moves with vCPU placement, so it is not steady.
//
// Updates write the same value to every word, so any LL can check that its
// snapshot is untorn. In spread, lease and hot every 8th op is a read.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/wf_universal.hpp"
#include "core/any.hpp"
#include "harness.hpp"
#include "ledger.hpp"
#include "membership/managed.hpp"
#include "timed.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline constexpr unsigned kThreads = 3;

/// Counts a workload reports for the per-layer metrics and the oracles.
struct LayerCounts {
  mwllsc::core::OpStatsSnapshot mw;
  std::uint64_t apps_applies = 0;
  std::uint64_t apps_attempts = 0;
  std::uint64_t apps_max_attempts = 0;
  mwllsc::membership::MembershipSnapshot mem;
};

inline bool untorn(const std::uint64_t* b, std::uint32_t w) {
  for (std::uint32_t i = 1; i < w; ++i) {
    if (b[i] != b[0]) return false;
  }
  return true;
}

inline void fill(std::uint64_t* b, std::uint32_t w, std::uint64_t v) {
  for (std::uint32_t i = 0; i < w; ++i) b[i] = v;
}

inline mwllsc::util::Xoshiro256 thread_rng(std::uint64_t seed, unsigned tid) {
  return mwllsc::util::Xoshiro256(seed * 0x9E3779B97F4A7C15ull + tid + 1);
}

/// Per-thread oracle state over `objects` objects: commits made to each,
/// and the highest value this thread has seen in each.
struct alignas(64) ObjectBook {
  ObjectBook(std::uint64_t seed, unsigned tid, std::uint32_t objects)
      : rng(thread_rng(seed, tid)), commits(objects, 0), seen(objects, 0) {}

  /// A snapshot is correct if untorn and not older than one already seen.
  /// The first few failures are printed.
  bool observe(std::uint32_t k, const std::uint64_t* b, std::uint32_t w) {
    const bool ok = untorn(b, w) && b[0] >= seen[k];
    if (!ok && ++reported <= 5) {
      std::fprintf(stderr,
                   "oracle: object %u snapshot word0 %" PRIu64 " (untorn %d), "
                   "already saw %" PRIu64 "\n",
                   k, b[0], untorn(b, w) ? 1 : 0, seen[k]);
    }
    if (b[0] > seen[k]) seen[k] = b[0];
    return ok;
  }

  mwllsc::util::Xoshiro256 rng;
  std::vector<std::uint64_t> commits;
  std::vector<std::uint64_t> seen;
  std::uint64_t leases = 0;
  std::uint64_t bad_retires = 0;
  std::uint64_t reported = 0;
};

inline std::uint64_t expected_commits(const std::vector<ObjectBook>& books,
                                      std::uint32_t k) {
  std::uint64_t e = 0;
  for (const ObjectBook& b : books) e += b.commits[k];
  return e;
}

/// Checks one object's final value against the commits made to it; prints
/// and returns 1 on a mismatch.
inline std::uint64_t check_final(const char* what, std::uint32_t k,
                                 const std::uint64_t* b, std::uint32_t w,
                                 std::uint64_t expect, std::uint64_t sc_success) {
  if (untorn(b, w) && b[0] == expect && sc_success == expect) return 0;
  std::fprintf(stderr,
               "%s object %u: value %" PRIu64 " (untorn %d), sc_success %" PRIu64
               ", expected %" PRIu64 " commits\n",
               what, k, b[0], untorn(b, w) ? 1 : 0, sc_success, expect);
  return 1;
}

// ------------------------------------------------------------------ spread
template <bool kTraced>
class Spread {
 public:
  static constexpr std::uint32_t kObjects = 256;
  static constexpr std::uint32_t kWords = 4;

  explicit Spread(std::uint64_t seed) {
    const auto make = jp_facade<kTraced>();
    for (std::uint32_t k = 0; k < kObjects; ++k) {
      objs_.push_back(make(kThreads, kWords));
    }
    for (unsigned t = 0; t < kThreads; ++t) books_.emplace_back(seed, t, kObjects);
  }

  void body(unsigned tid, Worker& w) {
    ObjectBook& me = books_[tid];
    std::uint64_t buf[kWords];
    while (!w.stopped()) {
      MaybeSpan<kTraced> it(Layer::kDriver);
      const std::uint32_t k = me.rng.next_below(kObjects);
      mwllsc::core::IMwLLSC& o = *objs_[k];
      const bool read = w.mixed_read();
      const std::uint64_t t0 = w.start();
      bool ok = true;
      if (read) {
        o.ll(tid, buf);
        ok = me.observe(k, buf, kWords);
      } else {
        for (;;) {
          o.ll(tid, buf);
          ok = me.observe(k, buf, kWords) && ok;
          fill(buf, kWords, buf[0] + 1);
          if (o.sc(tid, buf)) break;
        }
        ++me.commits[k];
      }
      w.finish(read, t0, ok);
    }
  }

  std::uint64_t verify() {
    std::uint64_t bad = 0;
    std::uint64_t buf[kWords];
    for (std::uint32_t k = 0; k < kObjects; ++k) {
      objs_[k]->ll(0, buf);
      bad += check_final("spread", k, buf, kWords, expected_commits(books_, k),
                         objs_[k]->stats().sc_success);
    }
    return bad;
  }

  std::size_t shared_bytes() const {
    std::size_t s = 0;
    for (const auto& o : objs_) s += o->footprint().shared_bytes();
    return s;
  }

  LayerCounts counts() const {
    LayerCounts c;
    for (const auto& o : objs_) c.mw += o->stats();
    return c;
  }

 private:
  std::vector<std::unique_ptr<mwllsc::core::IMwLLSC>> objs_;
  std::vector<ObjectBook> books_;
};

// ------------------------------------------------------------------- lease
template <bool kTraced>
class Lease {
 public:
  static constexpr std::uint32_t kObjects = 64;
  static constexpr std::uint32_t kWords = 4;
  static constexpr std::uint32_t kLeaseUpdates = 16;
  static constexpr std::uint64_t kAbandonEvery = 8;
  using Managed = mwllsc::membership::ManagedMwLLSC<JpImpl<kTraced>>;

  explicit Lease(std::uint64_t seed) {
    for (std::uint32_t k = 0; k < kObjects; ++k) {
      objs_.push_back(std::make_unique<Managed>(kThreads, kWords));
    }
    for (unsigned t = 0; t < kThreads; ++t) books_.emplace_back(seed, t, kObjects);
  }

  void body(unsigned tid, Worker& w) {
    ObjectBook& me = books_[tid];
    std::uint64_t buf[kWords];
    while (!w.stopped()) {
      std::uint32_t k = 0;
      typename Managed::Session s;
      {
        MaybeSpan<kTraced> it(Layer::kDriver);
        k = me.rng.next_below(kObjects);
        MaybeSpan<kTraced> j(Layer::kMembershipJoin);
        s = objs_[k]->join();
      }
      std::uint32_t done = 0;
      while (done < kLeaseUpdates && !w.stopped()) {
        MaybeSpan<kTraced> it(Layer::kDriver);
        const bool read = w.mixed_read();
        const std::uint64_t t0 = w.start();
        bool ok = true;
        if (read) {
          {
            MaybeSpan<kTraced> l(Layer::kMembershipLl);
            s.ll(buf);
          }
          ok = me.observe(k, buf, kWords);
        } else {
          for (;;) {
            {
              MaybeSpan<kTraced> l(Layer::kMembershipLl);
              s.ll(buf);
            }
            ok = me.observe(k, buf, kWords) && ok;
            fill(buf, kWords, buf[0] + 1);
            MaybeSpan<kTraced> c(Layer::kMembershipSc);
            if (s.sc(buf)) break;
          }
          ++me.commits[k];
          ++done;
        }
        w.finish(read, t0, ok);
      }
      {
        // Every lease ends by reading the object back. The LL re-announces,
        // so the pid's announce word names the exchange buffer this holder
        // owns as it leaves. rebind_pid hands the next holder the buffer
        // the word names; after a last SC that donated as a helper, that
        // buffer belongs to the helpee, and the shared buffer tears LLs.
        MaybeSpan<kTraced> it(Layer::kDriver);
        const std::uint64_t t0 = w.start();
        {
          MaybeSpan<kTraced> l(Layer::kMembershipLl);
          s.ll(buf);
        }
        w.finish(true, t0, me.observe(k, buf, kWords));
      }
      MaybeSpan<kTraced> it(Layer::kDriver);
      if (++me.leases % kAbandonEvery == 0 && !s.degraded()) {
        s.abandon();
      } else {
        MaybeSpan<kTraced> r(Layer::kMembershipRetire);
        // A failed retire means the slot was reclaimed from a live holder.
        if (!s.retire()) ++me.bad_retires;
      }
    }
  }

  std::uint64_t verify() {
    std::uint64_t bad = 0;
    std::uint64_t buf[kWords];
    for (std::uint32_t k = 0; k < kObjects; ++k) {
      auto s = objs_[k]->join();
      s.ll(buf);
      s.retire();
      bad += check_final("lease", k, buf, kWords, expected_commits(books_, k),
                         objs_[k]->stats().sc_success);
    }
    for (const ObjectBook& b : books_) {
      if (b.bad_retires) {
        std::fprintf(stderr, "lease: %" PRIu64 " retires found their slot reclaimed\n",
                     b.bad_retires);
      }
      bad += b.bad_retires;
    }
    return bad;
  }

  std::size_t shared_bytes() const {
    std::size_t s = 0;
    for (const auto& o : objs_) s += o->footprint().shared_bytes();
    return s;
  }

  LayerCounts counts() const {
    LayerCounts c;
    for (const auto& o : objs_) {
      c.mw += o->stats();
      const mwllsc::membership::MembershipSnapshot m = o->membership();
      c.mem.joins += m.joins;
      c.mem.degraded_joins += m.degraded_joins;
      c.mem.join_retries += m.join_retries;
      c.mem.retires += m.retires;
      c.mem.crash_reclaims += m.crash_reclaims;
      c.mem.scans += m.scans;
    }
    return c;
  }

 private:
  std::vector<std::unique_ptr<Managed>> objs_;
  std::vector<ObjectBook> books_;
};

// --------------------------------------------------------------------- hot
struct Counter {
  std::uint64_t v;
};

/// fetch&inc: returns the value before the increment.
struct FetchInc {
  std::uint64_t operator()(Counter& c, const mwllsc::apps::OpDesc&) const {
    return c.v++;
  }
};

template <bool kTraced>
class Hot {
 public:
  explicit Hot(std::uint64_t seed) : u_(kThreads, Counter{0}, jp_facade<kTraced>()) {
    (void)seed;  // one object, no random choice
    books_.resize(kThreads);
  }

  void body(unsigned tid, Worker& w) {
    Book& me = books_[tid];
    while (!w.stopped()) {
      MaybeSpan<kTraced> it(Layer::kDriver);
      const bool read = w.mixed_read();
      const std::uint64_t t0 = w.start();
      bool ok = true;
      // Linearizability, per thread: a read returns at least `floor`, the
      // count after this thread's last apply or the last value it read;
      // an apply's result is at least `floor` too.
      if (read) {
        const std::uint64_t v = u_.read(tid).v;
        ok = v >= me.floor;
        if (!ok) report(v, me.floor);
        me.floor = v;
      } else {
        std::uint64_t r = 0;
        {
          MaybeSpan<kTraced> a(Layer::kAppsApply);
          r = u_.apply(tid, mwllsc::apps::OpDesc{});
        }
        ok = r >= me.floor;
        if (!ok) report(r, me.floor);
        me.floor = r + 1;
        ++me.applies;
      }
      w.finish(read, t0, ok);
    }
  }

  std::uint64_t verify() {
    const std::uint64_t v = u_.read(0).v;
    const std::uint64_t expect = applies();
    if (v == expect) return 0;
    std::fprintf(stderr, "hot: counter %" PRIu64 " != %" PRIu64 " applies\n", v,
                 expect);
    return 1;
  }

  std::size_t shared_bytes() { return u_.substrate().footprint().shared_bytes(); }

  LayerCounts counts() {
    LayerCounts c;
    c.mw = u_.substrate().stats();
    c.apps_applies = applies();
    c.apps_attempts = u_.total_attempts();
    c.apps_max_attempts = u_.max_attempts();
    return c;
  }

 private:
  struct alignas(64) Book {
    std::uint64_t floor = 0;
    std::uint64_t applies = 0;
  };

  static void report(std::uint64_t got, std::uint64_t floor) {
    std::fprintf(stderr, "oracle: counter result %" PRIu64 " below %" PRIu64
                 " already seen\n", got, floor);
  }

  std::uint64_t applies() const {
    std::uint64_t n = 0;
    for (const Book& b : books_) n += b.applies;
    return n;
  }

  mwllsc::apps::WfUniversal<Counter, FetchInc> u_;
  std::vector<Book> books_;
};

// -------------------------------------------------------------------- scan
template <bool kTraced>
class Scan {
 public:
  static constexpr std::uint32_t kWords = 64;

  explicit Scan(std::uint64_t seed)
      : obj_(jp_facade<kTraced>()(kThreads, kWords)) {
    for (unsigned t = 0; t < kThreads; ++t) books_.emplace_back(seed, t, 1);
  }

  /// Thread 0 writes; the others read.
  void body(unsigned tid, Worker& w) {
    ObjectBook& me = books_[tid];
    std::uint64_t buf[kWords];
    const bool reader = tid != 0;
    while (!w.stopped()) {
      MaybeSpan<kTraced> it(Layer::kDriver);
      const std::uint64_t t0 = w.start();
      bool ok = true;
      if (reader) {
        obj_->ll(tid, buf);
        ok = me.observe(0, buf, kWords);
      } else {
        for (;;) {
          obj_->ll(tid, buf);
          ok = me.observe(0, buf, kWords) && ok;
          fill(buf, kWords, buf[0] + 1);
          if (obj_->sc(tid, buf)) break;
        }
        ++me.commits[0];
      }
      w.finish(reader, t0, ok);
    }
  }

  std::uint64_t verify() {
    std::uint64_t buf[kWords];
    obj_->ll(0, buf);
    return check_final("scan", 0, buf, kWords, expected_commits(books_, 0),
                       obj_->stats().sc_success);
  }

  std::size_t shared_bytes() const { return obj_->footprint().shared_bytes(); }

  LayerCounts counts() const {
    LayerCounts c;
    c.mw = obj_->stats();
    return c;
  }

 private:
  std::unique_ptr<mwllsc::core::IMwLLSC> obj_;
  std::vector<ObjectBook> books_;
};

}  // namespace perfbench
