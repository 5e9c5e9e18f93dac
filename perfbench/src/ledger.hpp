// Per-thread span ledger for the traced run. A span brackets one call
// into a layer's public function; spans nest (driver iteration -> facade
// -> protocol -> engine), and a layer's self time is its span's duration
// minus the durations of the spans directly inside it. The ledger keeps
// only aggregates — calls, self and total ticks, failures per layer — so a
// span costs two clock reads and a few adds, and nothing is allocated on
// the traffic path. Because every child's duration is charged to exactly
// one parent, the self times of a thread sum to the durations of its root
// spans; test_perfbench checks that arithmetic on synthetic spans.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "clock.hpp"
#include "histogram.hpp"

namespace perfbench {

/// The timed boundaries, named `<layer>.<call>` in the output. kDriver is
/// the benchmark's own loop: one root span per iteration.
enum class Layer : std::uint8_t {
  kLlscLl,
  kLlscSc,
  kLlscLoad,  ///< current_tag() and vl(): the engine's 128-bit reads
  kMwllscLl,
  kMwllscSc,
  kAnyLl,
  kAnySc,
  kAppsApply,
  kMembershipJoin,
  kMembershipRetire,
  kMembershipLl,
  kMembershipSc,
  kDriver,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer l) {
  static const char* names[kLayerCount] = {
      "llsc.ll",         "llsc.sc",           "llsc.load",
      "mwllsc.ll",       "mwllsc.sc",         "any.ll",
      "any.sc",          "apps.apply",        "membership.join",
      "membership.retire", "membership.session_ll", "membership.session_sc",
      "driver.iter"};
  return names[static_cast<std::size_t>(l)];
}

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t self = 0;   ///< ticks not covered by a child span
  std::uint64_t total = 0;  ///< ticks of the whole span
  std::uint64_t fails = 0;  ///< calls the span marked failed (engine SCs)
};

class Ledger {
 public:
  static constexpr std::size_t kMaxDepth = 16;

  /// Opens a span: its children's durations accumulate from here.
  void open() {
    if (depth_ < kMaxDepth) child_[depth_] = 0;
    ++depth_;
  }

  /// Closes the innermost open span as layer `l`, started at `start` and
  /// ended at `end` (ticks).
  void close(Layer l, std::uint64_t start, std::uint64_t end, bool failed) {
    if (depth_ == 0 || depth_ > kMaxDepth) {
      ++unbalanced_;
      if (depth_ > 0) --depth_;
      return;
    }
    const std::uint64_t dur = end >= start ? end - start : 0;
    const std::uint64_t children = child_[--depth_];
    LayerTotals& t = totals_[static_cast<std::size_t>(l)];
    ++t.calls;
    t.total += dur;
    // A child can only outlast its parent through clock skew; clamp so a
    // self time never wraps, and count it so the sum check sees it.
    if (children > dur) {
      ++unbalanced_;
    } else {
      t.self += dur - children;
    }
    if (failed) ++t.fails;
    if (depth_ > 0) {
      child_[depth_ - 1] += dur;
    } else {
      root_ += dur;
    }
    if (l == Layer::kMembershipJoin) joins_.record(dur);
  }

  const LayerTotals& at(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }

  /// Sum of every layer's self ticks, the driver's included.
  std::uint64_t self_sum() const {
    std::uint64_t s = 0;
    for (const LayerTotals& t : totals_) s += t.self;
    return s;
  }

  /// Ticks covered by root spans (those opened with no span open).
  std::uint64_t root_ticks() const { return root_; }

  /// Spans closed out of order, past kMaxDepth, or with a child longer
  /// than the parent; 0 in a sound trace.
  std::uint64_t unbalanced() const { return unbalanced_; }

  std::size_t depth() const { return depth_; }

  /// membership.join durations (ticks), for its p50/p99.
  const Histogram& join_ticks() const { return joins_; }

  void merge(const Ledger& o) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      totals_[i].calls += o.totals_[i].calls;
      totals_[i].self += o.totals_[i].self;
      totals_[i].total += o.totals_[i].total;
      totals_[i].fails += o.totals_[i].fails;
    }
    root_ += o.root_;
    unbalanced_ += o.unbalanced_;
    joins_.merge(o.joins_);
  }

 private:
  std::array<LayerTotals, kLayerCount> totals_{};
  std::array<std::uint64_t, kMaxDepth> child_{};
  std::size_t depth_ = 0;
  std::uint64_t root_ = 0;
  std::uint64_t unbalanced_ = 0;
  Histogram joins_;
};

/// The running thread's ledger; set by the window driver for the traced
/// window only. Spans on a thread without one (the main thread building or
/// checking objects) record nothing.
inline thread_local Ledger* t_ledger = nullptr;

/// RAII span around one call.
class Span {
 public:
  explicit Span(Layer l) : ledger_(t_ledger), layer_(l) {
    if (ledger_) {
      ledger_->open();
      start_ = ticks();
    }
  }
  ~Span() {
    if (ledger_) ledger_->close(layer_, start_, ticks(), failed_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void fail() { failed_ = true; }

 private:
  Ledger* ledger_;
  Layer layer_;
  bool failed_ = false;
  std::uint64_t start_ = 0;
};

/// The untraced stand-in: compiles to nothing.
struct NoSpan {
  explicit NoSpan(Layer) {}
  void fail() {}
};

template <bool kTraced>
using MaybeSpan = std::conditional_t<kTraced, Span, NoSpan>;

}  // namespace perfbench
