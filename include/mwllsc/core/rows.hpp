// The row pool: the bank of W-word value buffers a one-word LL/SC swings
// between, and the one home of their layout and their copies. jp keeps its
// N+R+1 buffers here, retry and am their N+1, and am its N^2 handoff rows.
//
// Layout. Row b starts at word b*S of one flat, line-aligned run of words.
// The stride S is 4 words (half a line) when W <= 4 and ceil(W/8) whole
// lines otherwise, so two small rows share a line and no row ever straddles
// a line boundary. False sharing between two half-line rows costs time,
// never correctness. Every word starts at zero.
//
// Copies. Row words are relaxed atomics of the memory policy, so under
// sim::Memory each word a copy touches is one scheduling point. The copies
// order nothing: the fences that make a copy a validated snapshot or a
// published value stay at the protocols' call sites, where they are argued.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/llsc.hpp"

namespace mwllsc::core {

/// One cache line of shared words. Lines carry no padding, so an array of
/// them is one flat run of words.
template <class Mem>
struct alignas(64) Line {
  typename Mem::template Atomic<std::uint64_t> w[8];
};

/// Lines needed for `words` words packed eight to a line.
constexpr std::size_t lines_for(std::size_t words) { return (words + 7) / 8; }

template <class Mem = NativeMemory>
class RowPool {
  using Word = typename Mem::template Atomic<std::uint64_t>;
  static_assert(sizeof(Line<Mem>) == 8 * sizeof(Word));

 public:
  /// `rows` zeroed rows of `words` words each.
  RowPool(std::size_t rows, std::uint32_t words)
      : w_(words),
        stride_(words <= 4 ? 4 : 8 * static_cast<std::uint32_t>(
                                         lines_for(words))),
        lines_(lines_for(rows * stride_)),
        pool_(std::make_unique<Line<Mem>[]>(lines_)) {
    assert(words >= 1);
  }

  /// Row b's first word.
  Word* row(std::size_t b) const { return pool_[0].w + b * stride_; }

  void copy_out(std::size_t b, std::uint64_t* out) const {
    const Word* r = row(b);
    for (std::uint32_t i = 0; i < w_; ++i) {
      out[i] = r[i].load(std::memory_order_relaxed);
    }
  }

  void copy_in(std::size_t b, const std::uint64_t* v) {
    Word* r = row(b);
    for (std::uint32_t i = 0; i < w_; ++i) {
      r[i].store(v[i], std::memory_order_relaxed);
    }
  }

  void copy_row(std::size_t from, std::size_t to) {
    const Word* src = row(from);
    Word* dst = row(to);
    for (std::uint32_t i = 0; i < w_; ++i) {
      dst[i].store(src[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
  }

  /// W, the words in a row.
  std::uint32_t words() const { return w_; }
  std::size_t bytes() const { return lines_ * sizeof(Line<Mem>); }

 private:
  std::uint32_t w_;
  std::uint32_t stride_;  ///< words from one row's start to the next
  std::size_t lines_;
  std::unique_ptr<Line<Mem>[]> pool_;
};

}  // namespace mwllsc::core
