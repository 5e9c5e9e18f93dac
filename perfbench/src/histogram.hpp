// Log-linear latency histogram: values below 128 land in exact unit
// buckets; above that every power-of-two octave is split into 64 equal
// sub-buckets, so a bucket is never wider than 1/64 (1.6%) of its lower
// bound. A percentile interpolates linearly inside the bucket holding the
// nearest-rank sample, so it is within 1.6% of a value that was actually
// recorded — unlike a log2 histogram, whose interpolated p99 sticks near a
// power-of-two edge. Values are unitless; the benchmark records ticks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Samples clamp at 2^(kMaxLog2+1) - 1 (about 37 minutes in ns).
  static constexpr unsigned kMaxLog2 = 41;
  static constexpr std::size_t kBuckets = (kMaxLog2 - kSubBits) * kSub + 2 * kSub;

  Histogram() : buckets_(kBuckets, 0) {}

  static std::size_t index_of(std::uint64_t v) {
    const std::uint64_t cap = (std::uint64_t{1} << (kMaxLog2 + 1)) - 1;
    if (v > cap) v = cap;
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const unsigned h = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned s = h - kSubBits;
    return static_cast<std::size_t>(s * kSub + (v >> s));
  }

  static std::uint64_t lower_of(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::uint64_t s = i / kSub - 1;
    return (i - s * kSub) << s;
  }

  static std::uint64_t width_of(std::size_t i) {
    return i < 2 * kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  void record(std::uint64_t v) {
    ++buckets_[index_of(v)];
    ++count_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank q-quantile (0 < q <= 1), placing the bucket's samples
  /// evenly across its width; 0 when empty.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        const double frac = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[i]);
        return static_cast<double>(lower_of(i)) +
               frac * static_cast<double>(width_of(i));
      }
      seen += buckets_[i];
    }
    return static_cast<double>(lower_of(kBuckets - 1));
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
