// Unit tests of the benchmark's own arithmetic: the span ledger's self
// times on synthetic nested spans, and the log-linear histogram's bucket
// layout and percentiles. run.py runs this before every benchmark run.
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "histogram.hpp"
#include "ledger.hpp"

namespace {

int failures = 0;

void expect_eq(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %llu, want %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  }
}

void expect_near(const char* what, double got, double want, double rel) {
  if (std::fabs(got - want) > rel * want) {
    std::fprintf(stderr, "FAIL %s: got %f, want %f (+-%.2f%%)\n", what, got,
                 want, 100 * rel);
    ++failures;
  }
}

using perfbench::Layer;
using perfbench::Ledger;

// driver [0,100) { any.ll [10,60) { mwllsc.ll [15,55) { llsc.ll [20,25),
// llsc.load [30,34) } }, any.sc [70,90) { mwllsc.sc [72,88) { llsc.sc
// [75,80) fails } } } — and a second root, membership.join [120,150).
void test_nested_self_times() {
  Ledger l;
  l.open();                                     // driver
  l.open();                                     //   any.ll
  l.open();                                     //     mwllsc.ll
  l.open();                                     //       llsc.ll
  l.close(Layer::kLlscLl, 20, 25, false);
  l.open();                                     //       llsc.load
  l.close(Layer::kLlscLoad, 30, 34, false);
  l.close(Layer::kMwllscLl, 15, 55, false);
  l.close(Layer::kAnyLl, 10, 60, false);
  l.open();                                     //   any.sc
  l.open();                                     //     mwllsc.sc
  l.open();                                     //       llsc.sc
  l.close(Layer::kLlscSc, 75, 80, true);
  l.close(Layer::kMwllscSc, 72, 88, false);
  l.close(Layer::kAnySc, 70, 90, false);
  l.close(Layer::kDriver, 0, 100, false);
  l.open();
  l.close(Layer::kMembershipJoin, 120, 150, false);

  expect_eq("llsc.ll self", l.at(Layer::kLlscLl).self, 5);
  expect_eq("llsc.load self", l.at(Layer::kLlscLoad).self, 4);
  expect_eq("mwllsc.ll self", l.at(Layer::kMwllscLl).self, 40 - 5 - 4);
  expect_eq("any.ll self", l.at(Layer::kAnyLl).self, 50 - 40);
  expect_eq("llsc.sc self", l.at(Layer::kLlscSc).self, 5);
  expect_eq("llsc.sc fails", l.at(Layer::kLlscSc).fails, 1);
  expect_eq("mwllsc.sc self", l.at(Layer::kMwllscSc).self, 16 - 5);
  expect_eq("any.sc self", l.at(Layer::kAnySc).self, 20 - 16);
  expect_eq("driver self", l.at(Layer::kDriver).self, 100 - 50 - 20);
  expect_eq("driver total", l.at(Layer::kDriver).total, 100);
  expect_eq("join self", l.at(Layer::kMembershipJoin).self, 30);
  // Every tick of a root span is some layer's self time, exactly once.
  expect_eq("root ticks", l.root_ticks(), 130);
  expect_eq("self sum", l.self_sum(), l.root_ticks());
  expect_eq("unbalanced", l.unbalanced(), 0);
  expect_eq("depth", l.depth(), 0);
  expect_eq("join samples", l.join_ticks().count(), 1);
}

void test_repeated_calls_and_merge() {
  Ledger a, b;
  for (int i = 0; i < 3; ++i) {
    a.open();
    a.open();
    a.close(Layer::kMwllscLl, 10 * i + 2, 10 * i + 7, false);
    a.close(Layer::kDriver, 10 * i, 10 * i + 9, false);
  }
  b.open();
  b.close(Layer::kMwllscLl, 0, 11, false);
  a.merge(b);
  expect_eq("merged calls", a.at(Layer::kMwllscLl).calls, 4);
  expect_eq("merged self", a.at(Layer::kMwllscLl).self, 3 * 5 + 11);
  expect_eq("merged driver self", a.at(Layer::kDriver).self, 3 * 4);
  expect_eq("merged self sum", a.self_sum(), a.root_ticks());
}

void test_unbalanced_is_counted() {
  Ledger l;
  l.close(Layer::kDriver, 0, 5, false);  // close without open
  l.open();
  l.open();
  l.close(Layer::kLlscLl, 0, 50, false);  // child longer than its parent
  l.close(Layer::kMwllscLl, 0, 10, false);
  expect_eq("unbalanced", l.unbalanced(), 2);
  expect_eq("clamped self", l.at(Layer::kMwllscLl).self, 0);
}

void test_histogram_layout() {
  using perfbench::Histogram;
  // Buckets tile the value range: each starts where the previous ends.
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    if (Histogram::lower_of(i) !=
        Histogram::lower_of(i - 1) + Histogram::width_of(i - 1)) {
      std::fprintf(stderr, "FAIL bucket %zu does not follow bucket %zu\n", i,
                   i - 1);
      ++failures;
      break;
    }
  }
  // Every value maps into the bucket that covers it; no bucket is wider
  // than 1/64 of its lower bound above the exact range.
  const std::uint64_t probes[] = {0, 1, 127, 128, 129, 255, 256, 1000, 2047,
                                  2048, 2049, 123456789, 1ull << 40};
  for (std::uint64_t v : probes) {
    const std::size_t i = Histogram::index_of(v);
    const std::uint64_t lo = Histogram::lower_of(i);
    const std::uint64_t w = Histogram::width_of(i);
    if (v < lo || v >= lo + w || (lo >= 128 && w * 64 > lo)) {
      std::fprintf(stderr, "FAIL value %llu in bucket [%llu, +%llu)\n",
                   static_cast<unsigned long long>(v),
                   static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(w));
      ++failures;
    }
  }
}

void test_histogram_percentiles() {
  perfbench::Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  expect_eq("count", h.count(), 10000);
  expect_near("p50", h.percentile(0.50), 5000, 0.01);
  expect_near("p99", h.percentile(0.99), 9900, 0.01);
  // A tail just above a power of two is not pulled to the edge.
  perfbench::Histogram t;
  for (int i = 0; i < 980; ++i) t.record(300);
  for (int i = 0; i < 20; ++i) t.record(2100);
  expect_near("p99 above 2048", t.percentile(0.99), 2100, 0.01);
  expect_near("p50 exactish", t.percentile(0.50), 300, 0.01);
  perfbench::Histogram empty;
  expect_near("empty", empty.percentile(0.5) + 1, 1, 0);
}

}  // namespace

int main() {
  test_nested_self_times();
  test_repeated_calls_and_merge();
  test_unbalanced_is_counted();
  test_histogram_layout();
  test_histogram_percentiles();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("test_perfbench: all checks passed\n");
  return 0;
}
