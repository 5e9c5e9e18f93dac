// E4 — The helping mechanism under load (paper §2.2).
//
// Measures, for the paper's algorithm, how often the helping machinery
// actually fires as contention and W grow:
//   * slow LLs          — the unannounced first attempt failed, so the LL
//                         announced and asked for help,
//   * helped LLs        — Line 4 found a helper's buffer waiting,
//   * line-7 rescues    — the LL actually *returned* the handed value,
//   * help installs     — SCs that performed the ownership exchange,
//   * bank fixups       — Line-13 writes (exactly one per successful SC
//                         after the first, by invariant I2).
//
// The rates stay small at low contention (the fast path dominates) and grow
// with both N and W — yet never affect the O(W) step bound. That is the
// point of wait-freedom: help is a constant-cost insurance premium, not a
// retry loop.
//
// Run: ./bench_help_rate [--trace PATH] [--metrics PATH]
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

int main(int argc, char** argv) {
  constexpr std::uint64_t kDurationNs = 250'000'000;
  const auto thread_counts = bench::scaling_thread_counts();
  bench::ObsSession obs(argc, argv, thread_counts.back());

  std::printf(
      "E4: helping-mechanism rates for the paper's algorithm\n"
      "(all rates per 1000 LL operations; bank fixups per 1000 successful "
      "SCs)\n\n");

  for (std::uint32_t w : {4u, 64u}) {
    TablePrinter table({"threads", "slow LLs", "helped LLs", "line-7 rescues",
                        "help installs", "bank fixups", "sc success %"});
    for (unsigned t : thread_counts) {
      auto obj = bench::factory_by_name("jp").make(t, w);
      obs.bind(*obj, "jp help_rate w=" + std::to_string(w) + " n=" +
                         std::to_string(t));
      const auto r = bench::run_rmw_throughput(*obj, t, kDurationNs);
      obs.registry().absorb("impl=\"jp\",w=\"" + std::to_string(w) +
                                "\",threads=\"" + std::to_string(t) + "\"",
                            r.stats);
      const double per_kll =
          r.stats.ll_ops ? 1000.0 / static_cast<double>(r.stats.ll_ops) : 0;
      const double per_ksc =
          r.stats.sc_success
              ? 1000.0 / static_cast<double>(r.stats.sc_success)
              : 0;
      table.add_row(
          {TablePrinter::num(std::size_t{t}),
           TablePrinter::num(static_cast<double>(r.stats.ll_slow) * per_kll,
                             2),
           TablePrinter::num(static_cast<double>(r.stats.ll_helped) * per_kll,
                             2),
           TablePrinter::num(
               static_cast<double>(r.stats.ll_used_helped_value) * per_kll,
               2),
           TablePrinter::num(
               static_cast<double>(r.stats.helps_given) * per_kll, 2),
           TablePrinter::num(
               static_cast<double>(r.stats.bank_writes) * per_ksc, 2),
           TablePrinter::num(100.0 * r.sc_success_rate, 1)});
    }
    std::printf("W = %u words\n", w);
    table.print();
    std::printf("\n");
  }

  std::printf(
      "reader-heavy variant: 2 writers, the rest pure readers (W = 64)\n");
  {
    TablePrinter table({"threads", "reader Mops", "writer Mops",
                        "helped LLs/1k", "line-7 rescues/1k"});
    for (unsigned t : thread_counts) {
      if (t < 3) continue;
      auto obj = bench::factory_by_name("jp").make(t, 64);
      obs.bind(*obj, "jp reader_heavy n=" + std::to_string(t));
      const auto r = bench::run_mixed_throughput(*obj, t, 2, kDurationNs);
      const double per_kll =
          r.stats.ll_ops ? 1000.0 / static_cast<double>(r.stats.ll_ops) : 0;
      table.add_row(
          {TablePrinter::num(std::size_t{t}),
           TablePrinter::num(r.reader_mops, 2),
           TablePrinter::num(r.writer_mops, 2),
           TablePrinter::num(static_cast<double>(r.stats.ll_helped) * per_kll,
                             2),
           TablePrinter::num(
               static_cast<double>(r.stats.ll_used_helped_value) * per_kll,
               2)});
    }
    table.print();
  }
  return obs.finish() ? 0 : 1;
}
