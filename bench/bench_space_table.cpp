// E1 — Space complexity (the paper's headline: Theorem 1 + §1's
// "cuts the space complexity by a factor of N").
//
// Prints, for a grid of (N, W):
//   * measured shared-memory words for JP / AM / Retry / Lock,
//   * the AM/JP ratio (the paper predicts ~N),
//   * fitted exponents of N (JP ~ N^1, AM ~ N^2),
//   * the per-component breakdown of the JP object at a reference point.
//
// Run: ./bench_space_table [--metrics PATH]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

std::size_t shared_words(core::IMwLLSC& obj) {
  // Count shared memory the same way the paper does: everything except the
  // private per-process persistent state (the Footprint ownership tag).
  return obj.footprint().shared_bytes() / 8;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv, 1);
  std::printf(
      "E1: space complexity, measured 64-bit words of shared memory\n"
      "paper claim: JP = O(NW) vs Anderson-Moir = O(N^2 W); ratio ~ N\n\n");

  const std::vector<std::uint32_t> ns = {2, 4, 8, 16, 32, 64, 128};
  const std::vector<std::uint32_t> ws = {1, 4, 16, 64};

  auto factories = bench::all_factories();

  for (std::uint32_t w : ws) {
    TablePrinter table({"N", "W", "jp words", "am words", "retry words",
                        "lock words", "am/jp", "N (predicted am/jp)"});
    for (std::uint32_t n : ns) {
      std::vector<std::string> row = {TablePrinter::num(std::size_t{n}),
                                      TablePrinter::num(std::size_t{w})};
      std::size_t jp_words = 0, am_words = 0;
      for (auto& f : factories) {
        auto obj = f.make(n, w);
        const std::size_t words = shared_words(*obj);
        obs.registry().set_gauge("mwllsc_shared_words{impl=\"" + f.name +
                                     "\",n=\"" + std::to_string(n) +
                                     "\",w=\"" + std::to_string(w) + "\"}",
                                 static_cast<double>(words));
        if (f.name == "jp") jp_words = words;
        if (f.name == "am") am_words = words;
        row.push_back(TablePrinter::num(words));
      }
      row.push_back(TablePrinter::num(
          static_cast<double>(am_words) / static_cast<double>(jp_words), 1));
      row.push_back(TablePrinter::num(std::size_t{n}));
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }

  // Fitted exponents of N at fixed W (log-log least squares).
  {
    const std::uint32_t w = 16;
    std::vector<double> xs, jp, am, retry;
    for (std::uint32_t n : ns) {
      xs.push_back(n);
      auto j = bench::factory_by_name("jp").make(n, w);
      auto a = bench::factory_by_name("am").make(n, w);
      auto r = bench::factory_by_name("retry").make(n, w);
      jp.push_back(static_cast<double>(shared_words(*j)));
      am.push_back(static_cast<double>(shared_words(*a)));
      retry.push_back(static_cast<double>(shared_words(*r)));
    }
    std::printf("fitted space exponent in N (W=%u):\n", w);
    std::printf("  jp    : N^%.2f   (paper: 1)\n",
                util::fitted_exponent(xs, jp));
    std::printf("  am    : N^%.2f   (paper: 2)\n",
                util::fitted_exponent(xs, am));
    std::printf("  retry : N^%.2f   (lock-free strawman: 1)\n\n",
                util::fitted_exponent(xs, retry));
  }

  // Component breakdown at a reference configuration.
  {
    const std::uint32_t n = 16, w = 16;
    std::printf("JP component breakdown at N=%u, W=%u:\n", n, w);
    core::MwLLSC<llsc::Engine> obj(n, w);
    const auto f = obj.footprint();
    TablePrinter table({"component", "bytes"});
    for (const auto& part : f.parts()) {
      table.add_row({part.name, TablePrinter::num(part.bytes)});
    }
    table.add_row({"TOTAL", TablePrinter::num(f.total_bytes())});
    table.print();

    std::printf("\nAM component breakdown at N=%u, W=%u:\n", n, w);
    baseline::AmLLSC<llsc::Engine> am(n, w);
    const auto g = am.footprint();
    TablePrinter table2({"component", "bytes"});
    for (const auto& part : g.parts()) {
      table2.add_row({part.name, TablePrinter::num(part.bytes)});
    }
    table2.add_row({"TOTAL", TablePrinter::num(g.total_bytes())});
    table2.print();
  }
  return obs.finish() ? 0 : 1;
}
