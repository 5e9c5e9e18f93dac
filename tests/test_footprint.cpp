// Space-complexity shape checks (Theorem 1 / experiment E1): the paper's
// algorithm is O(NW) shared words while the Anderson–Moir-style baseline is
// O(N^2 W), so doubling N should roughly double jp and roughly quadruple
// am. Fitted log-log exponents make the asymptotics explicit. The exact
// layouts are pinned too: core::RowPool's rows sit two to a line when
// W <= 4 and ceil(W/8) lines each otherwise, none straddling a line; jp,
// retry and am each pay one line for X plus their row pools, jp its ring
// and announce words packed eight to a line, and am a line per announce.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/rows.hpp"
#include "sim/inspect.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

std::size_t shared_bytes(core::IMwLLSC& obj) {
  return obj.footprint().shared_bytes();
}

std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

std::size_t lines_for(std::size_t words) { return (words + 7) / 8; }

// A row's slot in words: half a line when W <= 4, else whole lines.
std::size_t row_stride(std::size_t w) { return w <= 4 ? 4 : 8 * lines_for(w); }

// The row pool's placement: row b at b strides from a line-aligned start,
// no row straddling a line, and exactly the lines its rows fill.
void check_pool_layout(std::size_t rows, std::uint32_t w) {
  const core::RowPool<> pool(rows, w);
  CHECK_EQ(pool.words(), w);
  CHECK_EQ(pool.bytes(), 64 * lines_for(rows * row_stride(w)));
  const std::uintptr_t row0 = addr(pool.row(0));
  CHECK_EQ(row0 % 64, 0u);
  for (std::size_t b = 0; b < rows; ++b) {
    const std::uintptr_t row = addr(pool.row(b));
    CHECK_EQ(row - row0, w <= 4 ? 32u * b : 64 * lines_for(w) * b);
    // No row straddles a line: it spans the fewest lines its W words can.
    CHECK(row % 64 + 8 * w <= 64 * lines_for(w));
  }
}

// Exact shared bytes of jp, retry and am at (N, W), natively and for the
// simulated twins (the same templates, so the same layouts), plus jp's
// pool placement and its ring and announce packing through sim::Inspector.
void check_layouts(std::uint32_t n, std::uint32_t w) {
  std::size_t r = 2;
  while (r < n) r <<= 1;
  const std::size_t rows = std::size_t{n} + r + 1;
  const std::size_t jp_bytes = 64 * (1 + lines_for(rows * row_stride(w)) +
                                     lines_for(r) + lines_for(n));
  const std::size_t value_lines = lines_for((std::size_t{n} + 1) *
                                            row_stride(w));
  const std::size_t retry_bytes = 64 * (1 + value_lines);
  const std::size_t am_bytes =
      64 * (1 + value_lines +
            lines_for(std::size_t{n} * n * row_stride(w)) + n);
  CHECK_EQ(shared_bytes(*bench::factory_by_name("jp").make(n, w)), jp_bytes);
  CHECK_EQ(shared_bytes(*bench::factory_by_name("retry").make(n, w)),
           retry_bytes);
  CHECK_EQ(shared_bytes(*bench::factory_by_name("am").make(n, w)), am_bytes);
  const sim::Jp s(n, w);
  CHECK_EQ(s.footprint().shared_bytes(), jp_bytes);
  CHECK_EQ(sim::Retry(n, w).footprint().shared_bytes(), retry_bytes);
  CHECK_EQ(sim::Am(n, w).footprint().shared_bytes(), am_bytes);

  check_pool_layout(rows, w);
  using Peek = sim::Inspector<sim::Jp>;
  CHECK_EQ(Peek::num_bufs(s), rows);
  CHECK_EQ(Peek::ring_size(s), r);
  const std::uintptr_t ring0 = addr(Peek::ring_addr(s, 0));
  const std::uintptr_t ann0 = addr(Peek::announce_addr(s, 0));
  CHECK_EQ(ring0 % 64, 0u);
  CHECK_EQ(ann0 % 64, 0u);
  for (std::uint32_t j = 0; j < r; ++j) {
    CHECK_EQ(addr(Peek::ring_addr(s, j)) - ring0, 8u * j);
  }
  for (std::uint32_t p = 0; p < n; ++p) {
    CHECK_EQ(addr(Peek::announce_addr(s, p)) - ann0, 8u * p);
  }
}

}  // namespace

int main() {
  const std::uint32_t w = 16;
  const std::vector<std::uint32_t> ns = {4, 8, 16, 32, 64};
  std::vector<double> xs, jp, am, retry;
  for (std::uint32_t n : ns) {
    auto j = bench::factory_by_name("jp").make(n, w);
    auto a = bench::factory_by_name("am").make(n, w);
    auto r = bench::factory_by_name("retry").make(n, w);
    xs.push_back(n);
    jp.push_back(static_cast<double>(shared_bytes(*j)));
    am.push_back(static_cast<double>(shared_bytes(*a)));
    retry.push_back(static_cast<double>(shared_bytes(*r)));
  }

  const double jp_exp = util::fitted_exponent(xs, jp);
  const double am_exp = util::fitted_exponent(xs, am);
  const double rt_exp = util::fitted_exponent(xs, retry);
  std::printf("test_footprint: fitted exponents jp=N^%.2f am=N^%.2f "
              "retry=N^%.2f\n", jp_exp, am_exp, rt_exp);

  // jp and retry are linear in N, am quadratic (generous brackets).
  CHECK(jp_exp > 0.7 && jp_exp < 1.3);
  CHECK(rt_exp > 0.7 && rt_exp < 1.3);
  CHECK(am_exp > 1.6 && am_exp < 2.4);

  // At equal geometry am pays a factor ~Theta(N) more shared space than
  // jp. The divisor absorbs jp's constant (N+R+1 line-aligned rows plus
  // the packed ring and announce lines); the fitted exponents above carry
  // the asymptotic claim.
  const double ratio = am.back() / jp.back();
  CHECK(ratio > static_cast<double>(ns.back()) / 8);

  // Growing W grows jp linearly too (O(NW)).
  auto j16 = bench::factory_by_name("jp").make(16, 16);
  auto j64 = bench::factory_by_name("jp").make(16, 64);
  const double wratio = static_cast<double>(shared_bytes(*j64)) /
                        static_cast<double>(shared_bytes(*j16));
  CHECK(wratio > 2.5 && wratio < 4.5);

  // Exact sizes and placement: W <= 4 rows take half a line (W = 1..4),
  // W = 5..8 a whole one, and each further 8 words add a line per row.
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 8u, 9u, 64u}) {
    for (std::uint32_t wl : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 64u})
      check_layouts(n, wl);
  }
  // A few sizes worked out by hand, independent of the formulas above:
  // perfbench spread's object (N=3, W=4: 1 + 4 + 1 + 1 lines), hot's
  // (N=3, W=7: 1 + 8 + 1 + 1), the smallest and a large jp object; retry
  // at N=2, W=4 (1 + 2 lines), and am at N=2, W=1 (1 + 2 + 2 + 2).
  struct Pin { const char* impl; std::uint32_t n, w; std::size_t bytes; };
  for (const Pin& pin : {Pin{"jp", 3, 4, 448}, Pin{"jp", 3, 7, 704},
                         Pin{"jp", 1, 1, 320}, Pin{"jp", 64, 64, 67136},
                         Pin{"retry", 2, 4, 192}, Pin{"am", 2, 1, 448}}) {
    CHECK_EQ(shared_bytes(*bench::factory_by_name(pin.impl).make(pin.n,
                                                                 pin.w)),
             pin.bytes);
  }

  std::printf("test_footprint: OK\n");
  return 0;
}
