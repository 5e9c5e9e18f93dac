// E2 — Time complexity (Theorem 1): LL and SC run in O(W), VL in O(1).
//
// Uncontended single-thread latency of LL, an LL;SC pair and VL as W
// sweeps 1..1024, for every implementation behind the IMwLLSC facade, so
// all four run identical driver code. The expected shape: LL and the pair
// grow linearly with W (the W-word copies dominate); VL stays flat. am's
// SC carries the extra help-copy overhead. jp's `ll` and `vl` columns are
// also the probe ablation (E6(b)): VL answers "did anything change?" in
// O(1) where re-running the LL costs O(W).
//
// One stopwatch sweep per invocation: the table and the --json rows are
// the same cells. The run exits 1 if a VL after a bare LL ever returns
// false, or if jp takes a defensive LL retry.
//
// Run: ./bench_latency_vs_w                 table
//      ./bench_latency_vs_w --json PATH     the same cells as BENCH_*.json
//        [--smoke]                          reduced grid for CI
//        [--trace PATH] [--metrics PATH]    obs/ export (bench_common.hpp)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

/// Measures one (impl, W) cell: `iters` LLs, LL;SC pairs and VLs, in that
/// order, on process 0 of a 2-process object. Returns false if the cell
/// broke one of the run's checks.
bool measure_cell(const core::MwLLSCFactory& f, std::uint32_t w,
                  std::uint64_t iters, bench::ObsSession& obs,
                  bench::JsonEmitter& out, TablePrinter& table) {
  auto obj = f.make(2, w);
  obs.bind(*obj, f.name + " latency w=" + std::to_string(w));
  std::vector<std::uint64_t> value(w);
  const auto per_op_ns = [iters](const util::Stopwatch& sw) {
    return sw.elapsed_s() * 1e9 / static_cast<double>(iters);
  };

  util::Stopwatch sw;
  for (std::uint64_t i = 0; i < iters; ++i) obj->ll(0, value.data());
  const double ll_ns = per_op_ns(sw);

  sw.reset();
  for (std::uint64_t i = 0; i < iters; ++i) {
    obj->ll(0, value.data());
    value[0] += 1;
    obj->sc(0, value.data());
  }
  const double pair_ns = per_op_ns(sw);

  // Nothing writes between this LL and the VLs, so every VL must hold.
  obj->ll(0, value.data());
  std::uint64_t valid = 0;
  sw.reset();
  for (std::uint64_t i = 0; i < iters; ++i) valid += obj->vl(0) ? 1 : 0;
  const double vl_ns = per_op_ns(sw);

  const auto s = obj->stats();
  obs.registry().absorb(
      "impl=\"" + f.name + "\",w=\"" + std::to_string(w) + "\"", s);
  for (const auto& [op, ns] :
       {std::pair<const char*, double>{"ll", ll_ns},
        {"llsc_pair", pair_ns},
        {"vl", vl_ns}}) {
    out.begin_row();
    out.field("impl", f.name);
    out.field("op", op);
    out.field("w", std::uint64_t{w});
    out.field("ns_per_op", ns);
  }
  table.add_row({TablePrinter::num(std::size_t{w}), f.name,
                 TablePrinter::num(ll_ns, 1), TablePrinter::num(pair_ns, 1),
                 TablePrinter::num(vl_ns, 1)});

  bool ok = true;
  if (valid != iters) {
    std::fprintf(stderr, "%s W=%u: %llu of %llu VLs after a bare LL failed\n",
                 f.name.c_str(), w,
                 static_cast<unsigned long long>(iters - valid),
                 static_cast<unsigned long long>(iters));
    ok = false;
  }
  // The jp protocol must never take its defensive retry arm.
  if (f.name == "jp" && s.ll_retries != 0) {
    std::fprintf(stderr, "jp took %llu defensive LL retries at W=%u\n",
                 static_cast<unsigned long long>(s.ll_retries), w);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::arg_value(argc, argv, "--json");
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::ObsSession obs(argc, argv, 2);
  const std::vector<std::uint32_t> ws =
      smoke ? std::vector<std::uint32_t>{1, 4, 16}
            : std::vector<std::uint32_t>{1, 4, 16, 64, 256, 1024};
  bench::JsonEmitter out("latency_vs_w",
                         "uncontended single-thread latency; LL/SC O(W), "
                         "VL O(1); jp LL bound 4W+12 steps");

  std::printf(
      "E2: uncontended single-thread latency, ns per operation\n"
      "expectation: LL and LL;SC linear in W, VL flat\n\n");
  TablePrinter table({"W", "impl", "LL", "LL;SC", "VL"});
  bool ok = true;
  for (const std::uint32_t w : ws) {
    const std::uint64_t iters =
        (smoke ? 200000u : 2000000u) / (w + 16) + 1000;
    for (const auto& f : bench::all_factories()) {
      if (!measure_cell(f, w, iters, obs, out, table)) ok = false;
    }
  }
  table.print();

  if (!json_path.empty() && !out.write(json_path)) ok = false;
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
