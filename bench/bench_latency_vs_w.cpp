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
// Each (impl, W) cell runs one untimed warm-up pass, then kRepeats timed
// passes; the four implementations take turns inside each repeat, so a
// slow stretch of the machine lands on all of them alike. The table and
// the --json rows report the median and quartiles of the repeats. The
// run exits 1 if a VL after a bare LL ever returns false, or if jp takes
// a defensive LL retry.
//
// Run: ./bench_latency_vs_w                 table
//      ./bench_latency_vs_w --json PATH     the same cells as BENCH_*.json
//        [--smoke]                          reduced grid for CI
//        [--trace PATH] [--metrics PATH]    obs/ export (bench_common.hpp)
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

/// Timed passes per cell, after one untimed warm-up pass. Odd, so the
/// median and quartiles are single samples.
constexpr int kRepeats = 9;

constexpr std::array<const char*, 3> kOps = {"ll", "llsc_pair", "vl"};

/// One (impl, W) cell: its object, on process 0 of a 2-process instance,
/// and the ns/op samples of each op in kOps order.
struct Cell {
  const core::MwLLSCFactory* f;
  std::unique_ptr<core::IMwLLSC> obj;
  std::array<std::vector<double>, kOps.size()> ns;
  std::uint64_t vl_failed = 0;
};

/// One pass over `c`: `iters` LLs, LL;SC pairs and VLs, in that order.
/// Records the samples unless it is the warm-up.
void run_pass(Cell& c, std::uint32_t w, std::uint64_t iters, bool record) {
  std::vector<std::uint64_t> value(w);
  core::IMwLLSC& obj = *c.obj;
  const auto per_op_ns = [iters](const util::Stopwatch& sw) {
    return sw.elapsed_s() * 1e9 / static_cast<double>(iters);
  };
  std::array<double, kOps.size()> ns{};

  util::Stopwatch sw;
  for (std::uint64_t i = 0; i < iters; ++i) obj.ll(0, value.data());
  ns[0] = per_op_ns(sw);

  sw.reset();
  for (std::uint64_t i = 0; i < iters; ++i) {
    obj.ll(0, value.data());
    value[0] += 1;
    obj.sc(0, value.data());
  }
  ns[1] = per_op_ns(sw);

  // Nothing writes between this LL and the VLs, so every VL must hold.
  obj.ll(0, value.data());
  std::uint64_t valid = 0;
  sw.reset();
  for (std::uint64_t i = 0; i < iters; ++i) valid += obj.vl(0) ? 1 : 0;
  ns[2] = per_op_ns(sw);

  c.vl_failed += iters - valid;
  if (record) {
    for (std::size_t op = 0; op < kOps.size(); ++op) c.ns[op].push_back(ns[op]);
  }
}

/// The q-quantile of `v` by nearest rank.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

/// Reports one cell's rows and checks. Returns false if the cell broke one
/// of the run's checks.
bool report_cell(const Cell& c, std::uint32_t w, bench::ObsSession& obs,
                 bench::JsonEmitter& out, TablePrinter& table) {
  const std::string& name = c.f->name;
  const auto s = c.obj->stats();
  obs.registry().absorb(
      "impl=\"" + name + "\",w=\"" + std::to_string(w) + "\"", s);
  std::vector<std::string> row = {TablePrinter::num(std::size_t{w}), name};
  for (std::size_t op = 0; op < kOps.size(); ++op) {
    const double q1 = quantile(c.ns[op], 0.25);
    const double med = quantile(c.ns[op], 0.5);
    const double q3 = quantile(c.ns[op], 0.75);
    out.begin_row();
    out.field("impl", name);
    out.field("op", kOps[op]);
    out.field("w", std::uint64_t{w});
    out.field("ns_per_op", med);
    out.field("q1_ns", q1);
    out.field("q3_ns", q3);
    out.field("repeats", std::uint64_t{kRepeats});
    row.push_back(TablePrinter::num(med, 1) + " [" +
                  TablePrinter::num(q1, 1) + ", " +
                  TablePrinter::num(q3, 1) + "]");
  }
  table.add_row(std::move(row));

  bool ok = true;
  if (c.vl_failed != 0) {
    std::fprintf(stderr, "%s W=%u: %llu VLs after a bare LL failed\n",
                 name.c_str(), w,
                 static_cast<unsigned long long>(c.vl_failed));
    ok = false;
  }
  // The jp protocol must never take its defensive retry arm.
  if (name == "jp" && s.ll_retries != 0) {
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
                         "VL O(1); jp LL bound 4W+12 steps; median and "
                         "quartiles of repeats");

  std::printf(
      "E2: uncontended single-thread latency, ns per operation, median "
      "[q1, q3] of %d repeats\n"
      "expectation: LL and LL;SC linear in W, VL flat\n\n",
      kRepeats);
  TablePrinter table({"W", "impl", "LL", "LL;SC", "VL"});
  const std::vector<core::MwLLSCFactory> factories = bench::all_factories();
  bool ok = true;
  for (const std::uint32_t w : ws) {
    const std::uint64_t iters =
        (smoke ? 200000u : 2000000u) / (w + 16) + 1000;
    std::vector<Cell> cells;
    for (const auto& f : factories) {
      cells.push_back({&f, f.make(2, w), {}, 0});
      obs.bind(*cells.back().obj, f.name + " latency w=" + std::to_string(w));
    }
    for (int r = -1; r < kRepeats; ++r) {  // r = -1 is the warm-up
      for (Cell& c : cells) run_pass(c, w, iters, r >= 0);
    }
    for (const Cell& c : cells) {
      if (!report_cell(c, w, obs, out, table)) ok = false;
    }
  }
  table.print();

  if (!json_path.empty() && !out.write(json_path)) ok = false;
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
