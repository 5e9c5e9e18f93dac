// E6 — Ablations of the paper's design choices (DESIGN.md §4).
//
// (a) Ownership exchange vs copy-based helping: jp and am share the same
//     announce/help schedule; am replaces the O(1) buffer exchange with an
//     O(W) copy into an O(N^2 W) handoff matrix. Measures the per-op cost
//     of that difference at equal (N, W) — the time price am pays on top of
//     its space price.
// (b) VL cost: O(1) validation vs re-running a full O(W) LL — why the
//     paper bothers exposing VL at all.
//
// Run: ./bench_ablation [--trace PATH] [--metrics PATH]
//      (a trace of a full run wraps the per-process rings, so the export
//      keeps only each ring's newest events — fine for eyeballing in
//      Perfetto, and the offline checker tolerates the truncation)
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "baseline/am_llsc.hpp"
#include "bench_common.hpp"
#include "core/mwllsc.hpp"

using namespace mwllsc;

namespace {

using Jp = core::MwLLSC<llsc::Engine>;
using Am = baseline::AmLLSC<llsc::Engine>;

bench::ObsSession* g_obs = nullptr;

template <typename Impl>
const char* impl_label();
template <>
const char* impl_label<Jp>() { return "jp"; }
template <>
const char* impl_label<Am>() { return "am"; }

// (a): contended RMW pairs. google-benchmark's ->Threads(t) runs the
// loop on t threads; each uses its thread_index as process id.
template <typename Impl>
void BM_ContendedRmw(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  static Impl* obj = nullptr;
  if (state.thread_index() == 0) {
    obj = new Impl(static_cast<std::uint32_t>(state.threads()), w);
    if (g_obs) {
      g_obs->bind_obj(*obj, std::string(impl_label<Impl>()) + " ablation n=" +
                                std::to_string(state.threads()));
    }
  }
  std::vector<std::uint64_t> value(w);
  for (auto _ : state) {
    const auto p = static_cast<std::uint32_t>(state.thread_index());
    obj->ll(p, value.data());
    value[0] += 1;
    benchmark::DoNotOptimize(obj->sc(p, value.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    const auto s = obj->stats();
    state.counters["sc_success_pct"] =
        100.0 * static_cast<double>(s.sc_success) /
        static_cast<double>(s.sc_ops);
    if (g_obs) {
      g_obs->registry().absorb("impl=\"" + std::string(impl_label<Impl>()) +
                                   "\",threads=\"" +
                                   std::to_string(state.threads()) + "\"",
                               s);
    }
    delete obj;
    obj = nullptr;
  }
}

// (b): VL vs LL as a "did anything change?" probe.
void BM_ProbeWithVl(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  Jp obj(2, w);
  std::vector<std::uint64_t> out(w);
  obj.ll(0, out.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(obj.vl(0));  // O(1)
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ProbeWithLl(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  Jp obj(2, w);
  std::vector<std::uint64_t> out(w);
  for (auto _ : state) {
    obj.ll(0, out.data());  // O(W)
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

// (a) ownership exchange (jp) vs help-copy (am), multi-threaded.
BENCHMARK_TEMPLATE(BM_ContendedRmw, Jp)
    ->Arg(16)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedRmw, Am)
    ->Arg(16)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// (b) VL's O(1) probe vs an O(W) LL re-read.
BENCHMARK(BM_ProbeWithVl)->Arg(4)->Arg(64)->Arg(1024);
BENCHMARK(BM_ProbeWithLl)->Arg(4)->Arg(64)->Arg(1024);

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv, 8);
  g_obs = &obs;
  std::vector<char*> args = bench::strip_obs_flags(argc, argv);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return obs.finish() ? 0 : 1;
}
