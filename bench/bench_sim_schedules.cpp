// E9 — Wait-freedom step bounds under adversarial schedules (Theorem 1),
// measured in the deterministic simulator on the shipped objects
// (core::MwLLSC, baseline::AmLLSC, baseline::RetryLLSC over sim::Memory),
// where one step is one shared-memory access.
//
// For the paper's algorithm (jp), the AM baseline and the retry strawman,
// runs seeded-random and anti-adversarial schedules and reports the MAXIMUM
// steps any single LL took. jp's worst LL must stay within the 4W+12 bound
// of Theorem 1, independent of N (its implementation's worst case is
// 3W+6: a failed unannounced attempt, then a rescued announced one). am
// stays under its O(N·W) announce/help bound (N+3)(W+3)+2W+4;
// retry's worst LL grows with however long the adversary cares to run —
// the observable difference between wait-free and merely lock-free. Both
// bounds live next to their protocols (ll_step_bound). Any cell where a
// measured worst case exceeds its bound is flagged in the status column
// and makes E9 exit nonzero (so --smoke gates CI).
//
// Every jp run executes under JpChecker (I1 buffer ownership, I2 bank
// writes, 4W+12, sequential-spec linearizability oracle) and every am and
// retry run under the oracle; any violation makes E9 exit nonzero,
// so this doubles as a verification pass.
//
// Also reports simulator throughput (steps/second) and CHESS coverage
// (schedules/second), characterizing the verification substrate itself.
//
// Run: ./bench_sim_schedules [--smoke] [--metrics PATH] [--trace PATH]
//   --smoke: reduced grid and run lengths for CI smoke testing.
//   --metrics: export worst/bound cells as gauges.
//   --trace: the protocol events of the random-schedule characterization
//   run, checkable by trace_check.
//
//   --repro '[repro: ...]': re-run the run a violation message's repro
//   block names under that object's full checker, then exit 0 if clean, 1
//   on a violation (printing the same message), 2 on a malformed block.
#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;
using util::TablePrinter;

namespace {

bool g_all_ok = true;

void note(const RunResult& r, const char* what) {
  if (!r.ok) {
    std::fprintf(stderr, "INVARIANT FAILURE (%s schedule): %s\n", what,
                 r.error.c_str());
    g_all_ok = false;
  }
}

template <typename Object>
std::uint32_t worst_ll_random(std::uint32_t n, std::uint32_t w,
                              std::uint32_t seeds) {
  std::uint32_t worst = 0;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 300;
    cfg.seed = s;
    SimWorkload<Object> wl(n, w, cfg);
    CheckerOf<Object> chk(wl);
    const RunResult r = run_random(wl, chk, {s * 7919});
    note(r, "random");
    worst = std::max(worst, r.max_ll_steps);
  }
  return worst;
}

template <typename Object>
std::uint32_t worst_ll_adversarial(std::uint32_t n, std::uint32_t w,
                                   std::uint64_t max_steps) {
  std::uint32_t worst = 0;
  for (std::uint32_t victim = 0; victim < n; ++victim) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 1000000;  // effectively unbounded within max_steps
    cfg.vl_percent = 0;
    SimWorkload<Object> wl(n, w, cfg);
    CheckerOf<Object> chk(wl);
    const RunResult r =
        run_adversarial_anti(wl, chk, victim, w + 8, max_steps);
    note(r, "adversarial");
    worst = std::max(worst, wl.max_ll_steps());
    // For a starved in-flight LL the completed-op maximum understates the
    // damage; count the stuck operation too.
    worst = std::max(worst, wl.steps_in_flight(victim));
  }
  return worst;
}

// --repro: re-run one repro block and report its verdict.
int repro(const std::string& block) {
  Repro rp;
  std::string err;
  if (!parse_repro(block, &rp, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const RunResult r = run_repro(rp, [](const auto& wl) {
    return CheckerOf<typename std::decay_t<decltype(wl)>::object_type>(wl);
  });
  if (!r.ok) {
    std::fprintf(stderr, "INVARIANT FAILURE: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("clean: %llu steps, worst LL %u steps\n",
              static_cast<unsigned long long>(r.total_steps),
              r.max_ll_steps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string block = bench::arg_value(argc, argv, "--repro");
  if (!block.empty()) return repro(block);
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::ObsSession obs(argc, argv, 3);
  const std::uint32_t seeds = smoke ? 4 : 10;
  const std::uint64_t max_steps = smoke ? 30000 : 300000;

  std::printf(
      "E9: worst-case LL steps under adversarial schedules (simulator)%s\n"
      "steps are shared-memory accesses of the shipped objects;\n"
      "jp implements the paper's full protocol: bound 4W+12 (Theorem 1);\n"
      "am keeps the announce/help O(N*W) bound (N+3)(W+3)+2W+4;\n"
      "retry has no bound — its starved column grows with the run length\n\n",
      smoke ? " [smoke]" : "");

  TablePrinter table({"N", "W", "jp bound 4W+12", "jp worst", "am bound",
                      "am worst", "retry worst (starved)", "status"});
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> grid =
      smoke ? std::vector<std::pair<std::uint32_t, std::uint32_t>>{{2, 2},
                                                                   {2, 4}}
            : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                  {2, 4}, {3, 4}, {3, 16}, {4, 8}, {8, 8}};
  for (const auto& [n, w] : grid) {
    const std::uint32_t r_rand_jp = worst_ll_random<Jp>(n, w, seeds);
    const std::uint32_t r_rand_am = worst_ll_random<Am>(n, w, seeds);
    const std::uint32_t adv_jp = worst_ll_adversarial<Jp>(n, w, max_steps);
    const std::uint32_t adv_am = worst_ll_adversarial<Am>(n, w, max_steps);
    const std::uint32_t adv_rt =
        worst_ll_adversarial<Retry>(n, w, max_steps);
    const std::uint32_t jp_worst = std::max(r_rand_jp, adv_jp);
    const std::uint32_t am_worst = std::max(r_rand_am, adv_am);
    const std::uint32_t jp_bound = Jp::ll_step_bound(n, w);
    const std::uint32_t am_bound = Am::ll_step_bound(n, w);
    const std::string cell =
        "n=\"" + std::to_string(n) + "\",w=\"" + std::to_string(w) + "\"";
    obs.registry().set_gauge(
        "mwllsc_sim_worst_ll_steps{impl=\"jp\"," + cell + "}", jp_worst);
    obs.registry().set_gauge(
        "mwllsc_sim_ll_step_bound{impl=\"jp\"," + cell + "}", jp_bound);
    obs.registry().set_gauge(
        "mwllsc_sim_worst_ll_steps{impl=\"am\"," + cell + "}", am_worst);
    obs.registry().set_gauge(
        "mwllsc_sim_ll_step_bound{impl=\"am\"," + cell + "}", am_bound);
    obs.registry().set_gauge(
        "mwllsc_sim_worst_ll_steps{impl=\"retry\"," + cell + "}", adv_rt);
    // Gate each implementation against its own bound: jp against the
    // paper's 4W+12, am against its O(N*W) formula.
    const bool violated = jp_worst > jp_bound || am_worst > am_bound;
    if (violated) {
      std::fprintf(stderr,
                   "BOUND VIOLATION at N=%u W=%u: jp=%u (bound %u) am=%u "
                   "(bound %u)\n",
                   n, w, jp_worst, jp_bound, am_worst, am_bound);
      g_all_ok = false;
    }
    table.add_row({TablePrinter::num(std::size_t{n}),
                   TablePrinter::num(std::size_t{w}),
                   TablePrinter::num(std::size_t{jp_bound}),
                   TablePrinter::num(std::size_t{jp_worst}),
                   TablePrinter::num(std::size_t{am_bound}),
                   TablePrinter::num(std::size_t{am_worst}),
                   TablePrinter::num(std::size_t{adv_rt}),
                   violated ? "VIOLATION" : "ok"});
  }
  table.print();

  // Verification-substrate throughput.
  {
    std::printf("\nsimulator characterization:\n");
    WorkloadConfig cfg;
    cfg.ops_per_proc = smoke ? 4000 : 20000;
    SimWorkload<Jp> wl(3, 4, cfg);
    obs.bind(wl.object(), "jp w=4 n=3 (simulated)");
    JpChecker chk(wl);
    util::Stopwatch sw;
    const RunResult r = run_random(wl, chk, {1});
    note(r, "characterization random");
    const double secs = sw.elapsed_s();
    std::printf(
        "  random schedule: %.2f Msteps/s with full oracle+I1+I2 checking "
        "(%llu steps, ok=%d)\n",
        static_cast<double>(r.total_steps) / secs / 1e6,
        static_cast<unsigned long long>(r.total_steps), r.ok ? 1 : 0);
  }
  {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 2;
    util::Stopwatch sw;
    const EnumerateResult r =
        enumerate_preemption_bounded<Jp, JpChecker>(2, 2, cfg, 2, 100000);
    note(r, "CHESS search");
    const double secs = sw.elapsed_s();
    std::printf(
        "  CHESS search:    %.0f schedules/s, %llu schedules with <=2 "
        "preemptions (ok=%d)\n",
        static_cast<double>(r.schedules_explored) / secs,
        static_cast<unsigned long long>(r.schedules_explored), r.ok ? 1 : 0);
  }
  {
    // Crash-stop churn: periodic crash injection + delayed reclamation
    // under the full checker — live processes must stay inside 4W+12 with
    // I1/I2 exact throughout.
    WorkloadConfig cfg;
    cfg.ops_per_proc = smoke ? 2000 : 10000;
    SimWorkload<Jp> wl(3, 4, cfg);
    JpChecker chk(wl);
    const RunResult r = run_random(wl, chk, {42, 53, 23, 1});
    note(r, "crash churn");
    std::printf(
        "  crash churn:     %llu steps, %llu crashes / %llu reclaims, "
        "worst live LL %u steps (bound %u, ok=%d)\n",
        static_cast<unsigned long long>(r.total_steps),
        static_cast<unsigned long long>(wl.crashes_total()),
        static_cast<unsigned long long>(wl.crash_reclaims_total()),
        r.max_ll_steps, Jp::ll_step_bound(3, 4), r.ok ? 1 : 0);
  }
  if (!obs.finish()) return 1;
  if (!g_all_ok) {
    std::fprintf(stderr, "\nE9: FAILED — invariant or bound violations\n");
    return 1;
  }
  return 0;
}
