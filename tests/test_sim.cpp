// The deterministic simulator as a ctest gate, run on the shipped objects
// (core::MwLLSC, baseline::AmLLSC, baseline::RetryLLSC over sim::Memory):
//   (a) bounded-exhaustive verification — every N=2, W=2 schedule with at
//       most 2 preemptions passes I1, I2, the 4W+12 bound and the
//       sequential-spec oracle (the CHESS-style small-configuration check);
//   (b) the wait-freedom separation — the anti-adversarial scheduler
//       starves the retry strawman's victim LL without bound, while jp's
//       worst LL stays under the paper's 4W+12 bound (and am's under its
//       O(N·W) bound), flat in however long the adversary runs.
// The JpChecker additionally enforces, on every run here, that no LL
// exceeds 4W+12 steps and that the defensive retry arm never fires.
// Set MWLLSC_SIM_SOAK=1 for wider random sweeps.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;

namespace {

bool soak() {
  const char* e = std::getenv("MWLLSC_SIM_SOAK");
  return e && e[0] == '1';
}

// (a) Exhaustive small-configuration check. Two processes, two words, two
// LL..SC rounds each (with VLs mixed in), every schedule with <=2
// preemptions: the search must complete untruncated with every invariant
// green, and must actually have explored a nontrivial schedule space.
void exhaustive_small_config() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 2;
  cfg.vl_percent = 50;
  cfg.seed = 3;
  const EnumerateResult r =
      enumerate_preemption_bounded<Jp, JpChecker>(2, 2, cfg, 2, 2000000);
  if (!r.ok) std::fprintf(stderr, "CHESS search failed: %s\n", r.error.c_str());
  std::printf("exhaustive N=2 W=2 ops=2 <=2 preemptions: %llu schedules, "
              "worst LL %u\n",
              static_cast<unsigned long long>(r.schedules_explored),
              r.max_ll_steps);
  CHECK(r.ok);
  CHECK(!r.truncated);
  CHECK(r.schedules_explored > 100);
  CHECK(r.total_steps > r.schedules_explored);
  // Theorem 1's bound, exhaustively: no schedule in the search produced an
  // LL over 4W+12 steps (the checker would also have failed the search).
  CHECK(r.max_ll_steps > 0);
  CHECK(r.max_ll_steps <= Jp::ll_step_bound(2, 2));
}

// Random schedules with the full oracle, as a wider (non-exhaustive) net —
// on all three objects (the baselines get the oracle without I1/I2).
template <class Object>
void random_oracle_sweep(std::uint32_t n, std::uint32_t w) {
  const std::uint64_t seeds = soak() ? 20 : 5;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 200;
    cfg.vl_percent = 20;
    cfg.seed = s;
    SimWorkload<Object> wl(n, w, cfg);
    CheckerOf<Object> chk(wl);
    const RunResult r = run_random(wl, chk, s * 101);
    if (!r.ok) std::fprintf(stderr, "random run failed: %s\n", r.error.c_str());
    CHECK(r.ok);
    CHECK(wl.done());
  }
}

struct AdvOut {
  std::uint32_t max_ll;           // worst completed LL, steps
  std::uint32_t steps_in_flight;  // the victim's stuck op at cutoff
  std::uint64_t helps_given;
};

template <class Object>
AdvOut adversarial(std::uint32_t n, std::uint32_t w,
                   std::uint64_t max_steps) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 1000000;  // effectively unbounded within max_steps
  cfg.vl_percent = 0;
  SimWorkload<Object> wl(n, w, cfg);
  CheckerOf<Object> chk(wl);
  const RunResult r = run_adversarial_anti(wl, chk, /*victim=*/0, w + 8,
                                           max_steps);
  if (!r.ok) {
    std::fprintf(stderr, "adversarial run failed: %s\n", r.error.c_str());
  }
  CHECK(r.ok);
  return {wl.max_ll_steps(), wl.steps_in_flight(0),
          wl.object().stats().helps_given};
}

// (b) The separation Theorem 1 is about, made observable.
void adversary_separation() {
  const std::uint32_t n = 3, w = 4;
  const std::uint32_t bound = Jp::ll_step_bound(n, w);

  // jp's bound is the paper's 4W+12 — independent of N.
  const AdvOut jp_short = adversarial<Jp>(n, w, 30000);
  const AdvOut jp_long = adversarial<Jp>(n, w, 90000);
  // Wait-free: bounded, flat in the adversary's run length, and the
  // rescue actually went through the help path.
  CHECK(jp_short.max_ll <= bound);
  CHECK(jp_long.max_ll <= bound);
  CHECK_EQ(jp_long.max_ll, 2 * w + 4);  // the rescue path, exactly
  CHECK(jp_long.steps_in_flight <= bound);
  CHECK(jp_long.helps_given > 0);

  const AdvOut am_long = adversarial<Am>(n, w, 90000);
  CHECK(am_long.max_ll <= Am::ll_step_bound(n, w));
  CHECK(am_long.helps_given > 0);

  // Lock-free only: the victim's LL never completes, and its in-flight
  // step count keeps growing with the adversary's patience — already far
  // beyond anything the wait-free bound permits.
  const AdvOut rt_short = adversarial<Retry>(n, w, 30000);
  const AdvOut rt_long = adversarial<Retry>(n, w, 90000);
  CHECK(rt_short.steps_in_flight > bound);
  CHECK(rt_long.steps_in_flight > rt_short.steps_in_flight);
}

}  // namespace

int main() {
  exhaustive_small_config();
  random_oracle_sweep<Jp>(3, 3);
  random_oracle_sweep<Am>(3, 3);
  random_oracle_sweep<Retry>(3, 3);
  adversary_separation();
  std::printf("test_sim: OK\n");
  return 0;
}
