// The deterministic simulator as a ctest gate, run on the shipped objects
// (core::MwLLSC, baseline::AmLLSC, baseline::RetryLLSC over sim::Memory):
//   (a) bounded-exhaustive verification — every N=2, W=2 schedule with at
//       most 2 preemptions passes I1, I2, the 4W+12 bound and the
//       sequential-spec oracle (the CHESS-style small-configuration check),
//       and so does every schedule of a one-LL reader against a busy
//       writer with at most 3 preemptions — the shape that reaches jp's
//       announced path (slow LL, donation, withdraw lost to a donation,
//       rescue) — at N=2 and, with an idle third process, at N=3, where
//       the probe window P = 4 exceeds N and the ring must age R >= P;
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
#include <string>
#include <vector>

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

// (a') The announced path, exhaustively. An LL announces only after its
// unannounced first attempt saw more than P SCs land, and a rescue needs
// P+1 more inside the announced attempt: 2(P+1) commits inside one LL,
// which the two-op scripts above cannot produce. So p1 is a busy writer
// against p0's single LL;SC, and every schedule with at most 3 preemptions
// is explored (p0 links, p1 lands P+1 SCs, p0 fails over and announces, p1
// lands up to P+1 more). At N=2, P = 2 and p1 runs 6 rounds. At N=3, P = 4
// and p1 runs 11 rounds while p2 stays idle: the smallest shape where a
// ring of fewer than P cells makes p0's LL return a value the object never
// held. The search must actually reach every arm of the help machinery,
// and the rescue sets the worst case, 3W+6 accesses.
void exhaustive_announced_path(std::uint32_t n, std::uint32_t w,
                               std::vector<std::uint32_t> ops) {
  WorkloadConfig cfg;
  cfg.ops_by_pid = ops;
  cfg.vl_percent = 50;
  cfg.seed = 3;
  const EnumerateResult r =
      enumerate_preemption_bounded<Jp, JpChecker>(n, w, cfg, 3, 2000000);
  if (!r.ok) std::fprintf(stderr, "CHESS search failed: %s\n", r.error.c_str());
  const core::OpStatsSnapshot& s = r.stats;
  std::string list;
  for (const std::uint32_t k : ops) {
    list += (list.empty() ? "" : ",") + std::to_string(k);
  }
  std::printf("exhaustive N=%u W=%u ops={%s} <=3 preemptions: %llu "
              "schedules, worst LL %u; summed over schedules: %llu slow LLs, "
              "%llu donations, %llu withdraws lost to a donation, %llu "
              "rescues\n",
              n, w, list.c_str(),
              static_cast<unsigned long long>(r.schedules_explored),
              r.max_ll_steps, static_cast<unsigned long long>(s.ll_slow),
              static_cast<unsigned long long>(s.helps_given),
              static_cast<unsigned long long>(s.ll_helped -
                                              s.ll_used_helped_value),
              static_cast<unsigned long long>(s.ll_used_helped_value));
  CHECK(r.ok);
  CHECK(!r.truncated);
  CHECK(s.ll_slow > 0);                             // a slow LL announced
  CHECK(s.helps_given > 0);                         // a pre-SC donation
  CHECK(s.ll_helped > s.ll_used_helped_value);      // a withdraw lost to one
  CHECK(s.ll_used_helped_value > 0);                // a rescue
  CHECK(s.ll_helped <= s.ll_slow);  // only announced LLs get helped
  CHECK_EQ(s.ll_retries, 0u);
  CHECK_EQ(r.max_ll_steps, 3 * w + 6);
  CHECK(r.max_ll_steps <= Jp::ll_step_bound(n, w));
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
    const RunResult r = run_random(wl, chk, {s * 101});
    if (!r.ok) std::fprintf(stderr, "random run failed: %s\n", r.error.c_str());
    CHECK(r.ok);
    CHECK(wl.done());
  }
}

struct AdvOut {
  std::uint32_t max_ll;           // worst completed LL, steps
  std::uint32_t steps_in_flight;  // the victim's stuck op at cutoff
  core::OpStatsSnapshot stats;
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
  return {wl.max_ll_steps(), wl.steps_in_flight(0), wl.object().stats()};
}

// (b) The separation Theorem 1 is about, made observable.
void adversary_separation() {
  const std::uint32_t n = 3, w = 4;
  const std::uint32_t bound = Jp::ll_step_bound(n, w);

  // jp's bound is the paper's 4W+12 — independent of N.
  const AdvOut jp_short = adversarial<Jp>(n, w, 30000);
  const AdvOut jp_long = adversarial<Jp>(n, w, 90000);
  // Wait-free: bounded, flat in the adversary's run length, and the
  // rescue actually went through the help path — after the victim's
  // unannounced first attempt failed, so every helped LL was a slow one.
  CHECK(jp_short.max_ll <= bound);
  CHECK(jp_long.max_ll <= bound);
  CHECK_EQ(jp_long.max_ll, 3 * w + 6);  // the rescue path, exactly
  CHECK(jp_long.steps_in_flight <= bound);
  CHECK(jp_long.stats.helps_given > 0);
  CHECK(jp_long.stats.ll_slow > 0);
  CHECK(jp_long.stats.ll_helped <= jp_long.stats.ll_slow);

  const AdvOut am_long = adversarial<Am>(n, w, 90000);
  CHECK(am_long.max_ll <= Am::ll_step_bound(n, w));
  CHECK(am_long.stats.helps_given > 0);

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
  exhaustive_announced_path(2, 2, {1, 6});
  exhaustive_announced_path(3, 1, {1, 11, 0});
  random_oracle_sweep<Jp>(3, 3);
  random_oracle_sweep<Am>(3, 3);
  random_oracle_sweep<Retry>(3, 3);
  adversary_separation();
  std::printf("test_sim: OK\n");
  return 0;
}
