// Crash-stop fault injection in the deterministic simulator, on the
// shipped core::MwLLSC (its own rebind_pid reissues a pid):
//   (a) bounded-exhaustive search with a crash budget — every N=2, W=2
//       schedule with <=2 preemptions AND a crash-stop of the currently
//       scheduled process injected at every protocol step (plus a
//       2-crash / N=3 variant, and a one-LL reader against a busy writer
//       that reaches the announced path, at N=2 and N=3) keeps I1, I2, the
//       4W+12 bound and the sequential-spec oracle green for the live
//       processes;
//   (b) directed schedules for the nastiest lifecycle points — a helper
//       frozen right after its donation, a winner frozen between its X SC
//       and its ring swap, a victim frozen between announce and withdraw,
//       a holder leaving after its last SC donated as a helper (then its
//       pid is reissued), and a helper whose own slot still holds a stale
//       HELPED word — asserting that the survivors stay inside 4W+12 and
//       the buffer-ownership census (I1) and the bank-write equation (I2)
//       stay exact at every step;
//   (c) replay round-trip — a recorded crash-churn schedule re-executes
//       token-for-token to the same step count;
//   (d) every runner's violation message carries a repro block that
//       parse_repro and run_repro turn back into the same violation at the
//       same step.
// Set MWLLSC_SIM_SOAK=1 for a longer churn soak (the CI fault-injection
// job does, under ASan and TSan).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;

namespace {

using Peek = Inspector<Jp>;

// (a) Exhaustive small configurations with a crash budget. The enumerator
// exploits that a crash is protocol-inert (a frozen process changes no
// shared word), so injecting the crash right before the victim's next
// step covers crash-at-every-protocol-step without redundant placements.
void exhaustive_with_crashes() {
  struct Shape {
    std::uint32_t n, w;
    std::vector<std::uint32_t> ops;  ///< every pid's rounds, or one per pid
    std::uint32_t preempts, crashes;
  };
  const Shape shapes[] = {
      {2, 2, {2}, 2, 0},  // the crash-free baseline of the next shape
      {2, 2, {2}, 2, 1},  // one crash anywhere
      {2, 2, {2}, 1, 2},  // both processes can die
      {3, 2, {1}, 1, 2},  // three procs, two corpses, survivors finish
      // A one-LL reader against a busy writer: the writer can doom the
      // reader's unannounced attempt, so crashes land inside the announced
      // path too (a corpse's posted announce collecting donations). At
      // N=3 the probe window P = 4 exceeds N.
      {2, 2, {1, 6}, 2, 1},
      {3, 1, {1, 11, 0}, 2, 1},
  };
  constexpr std::size_t kShapes = sizeof(shapes) / sizeof(shapes[0]);
  std::uint64_t explored[kShapes] = {};
  for (std::size_t i = 0; i < kShapes; ++i) {
    const Shape& s = shapes[i];
    const bool busy = s.ops.size() > 1;
    WorkloadConfig cfg;
    cfg.ops_per_proc = s.ops[0];
    if (busy) cfg.ops_by_pid = s.ops;
    cfg.vl_percent = 50;
    cfg.seed = 3;
    const EnumerateResult r = enumerate_preemption_bounded<Jp, JpChecker>(
        s.n, s.w, cfg, s.preempts, 4000000, s.crashes);
    if (!r.ok) {
      std::fprintf(stderr, "crash CHESS (n=%u w=%u p=%u c=%u) failed: %s\n",
                   s.n, s.w, s.preempts, s.crashes, r.error.c_str());
    }
    std::printf("exhaustive N=%u W=%u ops=%u", s.n, s.w, s.ops[0]);
    for (std::size_t k = 1; k < s.ops.size(); ++k) {
      std::printf(",%u", s.ops[k]);
    }
    std::printf(" <=%u preemptions %u crashes: %llu schedules, worst LL %u, "
                "%llu slow LLs, %llu donations (summed)\n",
                s.preempts, s.crashes,
                static_cast<unsigned long long>(r.schedules_explored),
                r.max_ll_steps,
                static_cast<unsigned long long>(r.stats.ll_slow),
                static_cast<unsigned long long>(r.stats.helps_given));
    CHECK(r.ok);
    CHECK(!r.truncated);
    CHECK(r.schedules_explored > 100);
    // Live processes stayed wait-free in every schedule: the checker
    // enforces 4W+12 + the oracle per completed op, and completed ops
    // exist (crashes never claim every process before its first SC).
    CHECK(r.max_ll_steps > 0);
    CHECK(r.max_ll_steps <= Jp::ll_step_bound(s.n, s.w));
    if (busy) {
      CHECK(r.stats.ll_slow > 0);
      CHECK(r.stats.helps_given > 0);
    }
    explored[i] = r.schedules_explored;
  }
  // The crash budget must actually enlarge the explored space over the
  // crash-free search of the same shape.
  CHECK(explored[1] > explored[0]);
}

WorkloadConfig directed(std::uint32_t ops, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = ops;
  cfg.vl_percent = 0;
  cfg.seed = seed;
  return cfg;
}

// Steps p until `cond` holds, with a hard step budget. Returns false if
// the budget ran out or the checker failed (callers CHECK it).
template <class Cond>
bool step_until(SimWorkload<Jp>& wl, JpChecker& chk, std::uint32_t p,
                Cond cond, std::uint32_t budget = 5000) {
  while (budget--) {
    if (cond()) return true;
    if (wl.proc_done(p)) return false;
    wl.step(p, chk);
    if (!chk.ok()) {
      std::fprintf(stderr, "checker: %s [schedule=%s]\n",
                   chk.error().c_str(), wl.schedule_string().c_str());
      return false;
    }
  }
  return false;
}

// Drives `victim` into its announced attempt. An LL announces only once
// its unannounced first attempt is doomed, so: the victim links X for that
// attempt, `writer` lands doom_delta() = P+1 successful SCs, and the victim
// validates, fails over and posts its announce (parked before its second
// X link). Returns false if a step budget ran out or the checker failed.
bool force_announce(SimWorkload<Jp>& wl, JpChecker& chk, std::uint32_t victim,
                    std::uint32_t writer) {
  const Jp& obj = wl.object();
  wl.step(victim, chk);  // the unannounced attempt's X link
  const std::uint64_t v0 = wl.version();
  return step_until(wl, chk, writer,
                    [&] { return wl.version() - v0 >= wl.doom_delta(); }) &&
         step_until(wl, chk, victim,
                    [&] { return Peek::announce_posted(obj, victim); });
}

// Runs every runnable process round-robin to completion.
void drain(SimWorkload<Jp>& wl, JpChecker& chk) {
  std::uint32_t guard = 200000;
  while (!wl.done() && guard--) {
    for (std::uint32_t p = 0; p < wl.n(); ++p) {
      if (!wl.proc_done(p)) {
        wl.step(p, chk);
        break;
      }
    }
  }
  if (!chk.ok()) std::fprintf(stderr, "checker: %s\n", chk.error().c_str());
  CHECK(chk.ok());
  CHECK(wl.done());
}

// (b1) Helper freezes right after its donation CAS (before its own X SC).
// The victim must consume the orphaned donation and finish inside 4W+12,
// with the census exact while the corpse holds the buffer it took in the
// exchange.
void crash_helper_after_donation() {
  SimWorkload<Jp> wl(2, 2, directed(6, 1));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  const std::uint32_t victim = 0, helper = 1;

  // Victim: into its LL far enough to have announced.
  CHECK(force_announce(wl, chk, victim, helper));
  // Helper: run until its SC posts a donation into the victim's slot.
  CHECK(step_until(wl, chk, helper,
                   [&] { return Peek::donation_posted(obj, victim); }));
  wl.crash(helper, chk);
  CHECK(chk.ok());

  // The victim's LL completes, consuming the corpse's donation.
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, chk, victim,
                   [&] { return wl.completed_lls() > lls_before; }));
  CHECK(wl.max_ll_steps() <= Jp::ll_step_bound(2, 2));
  drain(wl, chk);
  CHECK_EQ(obj.stats().ll_retries, 0u);
}

// (b2) A winner freezes between its X SC and its ring swap: the bank write
// stays owed. The census counts the retiree as the corpse's provisional
// spare and I2 counts the write as pending, while the survivor laps the
// ring past the corpse's cell.
void crash_winner_before_ring_swap() {
  SimWorkload<Jp> wl(2, 2, directed(6, 4));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  const std::uint32_t winner = 1;
  CHECK(step_until(wl, chk, winner,
                   [&] { return Peek::retire_pending(obj, winner); }));
  wl.crash(winner, chk);
  CHECK(chk.ok());
  CHECK(step_until(wl, chk, 0, [&] { return wl.proc_done(0); }));
  CHECK(wl.done());
  CHECK(Peek::retire_pending(obj, winner));
  CHECK_EQ(obj.stats().bank_writes + 1, obj.stats().sc_success);
}

// (b3) Victim freezes between announce and withdraw. Helpers keep donating
// into the corpse's WAITING slot; every donated buffer must stay exactly
// once-owned (I1) while the corpse holds it.
void crash_victim_mid_announce() {
  SimWorkload<Jp> wl(2, 2, directed(8, 2));
  JpChecker chk(wl);
  const std::uint32_t victim = 0, helper = 1;

  CHECK(force_announce(wl, chk, victim, helper));
  wl.crash(victim, chk);
  CHECK(chk.ok());

  // The helper churns through its whole script against the corpse —
  // donations to the dead announce land and sit there; the helper itself
  // must stay wait-free the entire time.
  CHECK(step_until(wl, chk, helper, [&] { return wl.proc_done(helper); },
                   50000));
  CHECK(wl.max_ll_steps() <= Jp::ll_step_bound(2, 2));
  CHECK(wl.done());
  // Nothing settles the corpse's announce: it stays in flight.
  const Jp& obj = wl.object();
  CHECK(Peek::announce_posted(obj, victim) ||
        Peek::donation_posted(obj, victim));
}

// (b4) The rebind_pid fix: p1's SC donates to p0, p1's holder leaves at an
// op boundary (crash then reclaim models a retirement too), pid 1 is
// reissued and the new holder runs LL;SC. p1's slot word still names the
// buffer it donated; the new holder must get the one p1 took in exchange
// (Priv::spare), or two owners share a buffer.
void reissue_after_helper_donation() {
  SimWorkload<Jp> wl(2, 2, directed(6, 1));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  CHECK(force_announce(wl, chk, 0, 1));
  CHECK(step_until(wl, chk, 1, [&] { return Peek::donation_posted(obj, 0); }));
  // p1 finishes its SC and stops at the next op boundary: it retires.
  CHECK(step_until(wl, chk, 1, [&] { return wl.at_boundary(1); }));
  CHECK(obj.stats().helps_given == 1);
  wl.crash(1, chk);
  wl.reclaim(1, chk);
  if (!chk.ok()) std::fprintf(stderr, "checker: %s\n", chk.error().c_str());
  CHECK(chk.ok());
  // The new holder's LL;SC, then everyone finishes.
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, chk, 1,
                   [&] { return wl.completed_lls() > lls_before; }));
  drain(wl, chk);
}

// (b5) The stale-HELPED census rule. p0's slow LL loses its withdraw to
// p1's donation (or is rescued by it), so p0's slot keeps that HELPED word
// after the LL. p0 then donates the adopted buffer to p1 as a helper: the
// stale word still names it, but p1 owns it now. The census, run every
// step, must take p0's private buffer from Priv::spare, trusting only a
// non-IDLE word that carries p0's current seq.
void stale_helped_word_after_donating() {
  SimWorkload<Jp> wl(2, 2, directed(12, 1));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  CHECK(force_announce(wl, chk, 0, 1));
  CHECK(step_until(wl, chk, 1, [&] { return Peek::donation_posted(obj, 0); }));
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, chk, 0,
                   [&] { return wl.completed_lls() > lls_before; }));
  CHECK_EQ(obj.stats().ll_helped, 1u);
  CHECK(step_until(wl, chk, 1, [&] { return wl.at_boundary(1); }));
  // Roles swap: p1 announces and p0's SC donates to it.
  CHECK(force_announce(wl, chk, 1, 0));
  CHECK(step_until(wl, chk, 0, [&] { return Peek::donation_posted(obj, 1); }));
  CHECK_EQ(obj.stats().helps_given, 2u);
  drain(wl, chk);
}

// (c) A recorded crash-churn schedule replays token-for-token.
void replay_roundtrip() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 40;
  cfg.seed = 5;
  SimWorkload<Jp> wl(3, 3, cfg);
  JpChecker chk(wl);
  const RunResult first = run_random(wl, chk, {9, 31, 17, 1});
  CHECK(first.ok);
  CHECK(wl.crashes_total() > 0);

  SimWorkload<Jp> wl2(3, 3, cfg);
  JpChecker chk2(wl2);
  const RunResult again = run_replay(wl2, chk2, wl.schedule_string());
  if (!again.ok) {
    std::fprintf(stderr, "replay failed: %s\n", again.error.c_str());
  }
  CHECK(again.ok);
  CHECK_EQ(again.total_steps, first.total_steps);
  CHECK_EQ(wl2.crashes_total(), wl.crashes_total());
  CHECK_EQ(wl2.crash_reclaims_total(), wl.crash_reclaims_total());
  CHECK(wl2.schedule_string() == wl.schedule_string());
}

// (d) Violations reproduce: a synthetic checker failure mid-run comes back
// with a repro block, and the parsed block, re-run under the same checker,
// fails with the same message (so at the same schedule).
struct FailAfter {
  std::uint64_t budget = 40;
  bool failed = false;
  std::string err = "synthetic failure (test)";
  template <class W>
  explicit FailAfter(const W&) {}
  template <class W>
  void on_step(const W&) {
    if (budget == 0) failed = true;
    else --budget;
  }
  template <class W>
  void on_op(const W&, const OpRecord&) {}
  template <class W>
  void on_rebind(const W&, std::uint32_t) {}
  bool ok() const { return !failed; }
  const std::string& error() const { return err; }
};

// Parses a violation's repro block and re-runs it under a fresh FailAfter:
// the same message, and for a seeded run (whose block carries no schedule)
// the same step count.
void expect_repro(const RunResult& first) {
  Repro rp;
  std::string err;
  CHECK(!first.ok);
  CHECK(parse_repro(first.error, &rp, &err));
  const RunResult again =
      run_repro(rp, [](const auto& wl) { return FailAfter(wl); });
  if (again.error != first.error) {
    std::fprintf(stderr, "repro: %s\nagain: %s\n", first.error.c_str(),
                 again.error.c_str());
  }
  CHECK(!again.ok);
  CHECK(again.error == first.error);
  if (rp.schedule.empty()) CHECK_EQ(again.total_steps, first.total_steps);
}

void violations_carry_repro() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 20;
  SimWorkload<Am> random_wl(2, 2, cfg);
  SimWorkload<Jp> churn_wl(3, 2, cfg);
  SimWorkload<Retry> anti_wl(2, 2, cfg);
  FailAfter random_chk(random_wl), churn_chk(churn_wl), anti_chk(anti_wl);
  expect_repro(run_random(random_wl, random_chk, {1234}));
  expect_repro(run_random(churn_wl, churn_chk, {77, 7, 5, 2}));
  CHECK(churn_wl.crashes_total() > 1);
  expect_repro(run_adversarial_anti(anti_wl, anti_chk, 1, 10, 10000));
  // The first schedule the search explores crashes p0 at once.
  const EnumerateResult e =
      enumerate_preemption_bounded<Jp, FailAfter>(2, 2, cfg, 0, 1000, 1);
  CHECK(e.error.find(" schedule=c0,1,") != std::string::npos);
  expect_repro(e);
}

// Churn soak: randomized crash/reclaim cycling with the full checker.
// MWLLSC_SIM_SOAK=1 (the CI fault-injection job) widens it.
void churn_soak() {
  const bool soak = []() {
    const char* e = std::getenv("MWLLSC_SIM_SOAK");
    return e && e[0] == '1';
  }();
  const std::uint64_t seeds = soak ? 12 : 3;
  const std::uint32_t ops = soak ? 3000 : 400;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = ops;
    cfg.vl_percent = 15;
    cfg.seed = s;
    SimWorkload<Jp> wl(4, 3, cfg);
    JpChecker chk(wl);
    RandomConfig churn;
    churn.sched_seed = s * 7919;
    churn.crash_period = 41 + s;
    churn.reclaim_delay = 13 + s;
    churn.max_concurrent_crashes = (s % 2) ? 1 : 2;
    const RunResult r = run_random(wl, chk, churn);
    if (!r.ok) {
      std::fprintf(stderr, "churn soak seed %llu failed: %s\n",
                   static_cast<unsigned long long>(s), r.error.c_str());
    }
    CHECK(r.ok);
    CHECK(wl.crashes_total() > 0);
    CHECK_EQ(wl.crashes_total(), wl.crash_reclaims_total());
    CHECK(r.max_ll_steps <= Jp::ll_step_bound(4, 3));
    CHECK_EQ(wl.object().stats().ll_retries, 0u);
  }
}

}  // namespace

int main() {
  exhaustive_with_crashes();
  crash_helper_after_donation();
  crash_winner_before_ring_swap();
  crash_victim_mid_announce();
  reissue_after_helper_donation();
  stale_helped_word_after_donating();
  replay_roundtrip();
  violations_carry_repro();
  churn_soak();
  std::printf("test_sim_crash: OK\n");
  return 0;
}
