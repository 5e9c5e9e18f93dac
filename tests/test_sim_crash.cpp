// Crash-stop fault injection in the deterministic simulator, on the
// shipped core::MwLLSC (its own reclaim_pid/rebind_pid do the recovery):
//   (a) bounded-exhaustive search with a crash budget — every N=2, W=2
//       schedule with <=2 preemptions AND a crash-stop of the currently
//       scheduled process injected at every protocol step (plus a
//       2-crash / N=3 variant) keeps I1, I2, the 4W+12 bound and the
//       sequential-spec oracle green for the live processes;
//   (b) directed schedules for the nastiest lifecycle points — a helper
//       dying right after its donation, a winner dying between its X SC
//       and its ring swap, a victim dying between announce and withdraw,
//       a holder retiring after its last SC donated as a helper (then its
//       pid is reissued), and a live process whose pid is reclaimed
//       between its announce and its withdraw — asserting that reclamation
//       and rebinding keep the exact buffer-ownership census (I1) and
//       complete the pending bank write (I2);
//   (c) replay round-trip — a recorded crash-churn schedule re-executes
//       token-for-token to the same step count;
//   (d) every invariant-violation message embeds the scheduler seed and
//       schedule prefix needed to reproduce it (--seed / --replay).
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
    std::uint32_t n, w, ops, preempts, crashes;
  };
  const Shape shapes[] = {
      {2, 2, 2, 2, 0},  // the crash-free baseline of the next shape
      {2, 2, 2, 2, 1},  // one crash anywhere
      {2, 2, 2, 1, 2},  // both processes can die
      {3, 2, 1, 1, 2},  // three procs, two corpses, survivors finish
  };
  std::uint64_t explored[4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    const Shape& s = shapes[i];
    WorkloadConfig cfg;
    cfg.ops_per_proc = s.ops;
    cfg.vl_percent = 50;
    cfg.seed = 3;
    const EnumerateResult r = enumerate_preemption_bounded<Jp, JpChecker>(
        s.n, s.w, cfg, s.preempts, 4000000, s.crashes);
    if (!r.ok) {
      std::fprintf(stderr, "crash CHESS (n=%u w=%u p=%u c=%u) failed: %s\n",
                   s.n, s.w, s.preempts, s.crashes, r.error.c_str());
    }
    std::printf("exhaustive N=%u W=%u ops=%u <=%u preemptions %u crashes: "
                "%llu schedules, worst LL %u\n",
                s.n, s.w, s.ops, s.preempts, s.crashes,
                static_cast<unsigned long long>(r.schedules_explored),
                r.max_ll_steps);
    CHECK(r.ok);
    CHECK(!r.truncated);
    CHECK(r.schedules_explored > 100);
    // Live processes stayed wait-free in every schedule: the checker
    // enforces 4W+12 + the oracle per completed op, and completed ops
    // exist (crashes never claim every process before its first SC).
    CHECK(r.max_ll_steps > 0);
    CHECK(r.max_ll_steps <= Jp::ll_step_bound(s.n, s.w));
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

// (b1) Helper dies right after its donation CAS (before its own X SC).
// The victim must consume the orphaned donation and finish inside 4W+12;
// reclaiming the corpse must leave the census exact, and its reissued pid
// must start from the exchange buffer it took in the exchange — not the
// one its stale slot word still names.
void crash_helper_after_donation() {
  SimWorkload<Jp> wl(2, 2, directed(6, 1));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  const std::uint32_t victim = 0, helper = 1;

  // Victim: into its LL far enough to have announced.
  CHECK(step_until(wl, chk, victim,
                   [&] { return Peek::announce_posted(obj, victim); }));
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

  wl.reclaim(helper, chk);
  CHECK(chk.ok());
  CHECK_EQ(wl.crash_reclaims_total(), 1u);
  drain(wl, chk);
  CHECK_EQ(obj.stats().ll_retries, 0u);
}

// (b2) A winner dies between its X SC and its ring swap: the bank write is
// owed. While the corpse is frozen the census counts the retiree as its
// provisional spare and I2 counts the write as pending; reclaim_pid must
// perform the swap on its behalf, so I2 is an equality again and the
// reissued pid writes its next SC into an aged buffer.
void crash_winner_before_ring_swap() {
  SimWorkload<Jp> wl(2, 2, directed(6, 4));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  const std::uint32_t winner = 1;
  CHECK(step_until(wl, chk, winner,
                   [&] { return Peek::retire_pending(obj, winner); }));
  wl.crash(winner, chk);
  CHECK(chk.ok());
  // The survivor laps the ring past the corpse's cell.
  CHECK(step_until(wl, chk, 0, [&] { return wl.proc_done(0); }));
  wl.reclaim(winner, chk);
  CHECK(chk.ok());
  CHECK(!Peek::retire_pending(obj, winner));
  CHECK_EQ(obj.stats().bank_writes, obj.stats().sc_success);
  drain(wl, chk);
}

// (b3) Victim dies between announce and withdraw. Helpers keep donating
// into the corpse's WAITING slot; every donated buffer must stay exactly
// once-owned (I1) while the corpse holds it, and reclamation must absorb
// the orphaned announce/donation so the slot is clean for reuse.
void crash_victim_mid_announce() {
  SimWorkload<Jp> wl(2, 2, directed(8, 2));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  const std::uint32_t victim = 0, helper = 1;

  CHECK(step_until(wl, chk, victim,
                   [&] { return Peek::announce_posted(obj, victim); }));
  wl.crash(victim, chk);
  CHECK(chk.ok());

  // The helper churns through its whole script against the corpse —
  // donations to the dead announce land and sit there; the helper itself
  // must stay wait-free the entire time.
  CHECK(step_until(wl, chk, helper, [&] { return wl.proc_done(helper); },
                   50000));
  CHECK(wl.max_ll_steps() <= Jp::ll_step_bound(2, 2));

  // Reclaim absorbs whatever the slot holds (WAITING withdrawn or HELPED
  // adopted) and restores the census; the victim's stranded script then
  // reruns its interrupted round from scratch.
  wl.reclaim(victim, chk);
  CHECK(chk.ok());
  CHECK_EQ(wl.crash_reclaims_total(), 1u);
  drain(wl, chk);
}

// (b4) The rebind_pid fix: p1's SC donates to p0, p1's holder retires
// gracefully, pid 1 is reissued, and the new holder runs LL;SC. p1's slot
// word still names the buffer it donated; the new holder must get the one
// p1 took in exchange (Priv::xbuf), or two owners share a buffer.
void rebind_after_helper_donation() {
  SimWorkload<Jp> wl(2, 2, directed(4, 1));
  JpChecker chk(wl);
  const Jp& obj = wl.object();
  CHECK(step_until(wl, chk, 0, [&] { return Peek::announce_posted(obj, 0); }));
  CHECK(step_until(wl, chk, 1, [&] { return Peek::donation_posted(obj, 0); }));
  // p1 finishes its SC and stops at the next op boundary: it retires.
  CHECK(step_until(wl, chk, 1, [&] { return wl.at_boundary(1); }));
  CHECK(obj.stats().helps_given == 1);
  wl.rebind(1, chk);
  if (!chk.ok()) std::fprintf(stderr, "checker: %s\n", chk.error().c_str());
  CHECK(chk.ok());
  // The new holder's LL;SC, then everyone finishes.
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, chk, 1,
                   [&] { return wl.completed_lls() > lls_before; }));
  drain(wl, chk);
}

// (b5) The withdraw-vs-reclaim race in core ll(): a live "zombie" whose
// pid is reclaimed between its announce and its withdraw. This breaks
// reclaim_pid's precondition on purpose (the membership layer never
// reclaims a holder that did not abandon its slot); ll()'s defensive
// branch must still break the link without asserting — its SC fails
// semantically — and the object must stay fully functional.
void withdraw_reclaim_race() {
  WorkloadConfig cfg = directed(3, 1);
  cfg.vl_percent = 100;  // LL, VL, SC: the VL must report the broken link
  SimWorkload<Jp> wl(2, 2, cfg);
  JpChecker chk(wl);
  Jp& obj = wl.object();
  const std::uint32_t zombie = 0;
  CHECK(step_until(wl, chk, zombie,
                   [&] { return Peek::announce_posted(obj, zombie); }));
  CHECK(obj.reclaim_pid(zombie));  // the reclaimer's verdict, mid-LL
  CHECK(step_until(wl, chk, zombie,
                   [&] { return wl.last_op(zombie).type == OpType::kSc; }));
  CHECK(chk.ok());
  CHECK(!wl.last_op(zombie).success);  // no link: the SC fails
  drain(wl, chk);
  CHECK(obj.stats().sc_success > 0);
}

// (c) A recorded crash-churn schedule replays token-for-token.
void replay_roundtrip() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 40;
  cfg.seed = 5;
  SimWorkload<Jp> wl(3, 3, cfg);
  JpChecker chk(wl);
  ChurnConfig churn;
  churn.sched_seed = 9;
  churn.crash_period = 31;
  churn.reclaim_delay = 17;
  const RunResult first = run_crash_churn(wl, chk, churn);
  CHECK(first.ok);
  CHECK(wl.crashes_total() > 0);
  const std::string schedule =
      wl.schedule_string(/*max_chars=*/1u << 24);  // untruncated

  SimWorkload<Jp> wl2(3, 3, cfg);
  JpChecker chk2(wl2);
  const RunResult again = run_replay(wl2, chk2, schedule);
  if (!again.ok) {
    std::fprintf(stderr, "replay failed: %s\n", again.error.c_str());
  }
  CHECK(again.ok);
  CHECK_EQ(again.total_steps, first.total_steps);
  CHECK_EQ(wl2.crashes_total(), wl.crashes_total());
  CHECK_EQ(wl2.crash_reclaims_total(), wl.crash_reclaims_total());
  CHECK(wl2.schedule_string(1u << 24) == schedule);
}

// (d) Violations reproduce: a synthetic checker failure mid-run must come
// back annotated with the scheduler seed and the exact schedule prefix.
struct FailAfter {
  std::uint64_t budget;
  bool failed = false;
  std::string err = "synthetic failure (test)";
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

void violations_carry_repro() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 20;
  {
    SimWorkload<Jp> wl(2, 2, cfg);
    FailAfter chk{40};
    const RunResult r = run_random(wl, chk, 1234);
    CHECK(!r.ok);
    CHECK(r.error.find("sched-seed=1234") != std::string::npos);
    CHECK(r.error.find("schedule=") != std::string::npos);
  }
  {
    SimWorkload<Jp> wl(2, 2, cfg);
    FailAfter chk{40};
    ChurnConfig churn;
    churn.sched_seed = 77;
    const RunResult r = run_crash_churn(wl, chk, churn);
    CHECK(!r.ok);
    CHECK(r.error.find("churn-seed=77") != std::string::npos);
    CHECK(r.error.find("schedule=") != std::string::npos);
  }
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
    ChurnConfig churn;
    churn.sched_seed = s * 7919;
    churn.crash_period = 41 + s;
    churn.reclaim_delay = 13 + s;
    churn.max_concurrent_crashes = (s % 2) ? 1 : 2;
    const RunResult r = run_crash_churn(wl, chk, churn);
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
  rebind_after_helper_donation();
  withdraw_reclaim_race();
  replay_roundtrip();
  violations_carry_repro();
  churn_soak();
  std::printf("test_sim_crash: OK\n");
  return 0;
}
