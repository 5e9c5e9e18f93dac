// Deterministic exercise of the full protocol's help machinery, as directed
// schedules in the simulator on the shipped core::MwLLSC. With N = 2 the
// probe window is P = 2, so aged validation tolerates a drift of up to 2
// successful SCs; the schedule stalls reader p0 right after it links X and
// drives p1 through a chosen number of successful LL;SC rounds:
//
//   1 SC  -> drift 1: aged validation passes, no donation was posted (the
//            winner of tag 1 probes its own slot), the reader returns the
//            buffer it linked — still intact, the ring has not recycled it;
//   2 SCs -> drift 2: aged validation passes, but the winner of tag 2
//            probed slot 0 and donated pre-SC, so the reader's withdraw
//            CAS fails and it adopts the donated buffer (ll_helped without
//            ll_used_helped_value);
//   3 SCs -> drift 3 > P: validation fails and the reader must find the
//            donation already posted (the 4W+12 guarantee), returning the
//            value that was current at the donor's help validation — what
//            the donor's own LL read before its donating SC — in exactly
//            2W+4 accesses.
//
// In every case the reader's link is broken (its SC fails), and the object
// stays fully functional afterwards: the JpChecker holds I1, I2 and the
// oracle through the rest of both scripts. Every scenario runs on both
// engine layouts: Jp (Dw128's 64+64 bits) and JpPacked (Packed64's 32+32).
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;

namespace {

constexpr std::uint32_t kW = 4;

struct Outcome {
  OpRecord ll;                                   // the stalled reader's LL
  std::vector<std::vector<std::uint64_t>> vals;  // version -> value
  core::OpStatsSnapshot stats;                   // right after that LL
};

template <class Obj>
Outcome stalled_ll(std::uint32_t sc_rounds) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 4;
  cfg.vl_percent = 0;
  SimWorkload<Obj> wl(2, kW, cfg);
  CheckerOf<Obj> chk(wl);
  Outcome out;
  out.vals.push_back(Inspector<Obj>::current_value(wl.object()));

  // p0: announce, then link X — parked before its first copy load.
  wl.step(0, chk);
  wl.step(0, chk);
  // p1: sc_rounds complete LL;SC rounds.
  while (wl.object().stats().sc_success < sc_rounds) {
    const std::uint64_t before = wl.version();
    wl.step(1, chk);
    if (wl.version() != before) {
      out.vals.push_back(Inspector<Obj>::current_value(wl.object()));
    }
  }
  while (!wl.at_boundary(1)) wl.step(1, chk);
  // p0 finishes its LL.
  while (!wl.at_boundary(0)) wl.step(0, chk);
  out.ll = wl.last_op(0);
  out.stats = wl.object().stats();
  CHECK(out.ll.type == OpType::kLl);

  // The reader's SC fails in O(1): a successful SC intervened.
  wl.step(0, chk);
  CHECK(wl.last_op(0).type == OpType::kSc);
  CHECK(!wl.last_op(0).success);
  CHECK_EQ(wl.last_op(0).steps, 0u);

  // Still fully functional: both scripts run to completion under the
  // full checker.
  while (!wl.done()) {
    for (std::uint32_t p = 0; p < 2; ++p) {
      if (!wl.proc_done(p)) wl.step(p, chk);
    }
  }
  if (!chk.ok()) std::fprintf(stderr, "checker: %s\n", chk.error().c_str());
  CHECK(chk.ok());
  CHECK(wl.object().stats().sc_success > sc_rounds);
  return out;
}

// Drift 3 > P: the rescue path. The reader must return the donated
// snapshot with the helped/rescue/help-install counters firing exactly
// once, and the defensive retry arm must never run.
template <class Obj>
void rescue_path() {
  const Outcome o = stalled_ll<Obj>(3);
  CHECK_EQ(o.stats.helps_given, 1u);
  CHECK_EQ(o.stats.ll_helped, 1u);
  CHECK_EQ(o.stats.ll_used_helped_value, 1u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.stats.bank_writes, 3u);
  // The donor of tag 2 read version 1 in its LL: that is what the rescue
  // returns, after exactly 2W+4 shared accesses.
  CHECK(o.ll.value == o.vals[1]);
  CHECK_EQ(o.ll.steps, 2 * kW + 4);
}

// Drift 2 = P: aged validation still passes — the linked buffer sat in
// the ring, unrecycled — but a donation raced in, so the withdraw CAS
// fails and the reader adopts the donated buffer without using its value.
template <class Obj>
void aged_pass_with_donation() {
  const Outcome o = stalled_ll<Obj>(2);
  CHECK(o.ll.value == o.vals[0]);  // the linked (initial) snapshot
  CHECK_EQ(o.stats.helps_given, 1u);
  CHECK_EQ(o.stats.ll_helped, 1u);
  CHECK_EQ(o.stats.ll_used_helped_value, 0u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.ll.steps, kW + 4);
}

// Drift 1 < P with no donation (tag 1's winner probes its own slot): the
// plain aged-validation pass, clean withdraw.
template <class Obj>
void aged_pass_plain() {
  const Outcome o = stalled_ll<Obj>(1);
  CHECK(o.ll.value == o.vals[0]);
  CHECK_EQ(o.stats.helps_given, 0u);
  CHECK_EQ(o.stats.ll_helped, 0u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.ll.steps, kW + 4);
}

}  // namespace

template <class Obj>
void all_scenarios() {
  rescue_path<Obj>();
  aged_pass_with_donation<Obj>();
  aged_pass_plain<Obj>();
}

int main() {
  all_scenarios<Jp>();
  all_scenarios<JpPacked>();
  std::printf("test_help_path: OK\n");
  return 0;
}
