// Deterministic exercise of the full protocol's help machinery, as directed
// schedules in the simulator on the shipped core::MwLLSC. With N = 2 the
// probe window is P = 2, so aged validation tolerates a drift of up to 2
// successful SCs. The schedule stalls reader p0 right after the X link of
// its unannounced first attempt while p1 lands a chosen number of
// successful LL;SC rounds. Up to 2 leave the attempt valid; 3 or more fail
// it, and p0 announces and stalls again right after the link of its
// announced attempt while p1 lands a second batch:
//
//   2 SCs        -> drift 2 on the first attempt: it passes, unannounced —
//                   the winner of tag 2 probed slot 0 but found nothing to
//                   help, and the LL returns the buffer it linked, still
//                   intact in the ring, after W+2 accesses;
//   4 SCs, 1 SC  -> the announced attempt sees drift 1 and no donation
//                   (tag 5's winner probes its own slot): the plain aged
//                   pass with a clean withdraw, (W+2) + (W+4) accesses;
//   3 SCs, 2 SCs -> drift 2 = P: the announced attempt still passes, but
//                   the winner of tag 4 probed slot 0 and donated pre-SC,
//                   so the reader's withdraw CAS fails and it adopts the
//                   donated buffer (ll_helped without ll_used_helped_value);
//   3 SCs, 3 SCs -> drift 3 > P: validation fails and the reader must find
//                   the donation already posted (the 4W+12 guarantee),
//                   returning the value that was current at the donor's
//                   help validation — what the donor's own LL read before
//                   its donating SC — in exactly (W+2) + (2W+4) = 3W+6
//                   accesses, the implementation's worst case.
//
// In every case the reader's link is broken (its SC fails), and the object
// stays fully functional afterwards: the JpChecker holds I1, I2 and the
// oracle through the rest of both scripts. A TraceSink records every run;
// the two donation schedules are the only ones that record ll_slow,
// ll_helped, ll_rescue and help_install, so their traces must also come
// back from a trace file event for event and pass check_trace there.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "test_check.hpp"
#include "trace_file.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;

namespace {

constexpr std::uint32_t kW = 4;

struct Outcome {
  OpRecord ll;                                   // the stalled reader's LL
  std::vector<std::vector<std::uint64_t>> vals;  // version -> value
  core::OpStatsSnapshot stats;                   // right after that LL
  obs::TraceData trace;                          // the whole run
};

Outcome stalled_ll(std::uint32_t first_scs, std::uint32_t second_scs) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = first_scs + second_scs + 1;
  cfg.vl_percent = 0;
  SimWorkload<Jp> wl(2, kW, cfg);
  JpChecker chk(wl);
  obs::TraceSink sink(2);
  wl.object().set_trace(&sink, 0);
  const Jp& obj = wl.object();
  Outcome out;
  out.vals.push_back(Inspector<Jp>::current_value(obj));
  // p1: k complete LL;SC rounds, recording each version's value.
  auto writer_rounds = [&](std::uint32_t k) {
    const std::uint64_t target = obj.stats().sc_success + k;
    while (obj.stats().sc_success < target) {
      const std::uint64_t before = wl.version();
      wl.step(1, chk);
      if (wl.version() != before) {
        out.vals.push_back(Inspector<Jp>::current_value(obj));
      }
    }
    while (!wl.at_boundary(1)) wl.step(1, chk);
  };

  // p0: link X for the unannounced attempt — parked before its first copy.
  wl.step(0, chk);
  writer_rounds(first_scs);
  if (first_scs > 2) {
    // The attempt is doomed: p0 validates, announces, and links again —
    // parked before the announced attempt's first copy.
    while (!Inspector<Jp>::announce_posted(obj, 0)) wl.step(0, chk);
    wl.step(0, chk);
    writer_rounds(second_scs);
  }
  // p0 finishes its LL.
  while (!wl.at_boundary(0)) wl.step(0, chk);
  out.ll = wl.last_op(0);
  out.stats = obj.stats();
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
  CHECK(obj.stats().sc_success > first_scs + second_scs);
  out.trace = sink.collect();
  return out;
}

/// Events of kind `k` in the run's trace.
std::size_t count(const obs::TraceData& d, obs::EventKind k) {
  std::size_t n = 0;
  for (const auto& stream : d.per_pid) {
    for (const auto& e : stream) n += e.kind == static_cast<std::uint16_t>(k);
  }
  return n;
}

/// The slow-path events survive the trace file verbatim, and the checker
/// passes them there: the jp LL bound and I2 hold on the loaded streams.
void check_trace_file(const obs::TraceData& d, const char* path) {
  const obs::TraceData loaded = round_trip(d, path);
  const auto r = obs::check_trace(loaded);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK(!r.truncated);
  CHECK_EQ(r.sc_commits, r.bank_writes);
  CHECK(r.max_ll_steps <= 4 * kW + 12);
}

// Drift 3 > P on both attempts: the rescue path. The reader must return
// the donated snapshot with the slow/helped/rescue/help-install counters
// firing exactly once, and the defensive retry arm must never run.
void rescue_path() {
  const Outcome o = stalled_ll(3, 3);
  CHECK_EQ(o.stats.ll_slow, 1u);
  CHECK_EQ(o.stats.helps_given, 1u);
  CHECK_EQ(o.stats.ll_helped, 1u);
  CHECK_EQ(o.stats.ll_used_helped_value, 1u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.stats.bank_writes, 6u);
  // The donor of tag 4 read version 3 in its LL: that is what the rescue
  // returns, after exactly 3W+6 shared accesses.
  CHECK(o.ll.value == o.vals[3]);
  CHECK_EQ(o.ll.steps, 3 * kW + 6);
  CHECK_EQ(count(o.trace, obs::EventKind::kLlSlow), 1u);
  CHECK_EQ(count(o.trace, obs::EventKind::kLlHelped), 0u);  // rescue instead
  CHECK_EQ(count(o.trace, obs::EventKind::kLlRescue), 1u);
  CHECK_EQ(count(o.trace, obs::EventKind::kHelpInstall), 1u);
  check_trace_file(o.trace, "test_help_path_rescue.json");
}

// Drift 2 = P on the announced attempt: aged validation still passes — the
// linked buffer sat in the ring, unrecycled — but a donation raced in, so
// the withdraw CAS fails and the reader adopts the donated buffer without
// using its value.
void aged_pass_with_donation() {
  const Outcome o = stalled_ll(3, 2);
  CHECK(o.ll.value == o.vals[3]);  // the snapshot the announced try linked
  CHECK_EQ(o.stats.ll_slow, 1u);
  CHECK_EQ(o.stats.helps_given, 1u);
  CHECK_EQ(o.stats.ll_helped, 1u);
  CHECK_EQ(o.stats.ll_used_helped_value, 0u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.ll.steps, (kW + 2) + (kW + 4));
  CHECK_EQ(count(o.trace, obs::EventKind::kLlSlow), 1u);
  CHECK_EQ(count(o.trace, obs::EventKind::kLlHelped), 1u);
  CHECK_EQ(count(o.trace, obs::EventKind::kLlRescue), 0u);
  CHECK_EQ(count(o.trace, obs::EventKind::kHelpInstall), 1u);
  check_trace_file(o.trace, "test_help_path_donation.json");
}

// Drift 1 < P on the announced attempt with no donation (tag 5's winner
// probes its own slot): the plain aged-validation pass, clean withdraw.
void aged_pass_plain() {
  const Outcome o = stalled_ll(4, 1);
  CHECK(o.ll.value == o.vals[4]);
  CHECK_EQ(o.stats.ll_slow, 1u);
  CHECK_EQ(o.stats.helps_given, 0u);
  CHECK_EQ(o.stats.ll_helped, 0u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.ll.steps, (kW + 2) + (kW + 4));
}

// Drift 2 = P on the first attempt: it passes unannounced. The winner of
// tag 2 probed slot 0 and found it idle, so nothing was donated and nothing
// needs withdrawing.
void unannounced_pass() {
  const Outcome o = stalled_ll(2, 0);
  CHECK(o.ll.value == o.vals[0]);  // the linked (initial) snapshot
  CHECK_EQ(o.stats.ll_slow, 0u);
  CHECK_EQ(o.stats.helps_given, 0u);
  CHECK_EQ(o.stats.ll_helped, 0u);
  CHECK_EQ(o.stats.ll_retries, 0u);
  CHECK_EQ(o.ll.steps, kW + 2);
}

}  // namespace

int main() {
  rescue_path();
  aged_pass_with_donation();
  aged_pass_plain();
  unannounced_pass();
  std::printf("test_help_path: OK\n");
  return 0;
}
