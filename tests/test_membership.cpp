// The process lifecycle layer (DESIGN.md §10): SlotRegistry state machine,
// ProcessSlot RAII, ManagedMwLLSC join/retire/crash-reclaim over the real
// protocol object, orphan adoption in the claim pass, per-thread pid
// affinity, graceful degradation under slot exhaustion, lifecycle trace
// events through the offline checker, and multithreaded churn runs
// (threads > slots) with cooperative crashes, with and without a
// maintenance reclaimer.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/mwllsc.hpp"
#include "membership/managed.hpp"
#include "membership/registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"
#include "trace_file.hpp"

using namespace mwllsc;
using membership::ManagedMwLLSC;
using membership::ProcessSlot;
using membership::SlotRegistry;

namespace {

using Jp = core::MwLLSC<llsc::Engine>;
using Managed = ManagedMwLLSC<Jp>;

// ---------------------------------------------------------- slot registry

void registry_state_machine() {
  SlotRegistry reg(2);
  CHECK_EQ(reg.capacity(), 2u);
  CHECK_EQ(reg.active(), 0u);

  const std::uint32_t a = reg.try_acquire();
  const std::uint32_t b = reg.try_acquire();
  CHECK(a != SlotRegistry::kNone && b != SlotRegistry::kNone && a != b);
  CHECK_EQ(reg.active(), 2u);
  // Exhausted: the pass is bounded and fails.
  CHECK_EQ(reg.try_acquire(), SlotRegistry::kNone);

  // Clean release: CAS on the claimed generation; a second release of the
  // same incarnation must fail (the generation moved on).
  const std::uint64_t gen_a = reg.generation(a);
  CHECK(reg.release(a, gen_a));
  CHECK(!reg.release(a, gen_a));
  CHECK_EQ(reg.active(), 1u);

  // Re-claim bumps the generation past the released one.
  const std::uint32_t a2 = reg.try_acquire();
  CHECK(a2 != SlotRegistry::kNone);
  CHECK(reg.generation(a2) > gen_a);

  // Cooperative crash: ORPHANED until a scan frees it, and ACTIVE slots
  // are never touched. The abandon counts the crash; a second abandon of
  // the same incarnation fails and counts nothing, as does a release.
  const std::uint64_t gen_b = reg.generation(b);
  CHECK(reg.abandon(b, gen_b));
  CHECK_EQ(reg.state(b), SlotRegistry::kOrphaned);
  CHECK_EQ(reg.counts().crash_reclaims, 1u);
  CHECK(!reg.abandon(b, gen_b));
  CHECK(!reg.release(b, gen_b));
  CHECK_EQ(reg.counts().crash_reclaims, 1u);
  CHECK_EQ(reg.counts().retires, 1u);
  CHECK_EQ(reg.scan(), 1u);
  CHECK_EQ(reg.scan(), 0u);
  CHECK_EQ(reg.state(b), SlotRegistry::kFree);
  CHECK_EQ(reg.generation(b), gen_b + 2);  // abandon, sweep
  CHECK_EQ(reg.state(a2), SlotRegistry::kActive);

  // Adoption. The pass starts at this thread's own slot, which is why the
  // first claim and the re-claim both got it. Orphaned, that slot is
  // adopted in one CAS, bumping the generation once past the orphan.
  CHECK_EQ(a2, a);
  CHECK(reg.abandon(a, reg.generation(a)));
  const std::uint64_t gen_orphan = reg.generation(a);
  CHECK_EQ(reg.try_acquire(), a);
  CHECK_EQ(reg.state(a), SlotRegistry::kActive);
  CHECK_EQ(reg.generation(a), gen_orphan + 1);
  CHECK_EQ(reg.try_acquire(), b);
  CHECK_EQ(reg.try_acquire(), SlotRegistry::kNone);

  // Counters: every claim and adoption is a join, each clean release a
  // retire (the failed second release above counted nothing), each
  // abandon a crash reclaim.
  const auto c = reg.counts();
  CHECK_EQ(c.joins, 5u);
  CHECK_EQ(c.retires, 1u);
  CHECK_EQ(c.crash_reclaims, 2u);
}

void raii_guard() {
  SlotRegistry reg(1);
  const std::uint32_t s = reg.try_acquire();
  const std::uint64_t gen = reg.generation(s);
  {
    ProcessSlot guard(&reg, s);
    CHECK(guard.valid());
    CHECK_EQ(guard.id(), s);
    ProcessSlot moved(std::move(guard));
    CHECK(!guard.valid());
    CHECK(moved.valid());
  }  // moved's dtor released
  CHECK_EQ(reg.active(), 0u);
  // An abandon after the release fails and counts nothing.
  CHECK(!reg.abandon(s, gen));
  CHECK_EQ(reg.counts().crash_reclaims, 0u);
  const std::uint32_t again = reg.try_acquire();
  CHECK(again != SlotRegistry::kNone);
  ProcessSlot guard(&reg, again);
  guard.abandon();
  CHECK(!guard.valid());
  CHECK_EQ(reg.state(again), SlotRegistry::kOrphaned);
  CHECK_EQ(reg.counts().crash_reclaims, 1u);
}

// ------------------------------------------------------- managed sessions

void managed_basic() {
  Managed m(2, 3);
  CHECK_EQ(m.words(), 3u);

  auto a = m.join();
  auto b = m.join();
  CHECK(a.valid() && !a.degraded());
  CHECK(b.valid() && !b.degraded());
  CHECK(a.pid() != b.pid());

  // Cross-session counter semantics on the one shared variable.
  std::vector<std::uint64_t> v(3);
  a.ll(v.data());
  v[0] += 1;
  CHECK(a.sc(v.data()));
  b.ll(v.data());
  CHECK_EQ(v[0], 1u);
  v[0] += 1;
  CHECK(b.sc(v.data()));

  // SC link is consumed; VL without a fresh LL is stale.
  CHECK(!b.sc(v.data()));

  CHECK(a.retire());
  CHECK(b.retire());
  const auto s = m.membership();
  CHECK_EQ(s.joins, 2u);
  CHECK_EQ(s.retires, 2u);
  CHECK_EQ(s.degraded_joins, 0u);
  CHECK_EQ(s.active, 0u);

  // A retired pid's slot is immediately claimable, and the new holder
  // starts unlinked: SC without LL fails.
  auto c = m.join();
  CHECK(!c.degraded());
  CHECK(!c.sc(v.data()));
  c.ll(v.data());
  CHECK_EQ(v[0], 2u);
}

void degraded_path() {
  Managed m(1, 2);
  auto a = m.join();
  CHECK(!a.degraded());

  // Slot pool exhausted and nothing to reclaim: degrade, don't fail.
  auto d1 = m.join();
  CHECK(d1.valid());
  CHECK(d1.degraded());
  CHECK_EQ(d1.pid(), m.reserved_pid());

  // Degraded SC without a prior LL is a semantic failure, not a deadlock.
  std::vector<std::uint64_t> v(2);
  CHECK(!d1.sc(v.data()));

  // Degraded sessions linearize with wait-free ones on the same variable:
  // a's link must die when the degraded session's SC lands.
  a.ll(v.data());
  d1.ll(v.data());
  CHECK(d1.vl());
  v[0] = 7;
  CHECK(d1.sc(v.data()));
  CHECK(!a.sc(v.data()));
  a.ll(v.data());
  CHECK_EQ(v[0], 7u);
  CHECK(a.vl());

  // Two degraded sessions serialize (lock released at SC): no deadlock.
  auto d2 = m.join();
  CHECK(d2.degraded());
  d1.ll(v.data());
  v[0] = 8;
  CHECK(d1.sc(v.data()));
  d2.ll(v.data());
  CHECK_EQ(v[0], 8u);
  v[0] = 9;
  CHECK(d2.sc(v.data()));
  CHECK(d1.retire());
  CHECK(d2.retire());

  const auto s = m.membership();
  CHECK_EQ(s.degraded_joins, 2u);
  CHECK(s.join_retries >= 2u);

  // Once a slot frees up, joins are wait-free again.
  CHECK(a.retire());
  auto back = m.join();
  CHECK(!back.degraded());
}

void orphan_reclaim_on_join() {
  Managed m(2, 2);
  auto a = m.join();
  auto b = m.join();
  std::vector<std::uint64_t> v(2);
  a.ll(v.data());  // abandon between LL and SC: the link is open
  const std::uint32_t dead_pid = a.pid();
  a.abandon();

  // Every slot is held or orphaned: the first claim pass adopts a's slot
  // (no retry pass, no sweep, no degradation); the abandon counted the
  // crash.
  auto c = m.join();
  CHECK(!c.degraded());
  CHECK_EQ(c.pid(), dead_pid);
  const auto s = m.membership();
  CHECK_EQ(s.crash_reclaims, 1u);
  CHECK_EQ(s.join_retries, 0u);
  CHECK_EQ(s.scans, 0u);
  CHECK_EQ(s.degraded_joins, 0u);
  CHECK_EQ(s.joins, 3u);

  // The recycled pid is quiescent: no link, ops run clean.
  CHECK(!c.sc(v.data()));
  c.ll(v.data());
  v[0] += 1;
  CHECK(c.sc(v.data()));
  CHECK(b.valid());
  b.ll(v.data());
  CHECK_EQ(v[0], 1u);
}

// A thread's claim pass starts at an index fixed for its lifetime, so a
// thread that retires (or crashes) and rejoins gets its pid back while that
// pid is free. Threads draw their index from a process-wide counter at
// their first join, so threads that join one after another start apart.
void pid_affinity() {
  Managed m(4, 2);
  std::vector<std::uint64_t> v(2);
  std::uint32_t mine = 0;
  {
    auto a = m.join();
    mine = a.pid();
  }
  for (int i = 0; i < 5; ++i) {
    auto a = m.join();
    CHECK_EQ(a.pid(), mine);
    a.ll(v.data());
    v[0] += 1;
    CHECK(a.sc(v.data()));
    if (i % 2) a.abandon();  // adopted by this thread's next pass
  }
  {
    // While the pid is held the pass moves on; once free it comes back.
    auto held = m.join();
    CHECK_EQ(held.pid(), mine);
    auto other = m.join();
    CHECK(!other.degraded());
    CHECK(other.pid() != mine);
    CHECK(held.retire());
    auto again = m.join();
    CHECK_EQ(again.pid(), mine);
  }

  std::uint32_t theirs[2] = {};
  for (std::uint32_t& pid : theirs) {
    std::thread([&] {
      for (int i = 0; i < 5; ++i) {
        auto a = m.join();
        if (i == 0) pid = a.pid();
        CHECK_EQ(a.pid(), pid);
      }
    }).join();
  }
  CHECK(theirs[0] != theirs[1]);

  const auto s = m.membership();
  CHECK_EQ(s.crash_reclaims, 2u);
  CHECK_EQ(s.join_retries, 0u);
  CHECK_EQ(s.joins, s.retires + 2);
  CHECK_EQ(s.active, 0u);
}

// ------------------------------------------------------- lifecycle traces

void traced_lifecycle() {
  Managed m(2, 2);
  obs::TraceSink sink(m.slots() + 1);  // + the reserved degraded pid
  m.set_trace(&sink, 0);

  std::vector<std::uint64_t> v(2);
  auto a = m.join();
  auto b = m.join();
  a.ll(v.data());
  v[0] += 1;
  CHECK(a.sc(v.data()));
  a.abandon();                       // crash...
  auto d = m.join();                 // the claim pass adopts the orphan
  CHECK(!d.degraded());              // ...recycled the corpse's slot
  CHECK(d.retire());
  CHECK(b.retire());

  const obs::TraceData data = sink.collect();
  const auto r = obs::check_trace(data);
  if (!r.ok()) {
    for (const auto& viol : r.violations)
      std::fprintf(stderr, "  %s\n", viol.c_str());
  }
  CHECK(r.ok());
  CHECK_EQ(r.joins, 3u);
  CHECK_EQ(r.retires, 2u);
  CHECK_EQ(r.crash_reclaims, 1u);

  // Lifecycle events survive the file round-trip with the same verdict.
  const auto r2 =
      obs::check_trace(round_trip(data, "test_membership_trace.json"));
  CHECK(r2.ok());
  CHECK_EQ(r2.joins, r.joins);
  CHECK_EQ(r2.retires, r.retires);
  CHECK_EQ(r2.crash_reclaims, r.crash_reclaims);
}

// The checker's lifecycle rules, on hand-built streams: leases must not
// overlap, only a live pid retires or abandons, neither may leave an LL
// open, dead pids stay silent.
obs::TraceEvent ev(obs::EventKind k, std::uint32_t pid, std::uint64_t tsc,
                   std::uint32_t arg = 0) {
  obs::TraceEvent e{};
  e.tsc = tsc;
  e.tag = 0;
  e.var = 0;
  e.arg = arg;
  e.kind = static_cast<std::uint16_t>(k);
  e.pid = static_cast<std::uint16_t>(pid);
  return e;
}

void checker_lifecycle_rules() {
  using obs::EventKind;
  auto base = [] {
    obs::TraceData d;
    d.per_pid.resize(1);
    d.dropped.assign(1, 0);
    obs::TraceData::VarInfo vi;
    vi.id = 0;
    vi.words = 2;
    vi.label = "jp";
    d.vars.push_back(vi);
    return d;
  };

  {  // double join without retire
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kProcJoin, 0, 2)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK(r.violations[0].find("already live") != std::string::npos);
  }
  {  // retire with an open LL window
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kLlStart, 0, 2),
                    ev(EventKind::kProcRetire, 0, 3)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK(r.violations[0].find("open LL") != std::string::npos);
  }
  {  // a session abandons only at an op boundary
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kLlStart, 0, 2),
                    ev(EventKind::kProcCrashReclaim, 0, 3)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK(r.violations[0].find("abandoned with an open LL") !=
          std::string::npos);
    d.dropped[0] = 1;  // a truncated ring may have lost the close
    CHECK(obs::check_trace(d).ok());
  }
  {  // a crash reclaim from a pid that already retired or abandoned
    for (const EventKind end :
         {EventKind::kProcRetire, EventKind::kProcCrashReclaim}) {
      obs::TraceData d = base();
      d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1), ev(end, 0, 2),
                      ev(EventKind::kProcCrashReclaim, 0, 3)};
      const auto r = obs::check_trace(d);
      CHECK_EQ(r.violations.size(), std::size_t{1});
      CHECK(r.violations[0].find("proc_crash_reclaim of a pid that is not "
                                 "live") != std::string::npos);
    }
  }
  {  // protocol activity after retire
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kProcRetire, 0, 2),
                    ev(EventKind::kLlStart, 0, 3),
                    ev(EventKind::kLlFast, 0, 4)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK_EQ(r.violations.size(), std::size_t{1});  // one report per gap
    CHECK(r.violations[0].find("without a proc_join") != std::string::npos);
  }
  {  // clean lease cycle, including a crash reclaim, passes
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kLlStart, 0, 2),
                    ev(EventKind::kLlFast, 0, 3),
                    ev(EventKind::kProcCrashReclaim, 0, 4),
                    ev(EventKind::kProcJoin, 0, 5),
                    ev(EventKind::kProcRetire, 0, 6)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
    CHECK_EQ(r.joins, 2u);
  }
  {  // overlapping degraded leases (arg=1) are legal on the shared pid
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1, 1),
                    ev(EventKind::kProcJoin, 0, 2, 1),
                    ev(EventKind::kProcRetire, 0, 3, 1),
                    ev(EventKind::kProcRetire, 0, 4, 1)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
  }
}

// -------------------------------------------------------------- MT churn

// With `reaper`, a maintenance thread sweeps orphans while the workers
// churn; without it, orphans are recycled only by joiners adopting them,
// and one reclaim_scan() after the workers finish settles the rest. Either
// way the counter identities hold exactly. MWLLSC_SIM_SOAK=1 (the CI
// fault-injection job) runs ten times the sessions.
void mt_churn(bool reaper) {
  const bool soak = [] {
    const char* e = std::getenv("MWLLSC_SIM_SOAK");
    return e && e[0] == '1';
  }();
  constexpr std::uint32_t kSlots = 3;
  constexpr unsigned kThreads = 6;
  const unsigned sessions = soak ? 600 : 60;
  constexpr unsigned kOpsPerSession = 25;

  Managed m(kSlots, 2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> abandons{0};

  // reclaim_scan() only takes abandoned slots, so threads descheduled for
  // arbitrarily long are never condemned.
  std::thread sweeper;
  if (reaper) {
    sweeper = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        m.reclaim_scan();
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint64_t> v(2);
      for (unsigned sess = 0; sess < sessions; ++sess) {
        auto s = m.join();
        for (unsigned op = 0; op < kOpsPerSession; ++op) {
          // Retry until this session's increment lands (SC failures are
          // semantic: somebody else's SC intervened).
          for (;;) {
            s.ll(v.data());
            v[0] += 1;
            v[1] = t;
            if (s.sc(v.data())) break;
          }
        }
        if (!s.degraded() && sess % 7 == 3) {
          s.abandon();  // cooperative crash, mid-pool
          abandons.fetch_add(1, std::memory_order_relaxed);
        } else {
          s.retire();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  if (sweeper.joinable()) sweeper.join();
  m.reclaim_scan();

  // Every increment that reported success is in the final value: the
  // lifecycle layer lost no SC and double-applied none.
  auto final_session = m.join();
  std::vector<std::uint64_t> v(2);
  final_session.ll(v.data());
  CHECK_EQ(v[0],
           std::uint64_t{kThreads} * sessions * kOpsPerSession);
  CHECK_EQ(v[0], m.stats().sc_success - 0u);
  final_session.retire();

  const auto s = m.membership();
  if (!reaper) CHECK_EQ(s.scans, 1u);
  CHECK_EQ(s.joins + s.degraded_joins,
           std::uint64_t{kThreads} * sessions + 1);
  CHECK_EQ(s.crash_reclaims, abandons.load());
  CHECK_EQ(s.retires + abandons.load(),
           std::uint64_t{kThreads} * sessions + 1);
  CHECK_EQ(s.active, 0u);

  // Metrics surface the lifecycle series.
  obs::MetricsRegistry reg;
  m.export_metrics(reg, "impl=\"jp\"");
  CHECK(reg.metrics().count(
      "mwllsc_membership_joins_total{impl=\"jp\"}"));
  CHECK(reg.metrics().count(
      "mwllsc_membership_crash_reclaims_total{impl=\"jp\"}"));

  // Footprint gained the registry part.
  bool has_registry_part = false;
  const auto fp = m.footprint();
  for (const auto& part : fp.parts()) {
    if (part.name.find("membership") != std::string::npos) {
      has_registry_part = true;
    }
  }
  CHECK(has_registry_part);
}

}  // namespace

int main() {
  registry_state_machine();
  raii_guard();
  managed_basic();
  degraded_path();
  orphan_reclaim_on_join();
  pid_affinity();
  traced_lifecycle();
  checker_lifecycle_rules();
  mt_churn(/*reaper=*/true);
  mt_churn(/*reaper=*/false);
  std::printf("test_membership: OK\n");
  return 0;
}
