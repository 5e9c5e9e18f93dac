// Deterministic simulation harness: runs the shipped protocol objects
// (sim/inspect.hpp: Jp, Am, Retry — core/ and baseline/ instantiated over
// sim::Memory) one shared-memory access at a time.
//
// Each simulated process runs its real ll/sc/vl calls on its own fiber
// (sim/fiber.hpp). Before every shared access the memory policy hands
// control back here, so one step — step(pid) — performs exactly one access
// of that process, plus the private code that follows it up to the next
// access or the end of the op. A step from an op boundary also runs the
// next op's private prelude, and an op with no shared access at all (an SC
// or VL without a link) takes one step. Because the scheduler, not the OS,
// picks which process moves next, any interleaving replays exactly, which
// turns Theorem 1's wait-freedom claim into a checkable property:
//
//   * run_random            seeded uniform scheduling, optionally with
//                           crash-stop churn at op boundaries;
//   * run_adversarial_anti  starves one victim reader's copy validation:
//                           the wait-free protocols rescue it, the retry
//                           strawman's victim LL grows without bound;
//   * enumerate_preemption_bounded
//                           CHESS-style bounded exhaustive search over
//                           preemptions and crash-stop placements
//                           (Musuvathi & Qadeer), stateless: each branch
//                           replays its schedule prefix on a fresh object;
//   * run_replay            re-executes a recorded schedule token-for-token.
//
// Every violation message ends in one "[repro: ...]" block naming the
// object, the workload and the runner; parse_repro reads it back and
// run_repro re-runs it (bench_sim_schedules --repro '<block>').
//
// Crash-stop is modeled by never resuming a process, at any step. A pid
// frozen at an op boundary is an abandoned session: reclaim(pid) reissues
// it through the object's own rebind_pid to a fresh incarnation that
// continues the script. A graceful retirement also ends at an op boundary
// in rebind_pid, so crash(pid) then reclaim(pid) models it too. A pid
// frozen inside an op stays frozen: recovering it would need a recoverable
// CAS, which the object does not model.
#pragma once

#include <cassert>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/inspect.hpp"
#include "sim/memory.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mwllsc::sim {

namespace detail {

/// Whether the object can reissue a pid (rebind_pid); runners compile their
/// crash arms out for objects that can't.
template <class O, class = void>
struct SupportsCrash : std::false_type {};
template <class O>
struct SupportsCrash<
    O, std::void_t<decltype(std::declval<O&>().rebind_pid(0u))>>
    : std::true_type {};

/// Thrown from a parked process's pending access to unwind its fiber when
/// the process is discarded (its pid reissued after a crash, or torn down).
struct Unwind {};

}  // namespace detail

enum class OpType { kLl, kSc, kVl };

/// Completion record for one operation, as observed from outside the
/// object: no ghost state, only what the caller saw plus the abstract
/// version (X's tag) at the op's invocation and response.
struct OpRecord {
  OpType type = OpType::kLl;
  std::uint32_t pid = 0;
  std::uint32_t steps = 0;      ///< shared accesses this op performed
  bool success = false;         ///< SC/VL outcome; LL always true
  bool had_link = false;        ///< SC/VL: the link was valid on entry
  std::vector<std::uint64_t> value;  ///< LL: value read; SC: value written
  std::uint64_t start_version = 0;   ///< version when the op began
  std::uint64_t end_version = 0;     ///< version when the op completed
};

struct RunResult {
  bool ok = true;
  std::string error;
  std::uint64_t total_steps = 0;
  std::uint32_t max_ll_steps = 0;  ///< worst completed LL, in accesses
};

/// total_steps counts the steps of the whole schedule tree, max_ll_steps
/// the worst LL across schedules.
struct EnumerateResult : RunResult {
  std::uint64_t schedules_explored = 0;  ///< complete executions reached
  core::OpStatsSnapshot stats;     ///< object counters summed over complete
                                   ///< executions: which paths were reached
  bool truncated = false;                ///< hit the schedule budget
};

struct WorkloadConfig {
  std::uint32_t ops_per_proc = 100;  ///< LL..SC rounds per process
  /// Per-pid override of ops_per_proc for the first pids listed — e.g. one
  /// busy writer that can land many SCs inside another process's one LL
  /// while the exhaustive space stays small.
  std::vector<std::uint32_t> ops_by_pid;
  std::uint32_t vl_percent = 10;     ///< chance of a VL between LL and SC
  std::uint64_t seed = 1;            ///< workload stream seed (VL coin)
};

/// Owns one protocol object and drives each of its processes through a
/// deterministic script of ops_per_proc rounds of LL, optional VL, then SC
/// of a value unique to (pid, round) — so an LL's linearization version is
/// simply the index of its returned value in the version history. The
/// scheduler (a runner below) only chooses which process moves next.
template <class Object>
class SimWorkload {
  static constexpr std::uint32_t kStep = 0, kCrash = 1, kReclaim = 2;

 public:
  using object_type = Object;  ///< for checker factories (run_repro)
  static constexpr bool kSupportsCrash = detail::SupportsCrash<Object>::value;

  SimWorkload(std::uint32_t nprocs, std::uint32_t words, WorkloadConfig cfg)
      : obj_(nprocs, words), n_(nprocs), w_(words), cfg_(cfg) {
    procs_.reserve(nprocs);
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      procs_.push_back(std::make_unique<Proc>(
          this, p, util::SplitMix64(cfg_.seed * 0x9e3779b9u + p)));
    }
  }

  SimWorkload(const SimWorkload&) = delete;
  SimWorkload& operator=(const SimWorkload&) = delete;

  ~SimWorkload() {
    for (auto& pr : procs_) pr->discard();
  }

  Object& object() { return obj_; }
  const Object& object() const { return obj_; }
  std::uint32_t n() const { return n_; }
  std::uint32_t w() const { return w_; }
  const WorkloadConfig& config() const { return cfg_; }

  /// The abstract version: X's sequence tag.
  std::uint64_t version() const { return Inspector<Object>::version(obj_); }

  /// A crashed process takes no steps until its pid is reissued, so it
  /// counts as done for scheduling purposes (done() means "no runnable
  /// work", not "every script finished" — a crash-stop may strand a script
  /// forever).
  bool proc_done(std::uint32_t p) const {
    return procs_[p]->crashed || procs_[p]->rounds >= ops_of(p);
  }

  bool done() const {
    for (std::uint32_t p = 0; p < n_; ++p) {
      if (!proc_done(p)) return false;
    }
    return true;
  }

  bool crashed(std::uint32_t p) const { return procs_[p]->crashed; }

  /// LL..SC rounds in p's script.
  std::uint32_t ops_of(std::uint32_t p) const {
    return p < cfg_.ops_by_pid.size() ? cfg_.ops_by_pid[p]
                                      : cfg_.ops_per_proc;
  }

  /// p is parked between two ops (or has not started), not inside one.
  bool at_boundary(std::uint32_t p) const { return !procs_[p]->in_op; }

  /// One step of process p, feeding the checker after the step and after
  /// the op completion it may contain. p must not be done.
  template <class Checker>
  void step(std::uint32_t p, Checker& chk) {
    assert(!proc_done(p));
    sched_.push_back((p << 2) | kStep);
    Proc& pr = *procs_[p];
    pr.run();
    ++total_steps_;
    chk.on_step(*this);
    if (pr.completed) {
      pr.completed = false;
      const OpRecord& rec = pr.last;
      if (rec.type == OpType::kLl) {
        ++completed_lls_;
        if (rec.steps > max_ll_steps_) max_ll_steps_ = rec.steps;
      }
      chk.on_op(*this, rec);
    }
  }

  /// Crash-stop: p freezes before its next access and never steps again
  /// (until reclaim() reissues its pid at an op boundary). The private
  /// code after its last access has run, so a crash lands on a step
  /// boundary. Re-runs the invariant checks at the crash point.
  template <class Checker>
  void crash(std::uint32_t p, Checker& chk) {
    static_assert(kSupportsCrash, "this object does not model crash-stop");
    assert(!procs_[p]->crashed);
    sched_.push_back((p << 2) | kCrash);
    procs_[p]->crashed = true;
    ++crashes_;
    chk.on_step(*this);
  }

  /// Recycles the pid of a process frozen at an op boundary (an abandoned
  /// session) through the object's own rebind_pid, then starts a fresh
  /// incarnation that continues the script. Re-runs the invariant checks.
  template <class Checker>
  void reclaim(std::uint32_t p, Checker& chk) {
    static_assert(kSupportsCrash, "this object does not model crash-stop");
    assert(procs_[p]->crashed && at_boundary(p));
    sched_.push_back((p << 2) | kReclaim);
    procs_[p]->discard();
    obj_.rebind_pid(p);
    procs_[p]->crashed = false;
    ++reclaims_;
    chk.on_rebind(*this, p);
    chk.on_step(*this);
  }

  std::uint64_t total_steps() const { return total_steps_; }
  std::uint32_t max_ll_steps() const { return max_ll_steps_; }
  std::uint64_t completed_lls() const { return completed_lls_; }
  std::uint64_t crashes_total() const { return crashes_; }
  std::uint64_t crash_reclaims_total() const { return reclaims_; }

  /// The last op p completed.
  const OpRecord& last_op(std::uint32_t p) const { return procs_[p]->last; }

  /// Shared accesses p's in-flight op has made so far (0 at a boundary).
  std::uint32_t steps_in_flight(std::uint32_t p) const {
    return procs_[p]->in_op ? procs_[p]->rec.steps : 0;
  }

  /// p is inside an LL and its next access is the copy validation: the
  /// second read of X in the current link/validate pair.
  bool next_is_validate(std::uint32_t p) const {
    const Proc& pr = *procs_[p];
    return pr.in_op && pr.rec.type == OpType::kLl && pr.parked &&
           pr.pending_kind == Access::kLoad &&
           pr.pending_cell == Inspector<Object>::x_cell(obj_) &&
           pr.x_loads % 2 == 1;
  }

  /// Successful SCs that doom a pending validation.
  std::uint64_t doom_delta() const {
    return Inspector<Object>::doom_delta(obj_);
  }

  /// The schedule so far in token form: "P" is one step of process P,
  /// "cP" a crash, "rP" a reclaim.
  std::string schedule_string() const {
    static const char* const kPrefix[] = {"", "c", "r"};
    std::string out;
    for (const std::uint32_t e : sched_) {
      if (!out.empty()) out += ',';
      out += kPrefix[e & 3] + std::to_string(e >> 2);
    }
    return out;
  }

  /// Applies one recorded event ((pid << 2) | kind). Returns a reason if
  /// the event does not apply in the current state, else nullptr.
  template <class Checker>
  const char* apply(std::uint32_t event, Checker& chk) {
    const std::uint32_t p = event >> 2;
    const std::uint32_t kind = event & 3;
    if (p >= n_) return "pid out of range";
    if (kind != kStep && !kSupportsCrash) {
      return "crash/reclaim token for an object without crash-stop";
    }
    if constexpr (kSupportsCrash) {
      if (kind == kCrash) {
        if (proc_done(p)) return "crash of a crashed or finished pid";
        crash(p, chk);
        return nullptr;
      }
      if (kind == kReclaim) {
        if (!crashed(p)) return "reclaim of a live pid";
        if (!at_boundary(p)) return "reclaim of a pid frozen inside an op";
        reclaim(p, chk);
        return nullptr;
      }
    }
    if (proc_done(p)) return "step of a done/crashed pid";
    step(p, chk);
    return nullptr;
  }

  const std::vector<std::uint32_t>& events() const { return sched_; }

  /// Parses schedule tokens into events; false on a malformed token.
  static bool parse_schedule(const std::string& s,
                             std::vector<std::uint32_t>* out,
                             std::string* err) {
    std::istringstream in(s);
    for (std::string tok; std::getline(in, tok, ',');) {
      const std::uint32_t kind =
          tok[0] == 'c' ? kCrash : tok[0] == 'r' ? kReclaim : kStep;
      const std::string pid = tok.substr(kind == kStep ? 0 : 1);
      if (pid.empty() || pid.size() > 6 ||
          pid.find_first_not_of("0123456789") != std::string::npos) {
        *err = "schedule: malformed token \"" + tok + "\"";
        return false;
      }
      const auto pid_num = static_cast<std::uint32_t>(std::stoul(pid));
      out->push_back((pid_num << 2) | kind);
    }
    return true;
  }

 private:
  // Position in the current round's LL, [VL], SC script.
  enum : std::uint8_t { kAtLl = 0, kAtVl = 1, kAtSc = 2 };

  /// One simulated process: its script position, its current incarnation's
  /// fiber, and the bookkeeping the memory policy feeds.
  struct Proc final : detail::AccessSink {
    Proc(SimWorkload* owner, std::uint32_t p, util::SplitMix64 r)
        : wl(owner), pid(p), rng(r), buf(owner->w_) {}

    SimWorkload* wl;
    std::uint32_t pid;
    util::SplitMix64 rng;
    std::uint32_t rounds = 0;
    std::uint8_t micro = kAtLl;
    bool crashed = false;
    Fiber::Ptr fiber;
    bool unwind = false;       ///< the parked fiber must unwind, not resume
    bool in_op = false;
    bool parked = false;       ///< parked before pending_cell's access
    const void* pending_cell = nullptr;
    Access pending_kind = Access::kLoad;
    std::uint32_t accesses_this_run = 0;
    std::uint32_t x_loads = 0;  ///< reads of X's cell in the current LL
    bool completed = false;     ///< `last` completed during this run
    std::exception_ptr failure;  ///< thrown on the fiber, rethrown here
    OpRecord rec;               ///< the op in flight
    OpRecord last;
    std::vector<std::uint64_t> buf;

    void before_access(const void* cell, Access kind) override {
      if (accesses_this_run > 0) {
        // This step's access is done: park in front of the next one.
        parked = true;
        pending_cell = cell;
        pending_kind = kind;
        fiber->yield();
        parked = false;
        if (unwind) throw detail::Unwind{};
      }
      ++accesses_this_run;
      ++rec.steps;
      if (kind == Access::kLoad && rec.type == OpType::kLl &&
          cell == Inspector<Object>::x_cell(wl->obj_)) {
        ++x_loads;
      }
    }

    /// Runs this process for one step on the calling (scheduler) thread.
    void run() {
      if (!fiber) fiber = Fiber::start(&Proc::entry, this);
      accesses_this_run = 0;
      detail::running() = this;
      fiber->resume();
      detail::running() = nullptr;
      if (fiber->finished()) fiber.reset();
      if (failure) std::rethrow_exception(std::exchange(failure, nullptr));
    }

    /// Drops the current incarnation: a parked fiber unwinds its stack
    /// without touching shared memory; the in-flight op is abandoned.
    void discard() {
      if (fiber && !fiber->finished()) {
        unwind = true;
        detail::running() = this;
        fiber->resume();
        detail::running() = nullptr;
        unwind = false;
      }
      fiber.reset();
      in_op = false;
      parked = false;
    }

    static void entry(void* arg) {
      auto* self = static_cast<Proc*>(arg);
      try {
        self->script();
      } catch (const detail::Unwind&) {
      } catch (...) {
        // An exception must not leave the fiber's stack: hand it to the
        // scheduler side, which rethrows it from step().
        self->failure = std::current_exception();
      }
    }

    void script() {
      Object& obj = wl->obj_;
      for (;;) {
        begin(micro == kAtLl ? OpType::kLl
                             : micro == kAtVl ? OpType::kVl : OpType::kSc);
        switch (micro) {
          case kAtLl:
            obj.ll(pid, buf.data());
            rec.success = true;
            rec.value = buf;
            micro = (rng.next() % 100 < wl->cfg_.vl_percent) ? kAtVl : kAtSc;
            break;
          case kAtVl:
            rec.success = obj.vl(pid);
            micro = kAtSc;
            break;
          default:
            value_for(rounds);
            rec.value = buf;
            rec.success = obj.sc(pid, buf.data());
            micro = kAtLl;
            ++rounds;
            break;
        }
        rec.end_version = wl->version();
        last = std::move(rec);
        completed = true;
        in_op = false;
        if (rounds >= wl->ops_of(pid)) return;
        fiber->yield();  // park at the op boundary
        if (unwind) return;
      }
    }

    void begin(OpType type) {
      rec = OpRecord{};
      rec.type = type;
      rec.pid = pid;
      rec.start_version = wl->version();
      rec.had_link = Inspector<Object>::link_valid(wl->obj_, pid);
      x_loads = 0;
      in_op = true;
    }

    void value_for(std::uint32_t round) {
      for (std::uint32_t i = 0; i < wl->w_; ++i) {
        buf[i] = (std::uint64_t{pid} + 1) * 0x100000001b3ULL +
                 std::uint64_t{round} * 131 + i * 7 + 1;
      }
    }
  };

  Object obj_;
  std::uint32_t n_;
  std::uint32_t w_;
  WorkloadConfig cfg_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<std::uint32_t> sched_;  ///< (pid << 2) | event kind
  std::uint64_t total_steps_ = 0;
  std::uint64_t completed_lls_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t reclaims_ = 0;
  std::uint32_t max_ll_steps_ = 0;
};

/// Each simulated object's name in a repro block.
template <class Object>
inline constexpr const char* kImplName =
    std::is_same_v<Object, Jp> ? "jp" : std::is_same_v<Object, Am> ? "am"
                                                                    : "retry";

namespace detail {

/// The one builder of violation messages: on a checker violation, fails
/// `res` with the checker's error and then the repro block that re-runs it.
/// `runner` names a seeded runner and its knobs; an empty one stands for
/// the schedule itself.
template <class Object, class Checker>
bool bail(const Checker& chk, RunResult& res, const SimWorkload<Object>& wl,
          const std::string& runner) {
  if (chk.ok()) return false;
  const WorkloadConfig& c = wl.config();
  std::string ops;
  for (std::uint32_t p = 0; p < wl.n(); ++p) {
    ops += (p ? "," : "") + std::to_string(wl.ops_of(p));
  }
  res.ok = false;
  res.error = chk.error() + " [repro: impl=" + kImplName<Object> +
              " n=" + std::to_string(wl.n()) + " w=" + std::to_string(wl.w()) +
              " ops=" + ops + " wl-seed=" + std::to_string(c.seed) +
              " vl=" + std::to_string(c.vl_percent) + " " +
              (runner.empty() ? "schedule=" + wl.schedule_string() : runner) +
              "]";
  return true;
}

template <class Object>
RunResult finish(RunResult res, const SimWorkload<Object>& wl) {
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

}  // namespace detail

/// run_random's knobs. crash_period 0 means no crashes.
struct RandomConfig {
  std::uint64_t sched_seed = 1;
  std::uint32_t crash_period = 0;    ///< steps between crash injections
  std::uint32_t reclaim_delay = 23;  ///< steps a dead pid waits for reclaim
  std::uint32_t max_concurrent_crashes = 1;
};

/// Seeded uniform scheduling: every step, a uniformly random runnable
/// process moves. With a crash period (objects with rebind_pid only; the
/// crash arms compile out for the others) a crash is injected every
/// ~crash_period steps (never into the last live process) into a process
/// at an op boundary, as a session abandons, and each dead pid is reissued
/// reclaim_delay steps later, so survivors keep running against the frozen
/// pid, then against the recycled one. `wl` must be fresh.
template <class Object, class Checker>
RunResult run_random(SimWorkload<Object>& wl, Checker& chk,
                     const RandomConfig& cfg) {
  constexpr bool kCrash = SimWorkload<Object>::kSupportsCrash;
  assert(wl.events().empty());
  util::Xoshiro256 rng(cfg.sched_seed ? cfg.sched_seed : 1);
  RunResult res;
  const std::string how =
      "sched-seed=" + std::to_string(cfg.sched_seed) +
      " crash-period=" + std::to_string(cfg.crash_period) +
      " reclaim-delay=" + std::to_string(cfg.reclaim_delay) +
      " max-crashes=" + std::to_string(cfg.max_concurrent_crashes);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dead;  // pid, at step
  std::vector<std::uint32_t> runnable;
  std::vector<std::uint32_t> at_boundary;  // runnable between two ops
  std::uint64_t next_crash = cfg.crash_period;
  for (;;) {
    if constexpr (kCrash) {
      // Reclaim dead slots whose grace period expired.
      while (!dead.empty() &&
             wl.total_steps() >= dead.front().second + cfg.reclaim_delay) {
        wl.reclaim(dead.front().first, chk);
        dead.erase(dead.begin());
        if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
      }
      if (wl.done()) {
        // Only frozen stragglers can still hold unfinished scripts; recycle
        // them and let them finish (the run must end with every op done,
        // or the oracle would be vacuous on the tail).
        for (const auto& d : dead) {
          wl.reclaim(d.first, chk);
          if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
        }
        dead.clear();
      }
    }
    if (wl.done()) break;
    runnable.clear();
    for (std::uint32_t p = 0; p < wl.n(); ++p) {
      if (!wl.proc_done(p)) runnable.push_back(p);
    }
    if constexpr (kCrash) {
      at_boundary.clear();
      for (const std::uint32_t p : runnable) {
        if (wl.at_boundary(p)) at_boundary.push_back(p);
      }
      if (cfg.crash_period > 0 && wl.total_steps() >= next_crash &&
          runnable.size() > 1 && !at_boundary.empty() &&
          dead.size() < cfg.max_concurrent_crashes) {
        const std::uint32_t v = at_boundary[rng.next_below(
            static_cast<std::uint32_t>(at_boundary.size()))];
        wl.crash(v, chk);
        dead.emplace_back(v, wl.total_steps());
        next_crash = wl.total_steps() + cfg.crash_period;
        if (detail::bail(chk, res, wl, how)) break;
        continue;
      }
    }
    const std::uint32_t p =
        runnable[rng.next_below(static_cast<std::uint32_t>(runnable.size()))];
    wl.step(p, chk);
    if (detail::bail(chk, res, wl, how)) break;
  }
  return detail::finish(res, wl);
}

/// Re-executes a recorded schedule token-for-token (the format
/// schedule_string emits and repro blocks carry). Stops at the end of the
/// tokens or when the workload completes; a token that is not applicable
/// (wrong workload) reports divergence instead of asserting.
template <class Object, class Checker>
RunResult run_replay(SimWorkload<Object>& wl, Checker& chk,
                     const std::string& schedule) {
  RunResult res;
  std::vector<std::uint32_t> events;
  if (!SimWorkload<Object>::parse_schedule(schedule, &events, &res.error)) {
    res.ok = false;
    return detail::finish(res, wl);
  }
  for (const std::uint32_t e : events) {
    if (wl.done() && (e & 3) == 0) break;
    if (const char* diverged = wl.apply(e, chk)) {
      res.ok = false;
      res.error = std::string("replay diverged (") + diverged +
                  "): check that impl/n/w/ops/wl-seed/vl match the failing run";
      break;
    }
    if (detail::bail(chk, res, wl, "")) break;
  }
  return detail::finish(res, wl);
}

/// The anti-schedule: starve `victim`'s copy loop. Run the victim until its
/// next step is the copy validation (capped at victim_burst steps), run the
/// other processes round-robin until doom_delta() successful SCs landed,
/// then let the victim take its now-doomed validation. Repeat until
/// max_steps.
///
/// For the announce/help protocols the victim is rescued by a donation
/// within O(N) successful SCs, so its worst LL is flat in max_steps; the
/// retry strawman's victim never completes and steps_in_flight(victim)
/// grows linearly with max_steps. `wl` must be fresh.
template <class Object, class Checker>
RunResult run_adversarial_anti(SimWorkload<Object>& wl, Checker& chk,
                               std::uint32_t victim,
                               std::uint32_t victim_burst,
                               std::uint64_t max_steps) {
  assert(wl.events().empty());
  RunResult res;
  const std::string how = "anti victim=" + std::to_string(victim) +
                          " burst=" + std::to_string(victim_burst) +
                          " max-steps=" + std::to_string(max_steps);
  const auto step_fails = [&](std::uint32_t p) {
    wl.step(p, chk);
    return detail::bail(chk, res, wl, how);
  };
  const std::uint32_t n = wl.n();
  std::uint32_t rr = victim;  // round-robin cursor over the adversaries
  while (wl.total_steps() < max_steps && !wl.done()) {
    // Victim slice: up to the brink of its validation.
    for (std::uint32_t k = 0; k < victim_burst; ++k) {
      if (wl.proc_done(victim) || wl.next_is_validate(victim) ||
          wl.total_steps() >= max_steps) {
        break;
      }
      if (step_fails(victim)) return detail::finish(res, wl);
    }
    if (wl.proc_done(victim)) break;  // the victim survived its whole script
    // Adversary slice: writers run until enough successful SCs land to
    // doom the victim's validation.
    const std::uint64_t v0 = wl.version();
    bool progressed = false;
    while (wl.version() - v0 < wl.doom_delta() &&
           wl.total_steps() < max_steps) {
      std::uint32_t q = n;
      for (std::uint32_t i = 1; i <= n; ++i) {
        const std::uint32_t c = (rr + i) % n;
        if (c != victim && !wl.proc_done(c)) {
          q = c;
          break;
        }
      }
      if (q == n) break;  // no adversaries left
      rr = q;
      if (step_fails(q)) return detail::finish(res, wl);
      progressed = true;
    }
    if (!progressed) {
      // Degenerate (N==1 or writers exhausted): the victim runs alone.
      if (step_fails(victim)) return detail::finish(res, wl);
    } else if (wl.version() - v0 >= wl.doom_delta() &&
               wl.next_is_validate(victim)) {
      // Only validate once the SCs have actually landed; if the step
      // budget ran out mid-slice the validation would *succeed* and
      // hand the victim a completion the adversary never conceded.
      if (step_fails(victim)) return detail::finish(res, wl);  // doomed
    }
  }
  return detail::finish(res, wl);
}

namespace detail {

template <class Object, class Checker>
struct Enumerator {
  std::uint32_t n;
  std::uint32_t w;
  WorkloadConfig cfg;
  std::uint64_t max_schedules;
  EnumerateResult res;
  bool stop = false;

  struct Run {
    std::unique_ptr<SimWorkload<Object>> wl;
    std::unique_ptr<Checker> chk;
  };

  Run fresh() {
    Run r;
    r.wl = std::make_unique<SimWorkload<Object>>(n, w, cfg);
    r.chk = std::make_unique<Checker>(*r.wl);
    return r;
  }

  /// A new run in the same state as `from`: stateless search rebuilds a
  /// branch point by replaying its schedule prefix on a fresh object.
  Run replay(const Run& from) {
    Run r = fresh();
    for (const std::uint32_t e : from.wl->events()) r.wl->apply(e, *r.chk);
    return r;
  }

  bool failed(const Run& r) { return stop = bail(*r.chk, res, *r.wl, ""); }

  // Depth-first over scheduling choice points. The default scheduler runs
  // `current` until it finishes its script; the choice of who runs first
  // and each context switch at a completion are free, branching over
  // EVERY runnable successor (not just one canonical pick — otherwise
  // schedules that resume a specific process after a completion would
  // silently cost a preemption). With budget left, every other step is
  // additionally a branch point where any live process may preempt.
  // `fresh_switch` marks the step right after a free choice, where
  // preempting would only replay a sibling free branch — suppressing it
  // keeps the enumeration duplicate-free. Recursion depth <= preemption
  // budget + crash budget + number of processes: the continue-arm is the
  // loop, not a recursive call.
  //
  // With crash budget, every step of `current` is additionally a branch
  // point where current crash-stops instead of stepping. Crashing only
  // the about-to-step process is a sound reduction: a crash is
  // protocol-inert (it only suppresses the victim's future steps), so any
  // execution with a crash is step-for-step identical to one where the
  // victim froze immediately after its own last step — or before its
  // first, which the free start/switch branches make it `current` for.
  // The budget therefore injects a crash at every protocol step of every
  // process without enumerating the redundant placements in between.
  void explore(Run run, std::uint32_t current, std::uint32_t preempts_left,
               std::uint32_t crashes_left, bool fresh_switch) {
    SimWorkload<Object>& wl = *run.wl;
    for (;;) {
      if (stop) return;
      if (wl.done()) {
        ++res.schedules_explored;
        if (wl.max_ll_steps() > res.max_ll_steps) {
          res.max_ll_steps = wl.max_ll_steps();
        }
        res.stats += wl.object().stats();
        if (res.schedules_explored >= max_schedules) {
          res.truncated = true;
          stop = true;
        }
        return;
      }
      if (wl.proc_done(current)) {
        // Free switch: continue with the first runnable process, branch
        // recursively into each alternative successor.
        std::uint32_t first = n;
        for (std::uint32_t q = 0; q < n; ++q) {
          if (wl.proc_done(q)) continue;
          if (first == n) {
            first = q;
            continue;
          }
          explore(replay(run), q, preempts_left, crashes_left,
                  /*fresh_switch=*/true);
          if (stop) return;
        }
        assert(first < n);
        current = first;
      } else if (!fresh_switch && preempts_left > 0) {
        for (std::uint32_t q = 0; q < n; ++q) {
          if (q == current || wl.proc_done(q)) continue;
          Run branch = replay(run);
          branch.wl->step(q, *branch.chk);
          ++res.total_steps;
          if (failed(branch)) return;
          explore(std::move(branch), q, preempts_left - 1, crashes_left,
                  /*fresh_switch=*/false);
          if (stop) return;
        }
      }
      if constexpr (SimWorkload<Object>::kSupportsCrash) {
        if (crashes_left > 0 && !wl.crashed(current)) {
          // Crash branch: current freezes here instead of taking this step.
          Run branch = replay(run);
          branch.wl->crash(current, *branch.chk);
          if (failed(branch)) return;
          explore(std::move(branch), current, preempts_left,
                  crashes_left - 1, /*fresh_switch=*/true);
          if (stop) return;
        }
      }
      wl.step(current, *run.chk);
      fresh_switch = false;
      ++res.total_steps;
      if (failed(run)) return;
    }
  }
};

}  // namespace detail

/// CHESS-style bounded exhaustive search over an N-process, W-word object
/// running `cfg`'s workload: explore every schedule with at most
/// max_preemptions preemptions and max_crashes crash-stop events (up to
/// max_schedules complete executions), checking after every step with a
/// fresh Checker(workload) per execution. The choice of which process runs
/// first is a free branch — it is not a preemption — so the search really
/// covers every schedule within the budget regardless of who starts; with
/// a crash budget, every protocol step of every process doubles as a
/// crash-stop injection point (see Enumerator::explore for why that
/// placement is exhaustive). Crashed processes stay frozen to the end of
/// the schedule — the live processes must complete against their
/// abandoned announces, donations and in-flight retirements.
template <class Object, class Checker>
EnumerateResult enumerate_preemption_bounded(std::uint32_t n, std::uint32_t w,
                                             const WorkloadConfig& cfg,
                                             std::uint32_t max_preemptions,
                                             std::uint64_t max_schedules,
                                             std::uint32_t max_crashes = 0) {
  detail::Enumerator<Object, Checker> e{n, w, cfg,
                                        max_schedules ? max_schedules : 1,
                                        {}, false};
  for (std::uint32_t p = 0; p < n && !e.stop; ++p) {
    auto run = e.fresh();
    if (run.wl->proc_done(p)) continue;
    e.explore(std::move(run), p, max_preemptions, max_crashes,
              /*fresh_switch=*/true);
  }
  return e.res;
}

/// A parsed repro block (detail::bail writes them). A schedule means a
/// replay, `anti` an anti-adversary run, and neither a random run.
struct Repro {
  std::string impl;
  std::uint32_t n = 0, w = 0;
  WorkloadConfig workload;
  std::string schedule;
  bool anti = false;
  std::uint32_t victim = 0, burst = 0;
  std::uint64_t max_steps = 0;
  RandomConfig random;
};

/// Reads the first "[repro: ...]" block in `text` (a whole violation
/// message or the block alone), keys in the order detail::bail writes them.
/// False, with `err` set, if the block is malformed or out of range.
inline bool parse_repro(const std::string& text, Repro* out,
                        std::string* err) {
  const std::size_t at = text.find("[repro: ");
  const std::size_t end = text.find(']', at);
  const std::string block = at == std::string::npos || end == std::string::npos
                                ? ""
                                : text.substr(at + 8, end - at - 8);
  Repro r;
  RandomConfig& c = r.random;
  char impl[8] = "";
  char ops[1024] = "";
  int used = 0;
  int tail = -1;  // where a seeded runner's knobs end
  std::sscanf(block.c_str(),
              "impl=%7s n=%" SCNu32 " w=%" SCNu32 " ops=%1023[0-9,] wl-seed=%"
              SCNu64 " vl=%" SCNu32 " %n",
              impl, &r.n, &r.w, ops, &r.workload.seed,
              &r.workload.vl_percent, &used);
  // If the common part did not parse, used is 0 and a check below fails.
  const char* rest = block.c_str() + used;
  if (block.compare(used, 9, "schedule=") == 0) {
    r.schedule = rest + 9;
    std::vector<std::uint32_t> events;
    if (!SimWorkload<Jp>::parse_schedule(r.schedule, &events, err)) {
      return false;
    }
  } else if (std::sscanf(rest,
                         "anti victim=%" SCNu32 " burst=%" SCNu32
                         " max-steps=%" SCNu64 "%n",
                         &r.victim, &r.burst, &r.max_steps, &tail) == 3) {
    r.anti = true;
  } else {
    std::sscanf(rest,
                "sched-seed=%" SCNu64 " crash-period=%" SCNu32
                " reclaim-delay=%" SCNu32 " max-crashes=%" SCNu32 "%n",
                &c.sched_seed, &c.crash_period, &c.reclaim_delay,
                &c.max_concurrent_crashes, &tail);
  }
  bool good = !r.schedule.empty() || (tail >= 0 && rest[tail] == '\0');
  std::istringstream list(ops);  // digits and commas only
  for (std::string k; good && std::getline(list, k, ',');) {
    good = !k.empty() && k.size() < 10;
    if (good) r.workload.ops_by_pid.push_back(std::stoul(k));
  }
  r.impl = impl;
  if (!good || r.n == 0 || r.n > 64 || r.w == 0 || r.w > 1024 ||
      r.workload.ops_by_pid.size() != r.n || (r.anti && r.victim >= r.n) ||
      (r.impl != kImplName<Jp> && r.impl != kImplName<Am> &&
       r.impl != kImplName<Retry>)) {
    *err = "repro: want impl=jp|am|retry n=1..64 w=1..1024 ops=<one per "
           "pid> wl-seed vl, then a runner; got [repro: " + block + "]";
    return false;
  }
  *out = std::move(r);
  return true;
}

/// Re-runs a block that parse_repro accepted, from scratch, under the
/// checker that `make(workload)` returns (CheckerOf<Object> for the
/// strongest one).
template <class MakeChecker>
RunResult run_repro(const Repro& r, MakeChecker make) {
  const auto run = [&](auto* object) {
    using Object = std::remove_pointer_t<decltype(object)>;
    SimWorkload<Object> wl(r.n, r.w, r.workload);
    auto chk = make(wl);
    if (!r.schedule.empty()) return run_replay(wl, chk, r.schedule);
    if (r.anti) {
      return run_adversarial_anti(wl, chk, r.victim, r.burst, r.max_steps);
    }
    return run_random(wl, chk, r.random);
  };
  if (r.impl == kImplName<Am>) return run(static_cast<Am*>(nullptr));
  if (r.impl == kImplName<Retry>) return run(static_cast<Retry*>(nullptr));
  return run(static_cast<Jp*>(nullptr));
}

}  // namespace mwllsc::sim
