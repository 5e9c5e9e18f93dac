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
//   * run_random            seeded uniform scheduling, the baseline sweep;
//   * run_adversarial_anti  an anti-schedule that tries to starve one
//                           victim reader: run the victim up to its copy
//                           validation, land enough successful SCs to doom
//                           it, let it validate, repeat. The wait-free
//                           protocols rescue the victim through the help
//                           path; the retry strawman's victim LL grows with
//                           however long the adversary runs;
//   * enumerate_preemption_bounded
//                           CHESS-style bounded search (Musuvathi & Qadeer):
//                           every schedule with at most K preemptions and,
//                           with a crash budget, every crash-stop placement.
//                           Objects cannot be copied mid-run, so the search
//                           is stateless: each branch rebuilds its state by
//                           replaying the schedule prefix on a fresh object;
//   * run_crash_churn       seeded-random scheduling with periodic
//                           crash(pid) injection at op boundaries and
//                           delayed reclamation — the membership layer's
//                           churn, in the simulator;
//   * run_replay            re-executes a recorded schedule token-for-token
//                           (every invariant-violation message embeds its
//                           scheduler seed and exact schedule prefix, so
//                           failures reproduce with --seed/--replay).
//
// Crash-stop is modeled by never resuming a process, at any step. A pid
// frozen at an op boundary is an abandoned session: reclaim(pid) reissues
// it through the object's own rebind_pid to a fresh incarnation that
// continues the script. rebind(pid) is a graceful retirement at an op
// boundary followed by rebind_pid. A pid frozen inside an op stays frozen:
// recovering it would need a recoverable CAS, which the object does not
// model.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
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

struct EnumerateResult {
  bool ok = true;
  std::string error;
  std::uint64_t schedules_explored = 0;  ///< complete executions reached
  std::uint64_t total_steps = 0;  ///< steps in the schedule tree
  std::uint32_t max_ll_steps = 0;  ///< worst completed LL across schedules
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
  static constexpr std::uint32_t kStep = 0, kCrash = 1, kReclaim = 2,
                                 kRebind = 3;

 public:
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

  /// The abstract version: X's sequence tag.
  std::uint64_t version() const { return Inspector<Object>::version(obj_); }

  /// A crashed process takes no steps until its pid is reissued, so it
  /// counts as done for scheduling purposes (done() means "no runnable
  /// work", not "every script finished" — a crash-stop may strand a script
  /// forever).
  bool proc_done(std::uint32_t p) const {
    return procs_[p]->crashed || script_done(p);
  }

  bool done() const {
    for (std::uint32_t p = 0; p < n_; ++p) {
      if (!proc_done(p)) return false;
    }
    return true;
  }

  bool crashed(std::uint32_t p) const { return procs_[p]->crashed; }

  /// Whether p's script is finished regardless of crash state.
  bool script_done(std::uint32_t p) const {
    return procs_[p]->rounds >= ops_of(p);
  }

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

  /// Graceful retirement of p's holder at an op boundary, then the pid is
  /// reissued (rebind_pid) to a new holder who continues the script.
  template <class Checker>
  void rebind(std::uint32_t p, Checker& chk) {
    static_assert(kSupportsCrash, "this object does not model crash-stop");
    assert(!procs_[p]->crashed && at_boundary(p));
    sched_.push_back((p << 2) | kRebind);
    obj_.rebind_pid(p);
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

  /// The schedule so far in `--replay` token form: "P" is one step of
  /// process P, "cP" a crash, "rP" a reclaim, "bP" a rebind. Longer
  /// schedules are truncated with a "+K" tail — the scheduler seed in the
  /// same message reproduces them in full.
  std::string schedule_string(std::size_t max_chars = 4096) const {
    static const char* const kPrefix[] = {"", "c", "r", "b"};
    std::string out;
    for (std::size_t i = 0; i < sched_.size(); ++i) {
      const std::string tok =
          kPrefix[sched_[i] & 3] + std::to_string(sched_[i] >> 2);
      if (!out.empty()) out += ',';
      if (out.size() + tok.size() > max_chars) {
        out += "+" + std::to_string(sched_.size() - i) + " more";
        break;
      }
      out += tok;
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
      return "crash/reclaim/rebind token for an object without crash-stop";
    }
    if constexpr (kSupportsCrash) {
      switch (kind) {
        case kCrash:
          if (crashed(p)) return "crash of an already-crashed pid";
          if (proc_done(p)) return "crash of a finished pid";
          crash(p, chk);
          return nullptr;
        case kReclaim:
          if (!crashed(p)) return "reclaim of a live pid";
          if (!at_boundary(p)) return "reclaim of a pid frozen inside an op";
          reclaim(p, chk);
          return nullptr;
        case kRebind:
          if (crashed(p) || !at_boundary(p)) {
            return "rebind of a crashed pid or one inside an op";
          }
          rebind(p, chk);
          return nullptr;
        default:
          break;
      }
    }
    if (proc_done(p)) return "step of a done/crashed pid";
    step(p, chk);
    return nullptr;
  }

  const std::vector<std::uint32_t>& events() const { return sched_; }

  /// Parses `--replay` tokens into events; false on a malformed token.
  static bool parse_schedule(const std::string& s,
                             std::vector<std::uint32_t>* out,
                             std::string* err) {
    std::size_t i = 0;
    while (i < s.size()) {
      if (s[i] == ',' || s[i] == ' ') {
        ++i;
        continue;
      }
      std::uint32_t kind = kStep;
      if (s[i] == 'c') kind = kCrash;
      if (s[i] == 'r') kind = kReclaim;
      if (s[i] == 'b') kind = kRebind;
      if (kind != kStep) ++i;
      if (i >= s.size() || s[i] < '0' || s[i] > '9') {
        *err = "replay: malformed token at offset " + std::to_string(i);
        return false;
      }
      std::uint32_t p = 0;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        p = p * 10 + static_cast<std::uint32_t>(s[i++] - '0');
      }
      out->push_back((p << 2) | kind);
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

namespace detail {

/// On a checker violation, embeds how the schedule was produced (the seed
/// or adversary) plus the exact schedule prefix in the error, so every
/// failure reproduces via --seed or --replay (bench_sim_schedules).
template <class Object, class Checker>
bool bail(const Checker& chk, RunResult& res, const SimWorkload<Object>& wl,
          const std::string& how) {
  if (chk.ok()) return false;
  res.ok = false;
  res.error = chk.error() + " [repro: " + how +
              " schedule=" + wl.schedule_string() + "]";
  return true;
}

template <class Object>
RunResult finish(RunResult res, const SimWorkload<Object>& wl) {
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

}  // namespace detail

/// Seeded uniform scheduling: every step, a uniformly random not-yet-done
/// process moves.
template <class Object, class Checker>
RunResult run_random(SimWorkload<Object>& wl, Checker& chk,
                     std::uint64_t sched_seed) {
  util::Xoshiro256 rng(sched_seed ? sched_seed : 1);
  RunResult res;
  const std::string how = "sched-seed=" + std::to_string(sched_seed);
  std::vector<std::uint32_t> runnable;
  while (!wl.done()) {
    runnable.clear();
    for (std::uint32_t p = 0; p < wl.n(); ++p) {
      if (!wl.proc_done(p)) runnable.push_back(p);
    }
    const std::uint32_t p =
        runnable[rng.next_below(static_cast<std::uint32_t>(runnable.size()))];
    wl.step(p, chk);
    if (detail::bail(chk, res, wl, how)) break;
  }
  return detail::finish(res, wl);
}

/// Churn scheduling for the crash-stop adversary: seeded-random stepping
/// with a crash injected every ~crash_period steps (never the last live
/// process) into a process at an op boundary, as a session abandons, and
/// each dead pid reissued reclaim_delay steps later, so survivors keep
/// running against the frozen pid, then against the recycled one.
struct ChurnConfig {
  std::uint64_t sched_seed = 1;
  std::uint32_t crash_period = 53;   ///< steps between crash injections
  std::uint32_t reclaim_delay = 23;  ///< steps a dead pid waits for reclaim
  std::uint32_t max_concurrent_crashes = 1;
};

template <class Object, class Checker>
RunResult run_crash_churn(SimWorkload<Object>& wl, Checker& chk,
                          ChurnConfig cfg) {
  static_assert(SimWorkload<Object>::kSupportsCrash,
                "crash churn needs an object with rebind_pid");
  util::Xoshiro256 rng(cfg.sched_seed ? cfg.sched_seed : 1);
  RunResult res;
  const std::string how = "churn-seed=" + std::to_string(cfg.sched_seed);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dead;  // pid, at step
  std::vector<std::uint32_t> runnable;
  std::vector<std::uint32_t> at_boundary;  // runnable between two ops
  std::uint64_t next_crash = cfg.crash_period;
  for (;;) {
    // Reclaim dead slots whose grace period expired.
    while (!dead.empty() &&
           wl.total_steps() >= dead.front().second + cfg.reclaim_delay) {
      wl.reclaim(dead.front().first, chk);
      dead.erase(dead.begin());
      if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
    }
    if (wl.done()) {
      // Only frozen stragglers can still hold unfinished scripts; recycle
      // them and let them finish (the run must end with every op done, or
      // the oracle would be vacuous on the tail).
      if (dead.empty()) break;
      for (const auto& d : dead) {
        wl.reclaim(d.first, chk);
        if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
      }
      dead.clear();
      if (wl.done()) break;
    }
    runnable.clear();
    for (std::uint32_t p = 0; p < wl.n(); ++p) {
      if (!wl.proc_done(p)) runnable.push_back(p);
    }
    if (runnable.empty()) continue;  // everyone crashed; loop reclaims
    at_boundary.clear();
    for (const std::uint32_t p : runnable) {
      if (wl.at_boundary(p)) at_boundary.push_back(p);
    }
    if (wl.total_steps() >= next_crash && runnable.size() > 1 &&
        !at_boundary.empty() && dead.size() < cfg.max_concurrent_crashes) {
      const std::uint32_t v = at_boundary[rng.next_below(
          static_cast<std::uint32_t>(at_boundary.size()))];
      wl.crash(v, chk);
      dead.emplace_back(v, wl.total_steps());
      next_crash = wl.total_steps() + cfg.crash_period;
      if (detail::bail(chk, res, wl, how)) break;
      continue;
    }
    const std::uint32_t p =
        runnable[rng.next_below(static_cast<std::uint32_t>(runnable.size()))];
    wl.step(p, chk);
    if (detail::bail(chk, res, wl, how)) break;
  }
  return detail::finish(res, wl);
}

/// Re-executes a recorded schedule token-for-token (the format
/// schedule_string emits and invariant-violation messages embed). Stops at
/// the end of the tokens or when the workload completes; a token that is
/// not applicable (wrong config or seed) reports divergence instead of
/// asserting.
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
                  "): check that N/W/ops/seed match the failing run";
      break;
    }
    if (detail::bail(chk, res, wl, "replay")) break;
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
/// grows linearly with max_steps.
template <class Object, class Checker>
RunResult run_adversarial_anti(SimWorkload<Object>& wl, Checker& chk,
                               std::uint32_t victim,
                               std::uint32_t victim_burst,
                               std::uint64_t max_steps) {
  RunResult res;
  const std::string how = "anti-adversary victim=" + std::to_string(victim);
  const std::uint32_t n = wl.n();
  std::uint32_t rr = victim;  // round-robin cursor over the adversaries
  while (wl.total_steps() < max_steps && !wl.done()) {
    // Victim slice: up to the brink of its validation.
    for (std::uint32_t k = 0; k < victim_burst; ++k) {
      if (wl.proc_done(victim) || wl.next_is_validate(victim) ||
          wl.total_steps() >= max_steps) {
        break;
      }
      wl.step(victim, chk);
      if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
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
      wl.step(q, chk);
      if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
      progressed = true;
    }
    if (!progressed) {
      // Degenerate (N==1 or writers exhausted): the victim runs alone.
      wl.step(victim, chk);
      if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
    } else if (wl.version() - v0 >= wl.doom_delta() &&
               wl.next_is_validate(victim)) {
      // Only validate once the SCs have actually landed; if the step
      // budget ran out mid-slice the validation would *succeed* and
      // hand the victim a completion the adversary never conceded.
      wl.step(victim, chk);  // the doomed validation
      if (detail::bail(chk, res, wl, how)) return detail::finish(res, wl);
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

  bool failed(const Run& r) {
    if (r.chk->ok()) return false;
    res.ok = false;
    // The enumerated schedule is the exact repro: feed it to --replay.
    res.error = r.chk->error() + " [repro: enumerated schedule=" +
                r.wl->schedule_string() + "]";
    stop = true;
    return true;
  }

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

}  // namespace mwllsc::sim
