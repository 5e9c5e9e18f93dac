// E8 — The stall adversary: what wait-freedom buys (paper §1: locks
// "impose waiting ... and are not fault-tolerant").
//
// Workload: read-modify-write of a W-word object. One designated SLOW
// thread injects a compute delay delta between reading the value and
// writing it back — modeling a preempted, page-faulting, or crashed-slow
// process in the middle of an update:
//   * with LL/SC (jp):       the slow thread's SC simply fails; the fast
//                            threads never wait for it;
//   * with a lock (rmw under mutex): the object is unavailable for delta on
//                            every slow-thread operation — every fast
//                            thread convoys behind it;
//   * with retry (lock-free): fast *writers* are fine. Its flip side,
//                            reader starvation, is shown by E9 and by
//                            test_sim's adversarial schedules, not here.
//
// Reported per delta: fast-thread throughput, and p50/p99/max fast-thread
// op latency.
//
// Run: ./bench_stall_adversary
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

constexpr std::uint32_t kWords = 8;
constexpr std::uint64_t kDurationNs = 400'000'000;

struct StallResult {
  double fast_mops = 0;
  std::uint64_t p50 = 0, p99 = 0, max = 0;
};

/// `mode`: "llsc" — slow thread uses LL/compute(delta)/SC;
///         "lock" — ALL threads serialize a mutex around read/compute/write,
///                  slow thread computes for delta inside the lock.
StallResult run_stall(const std::string& impl, unsigned threads,
                      std::uint64_t stall_ns, bench::ObsSession& obs) {
  auto factory = bench::factory_by_name(impl);
  auto obj = factory.make(threads, kWords);
  obs.bind(*obj, impl + " stall=" + std::to_string(stall_ns / 1000) + "us");
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> fast_ops{0};
  std::vector<util::LatencyHistogram> hists(threads);
  util::TimedRun run;

  run.run_for(threads, kDurationNs, [&](unsigned t) {
    std::vector<std::uint64_t> value(obj->words());
    const bool slow = (t == 0);
    std::uint64_t ops = 0;
    while (!run.should_stop()) {
      const std::uint64_t t0 = util::now_ns();
      obj->ll(t, value.data());
      value[0] += 1;
      if (slow && stall_ns > 0) {
        // Stall *mid-operation*, between LL and SC.
        const std::uint64_t until = util::now_ns() + stall_ns;
        while (util::now_ns() < until) {
        }
      }
      obj->sc(t, value.data());
      const std::uint64_t t1 = util::now_ns();
      if (!slow) {
        hists[t].record(t1 - t0);
        ++ops;
      }
    }
    if (!slow) fast_ops.fetch_add(ops, std::memory_order_relaxed);
  });

  util::LatencyHistogram all;
  for (unsigned t = 1; t < threads; ++t) all.merge(hists[t]);
  obs.registry().absorb_latency("impl=\"" + impl + "\",stall_ns=\"" +
                                    std::to_string(stall_ns) + "\"",
                                all);
  obs.registry().absorb(
      "impl=\"" + impl + "\",stall_ns=\"" + std::to_string(stall_ns) + "\"",
      obj->stats());
  StallResult r;
  r.fast_mops = static_cast<double>(fast_ops.load(std::memory_order_relaxed)) /
                (static_cast<double>(run.measured_ns()) / 1e9) / 1e6;
  r.p50 = all.percentile(0.50);
  r.p99 = all.percentile(0.99);
  r.max = static_cast<std::uint64_t>(all.max());
  return r;
}

/// The lock failure mode proper: the whole read-modify-write happens inside
/// one mutex-protected critical section (how a lock-based multiword object
/// is actually used), so a stalled holder blocks everyone.
StallResult run_lock_cs(unsigned threads, std::uint64_t stall_ns) {
  std::mutex mu;
  std::vector<std::uint64_t> value(kWords, 0);
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> fast_ops{0};
  std::vector<util::LatencyHistogram> hists(threads);
  util::TimedRun run;

  run.run_for(threads, kDurationNs, [&](unsigned t) {
    const bool slow = (t == 0);
    std::uint64_t ops = 0;
    while (!run.should_stop()) {
      const std::uint64_t t0 = util::now_ns();
      {
        std::lock_guard<std::mutex> g(mu);
        value[0] += 1;  // read-modify-write under the lock
        if (slow && stall_ns > 0) {
          const std::uint64_t until = util::now_ns() + stall_ns;
          while (util::now_ns() < until) {
          }
        }
      }
      const std::uint64_t t1 = util::now_ns();
      if (!slow) {
        hists[t].record(t1 - t0);
        ++ops;
      }
    }
    if (!slow) fast_ops.fetch_add(ops, std::memory_order_relaxed);
  });

  util::LatencyHistogram all;
  for (unsigned t = 1; t < threads; ++t) all.merge(hists[t]);
  StallResult r;
  r.fast_mops = static_cast<double>(fast_ops.load(std::memory_order_relaxed)) /
                (static_cast<double>(run.measured_ns()) / 1e9) / 1e6;
  r.p50 = all.percentile(0.50);
  r.p99 = all.percentile(0.99);
  r.max = static_cast<std::uint64_t>(all.max());
  return r;
}

void print_row(TablePrinter& table, const std::string& name,
               std::uint64_t stall_us, const StallResult& r) {
  table.add_row({name, TablePrinter::num(std::size_t{stall_us}),
                 TablePrinter::num(r.fast_mops, 2),
                 TablePrinter::num(std::size_t{r.p50}),
                 TablePrinter::num(std::size_t{r.p99}),
                 TablePrinter::num(std::size_t{r.max})});
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads =
      std::min(std::max(4u, std::thread::hardware_concurrency()), 8u);
  bench::ObsSession obs(argc, argv, threads);

  std::printf(
      "E8: stall adversary — one thread stalls mid-update for delta; fast\n"
      "threads' throughput and latency tell us who waits for whom.\n"
      "threads = %u, W = %u\n\n",
      threads, kWords);

  TablePrinter table({"object", "stall (us)", "fast Mops", "p50 (ns)",
                      "p99 (ns)", "max (ns)"});
  for (std::uint64_t stall_us : {0ULL, 100ULL, 1000ULL, 10000ULL}) {
    const std::uint64_t ns = stall_us * 1000;
    print_row(table, "jp (wait-free)", stall_us,
              run_stall("jp", threads, ns, obs));
    print_row(table, "am (wait-free)", stall_us,
              run_stall("am", threads, ns, obs));
    print_row(table, "retry (lock-free)", stall_us,
              run_stall("retry", threads, ns, obs));
    print_row(table, "mutex CS (blocking)", stall_us,
              run_lock_cs(threads, ns));
  }
  table.print();

  std::printf(
      "\nreading the table: for the wait-free objects the fast threads'\n"
      "latency is untouched by the stall (the slow SC just fails); for the\n"
      "mutex the max latency tracks delta and throughput collapses — the\n"
      "convoying/fault-tolerance argument of the paper's introduction.\n");
  return obs.finish() ? 0 : 1;
}
