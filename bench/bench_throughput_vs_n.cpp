// E3 — Contended throughput vs thread count (the paper's §1 motivation:
// lock-free objects avoid the serialization and convoying of locks), and,
// from the same cells, E4 (the helping mechanism under load, paper §2.2)
// and E5 (SC failures are semantic, Figure 1).
//
// Every thread loops { LL; modify; SC } on one shared W-word object. The
// W x threads x implementation grid runs once per invocation, with thread
// counts 1, 2, 4, ... up to the CPUs this process may run on; each cell's
// stats snapshot feeds every table printed for its W:
//   * throughput — million LL;SC pairs per second. jp and am track each
//     other (same helping schedule; am pays an O(W) copy where jp exchanges
//     a buffer, so their gap is the exchange-vs-copy ablation E6(a)),
//     retry is fastest at low contention, and lock serializes;
//   * SC success (E5) — per implementation, next to 1/threads. Failures
//     are semantic, never spurious, so a saturated object commits about
//     one SC per round and all implementations read alike;
//   * jp helping (E4), per 1000 LLs — slow LLs (the unannounced first
//     attempt failed and the LL announced), helped LLs (a helper's buffer
//     was waiting), line-7 rescues (the LL returned the handed value) and
//     help installs (SCs that performed the ownership exchange). The rates
//     stay small at low contention and grow with N and W, yet never touch
//     the O(W) step bound: help is a constant-cost premium, not a retry
//     loop.
// Then E4's reader-heavy table (2 writers, the rest pure readers, W = 64)
// and a disjoint-access table (32 objects, W = 8).
//
// Exit gate: 1 if any jp or am cell breaks invariant I2 (bank_writes !=
// sc_success: one bank write per successful SC), or any jp cell took a
// defensive LL retry.
//
// Run: ./bench_throughput_vs_n                 tables
//      ./bench_throughput_vs_n --json PATH     the same grid as BENCH_*.json
//        [--smoke]                             reduced grid
//        [--trace PATH] [--metrics PATH]       obs/ export (bench_common.hpp)
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

/// Thread counts 1, 2, 4, ... up to the CPUs this process may run on (its
/// affinity mask, as recorded in the JSON header), optionally capped.
std::vector<unsigned> scaling_thread_counts(unsigned cap) {
  unsigned hw = bench::usable_cpus();
  if (hw == 0) hw = 1;
  if (cap != 0 && hw > cap) hw = cap;
  std::vector<unsigned> out;
  for (unsigned t = 1; t <= hw; t *= 2) out.push_back(t);
  if (out.back() != hw) out.push_back(hw);
  return out;
}

double rate(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

std::string pct(double frac) {
  return TablePrinter::num(100.0 * frac, 1) + "%";
}

/// `count` per 1000 of `whole`, for the helping columns.
std::string per_k(std::uint64_t count, std::uint64_t whole) {
  return TablePrinter::num(1000.0 * rate(count, whole), 2);
}

double mops(std::uint64_t ops, const util::TimedRun& run) {
  return static_cast<double>(ops) /
         (static_cast<double>(run.measured_ns()) / 1e9) / 1e6;
}

/// Every thread loops { LL; modify; SC } on its own process id for
/// `duration_ns`: the paper's canonical read-modify-write of a W-word
/// object. Returns million pairs per second.
double run_rmw(core::IMwLLSC& obj, unsigned threads,
               std::uint64_t duration_ns) {
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> total_pairs{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> value(obj.words());
    std::uint64_t pairs = 0;
    util::SplitMix64 g(t + 1);
    while (!run.should_stop()) {
      obj.ll(t, value.data());
      value[0] += 1;
      if (obj.words() > 1) value[obj.words() - 1] = g.next();
      obj.sc(t, value.data());
      ++pairs;
    }
    total_pairs.fetch_add(pairs, std::memory_order_relaxed);
  });
  return mops(total_pairs.load(std::memory_order_relaxed), run);
}

/// `writers` threads do LL;SC, the rest LL only. Returns {reader, writer}
/// million ops per second.
std::pair<double, double> run_mixed(core::IMwLLSC& obj, unsigned threads,
                                    unsigned writers,
                                    std::uint64_t duration_ns) {
  // Relaxed op counters: summed after join(), as above.
  std::atomic<std::uint64_t> reads{0}, writes{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> value(obj.words());
    std::uint64_t ops = 0;
    while (!run.should_stop()) {
      obj.ll(t, value.data());
      if (t < writers) {
        value[0] += 1;
        obj.sc(t, value.data());
      }
      ++ops;
    }
    (t < writers ? writes : reads).fetch_add(ops, std::memory_order_relaxed);
  });
  return {mops(reads.load(std::memory_order_relaxed), run),
          mops(writes.load(std::memory_order_relaxed), run)};
}

/// The exit gate: I2 for jp and am, no defensive LL retry for jp.
bool cell_ok(const std::string& impl, std::uint32_t w, unsigned threads,
             const core::OpStatsSnapshot& s) {
  bool ok = true;
  if ((impl == "jp" || impl == "am") && s.bank_writes != s.sc_success) {
    std::fprintf(stderr,
                 "%s W=%u threads=%u: %llu bank writes for %llu successful "
                 "SCs (I2 wants one each)\n",
                 impl.c_str(), w, threads,
                 static_cast<unsigned long long>(s.bank_writes),
                 static_cast<unsigned long long>(s.sc_success));
    ok = false;
  }
  if (impl == "jp" && s.ll_retries != 0) {
    std::fprintf(stderr, "jp W=%u threads=%u: %llu defensive LL retries\n", w,
                 threads, static_cast<unsigned long long>(s.ll_retries));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::arg_value(argc, argv, "--json");
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::uint64_t duration_ns = smoke ? 50'000'000 : 250'000'000;
  const auto threads = scaling_thread_counts(smoke ? 2 : 0);
  const std::vector<std::uint32_t> ws =
      smoke ? std::vector<std::uint32_t>{4}
            : std::vector<std::uint32_t>{4, 16, 64};
  const auto factories = bench::all_factories();
  bench::ObsSession obs(argc, argv, threads.back());
  bench::JsonEmitter out("throughput_vs_n",
                         "contended { LL; modify; SC } pairs, million/s, "
                         "one shared W-word object");
  bool ok = true;

  std::printf(
      "E3: throughput under contention (million LL;SC pairs per second)\n"
      "every thread loops { LL; modify; SC } on one shared W-word object\n\n");

  for (const std::uint32_t w : ws) {
    TablePrinter throughput({"threads", "jp", "am", "retry", "lock"});
    TablePrinter success({"threads", "jp", "am", "retry", "lock",
                          "1/threads"});
    TablePrinter helping({"threads", "slow LLs", "helped LLs",
                          "line-7 rescues", "help installs"});
    for (const unsigned t : threads) {
      const std::string n = TablePrinter::num(std::size_t{t});
      std::vector<std::string> mops_row = {n}, success_row = {n};
      for (const auto& f : factories) {
        auto obj = f.make(t, w);
        obs.bind(*obj, f.name + " rmw w=" + std::to_string(w) + " n=" +
                           std::to_string(t));
        const double m = run_rmw(*obj, t, duration_ns);
        const auto s = obj->stats();
        obs.registry().absorb("impl=\"" + f.name + "\",w=\"" +
                                  std::to_string(w) + "\",threads=\"" +
                                  std::to_string(t) + "\"",
                              s);
        const double sc_rate = rate(s.sc_success, s.sc_ops);
        out.begin_row();
        out.field("impl", f.name);
        out.field("threads", std::uint64_t{t});
        out.field("w", std::uint64_t{w});
        out.field("mops", m);
        out.field("sc_success_rate", sc_rate);
        mops_row.push_back(TablePrinter::num(m, 2));
        success_row.push_back(pct(sc_rate));
        if (f.name == "jp") {
          helping.add_row({n, per_k(s.ll_slow, s.ll_ops),
                           per_k(s.ll_helped, s.ll_ops),
                           per_k(s.ll_used_helped_value, s.ll_ops),
                           per_k(s.helps_given, s.ll_ops)});
        }
        if (!cell_ok(f.name, w, t, s)) ok = false;
      }
      success_row.push_back(pct(1.0 / t));
      throughput.add_row(std::move(mops_row));
      success.add_row(std::move(success_row));
    }
    std::printf("W = %u words\n", w);
    throughput.print();
    std::printf("\nSC success (successful / attempted SCs), W = %u\n", w);
    success.print();
    std::printf("\njp helping, per 1000 LLs, W = %u\n", w);
    helping.print();
    std::printf("\n");
  }

  // Reader-heavy: the helping rates when most LLs are pure reads racing
  // two writers.
  {
    constexpr std::uint32_t kW = 64;
    TablePrinter table({"threads", "reader Mops", "writer Mops",
                        "helped LLs/1k", "line-7 rescues/1k"});
    for (const unsigned t : threads) {
      if (t < 3) continue;
      auto obj = bench::factory_by_name("jp").make(t, kW);
      obs.bind(*obj, "jp reader_heavy n=" + std::to_string(t));
      const auto [reader_mops, writer_mops] =
          run_mixed(*obj, t, 2, duration_ns);
      const auto s = obj->stats();
      table.add_row({TablePrinter::num(std::size_t{t}),
                     TablePrinter::num(reader_mops, 2),
                     TablePrinter::num(writer_mops, 2),
                     per_k(s.ll_helped, s.ll_ops),
                     per_k(s.ll_used_helped_value, s.ll_ops)});
      if (!cell_ok("jp", kW, t, s)) ok = false;
    }
    if (threads.back() >= 3) {
      std::printf(
          "reader-heavy: 2 writers, the rest pure readers (jp, W = %u)\n", kW);
      table.print();
      std::printf("\n");
    }
  }

  // Disjoint-access scaling: K independent objects, each thread works on a
  // random object per op. With contention spread across objects, the
  // CAS-based implementations scale again — the single-object tables above
  // measure the worst case, this one the common case.
  {
    constexpr std::uint32_t kObjects = 32;
    constexpr std::uint32_t kW = 8;
    std::printf("disjoint-access scaling: %u independent objects, W = %u\n",
                kObjects, kW);
    TablePrinter table({"threads", "jp", "am", "retry", "lock"});
    for (const unsigned t : threads) {
      std::vector<std::string> row = {TablePrinter::num(std::size_t{t})};
      for (const auto& f : factories) {
        std::vector<std::unique_ptr<core::IMwLLSC>> objs;
        for (std::uint32_t k = 0; k < kObjects; ++k)
          objs.push_back(f.make(t, kW));
        // Relaxed op counter: summed after join(); the join supplies the
        // happens-before for the final read (DESIGN.md §9).
        std::atomic<std::uint64_t> pairs{0};
        util::TimedRun run;
        run.run_for(t, duration_ns, [&](unsigned tid) {
          std::vector<std::uint64_t> value(kW);
          util::Xoshiro256 g(tid + 1);
          std::uint64_t mine = 0;
          while (!run.should_stop()) {
            core::IMwLLSC& obj = *objs[g.next_below(kObjects)];
            obj.ll(tid, value.data());
            value[0] += 1;
            obj.sc(tid, value.data());
            ++mine;
          }
          pairs.fetch_add(mine, std::memory_order_relaxed);
        });
        row.push_back(
            TablePrinter::num(mops(pairs.load(std::memory_order_relaxed), run),
                              2));
      }
      table.add_row(std::move(row));
    }
    table.print();
  }

  if (!json_path.empty() && !out.write(json_path)) ok = false;
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
