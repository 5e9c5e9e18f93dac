// perfbench: the repository's end-to-end benchmark of the jp multiword
// LL/SC stack. One process runs one workload (workloads.hpp) and prints a
// run header, one line per metric (value, unit, sample count), and as its
// last line a JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload spread|lease|hot|scan --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, measured untraced: committed
// update and read rates and latency percentiles (interquartile means over
// half-second slices), set-up time (median of 5 set-ups), shared bytes and
// peak RSS.
// --trace 1 splits the time between an untraced window and a traced one
// on the timed wrappers (timed.hpp) and reports per-layer self times and
// the protocol counters. Exit status is 1 if any oracle fired, 2 on bad
// arguments.
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

#include "clock.hpp"
#include "harness.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr std::uint64_t kWarmOps = 100'000;  // per thread, in every set-up
constexpr double kSliceSeconds = 0.5;
constexpr double kMaxSelfSumGap = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have[1] = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have[2] = end != v && *end == '\0' && a.seconds >= 1 && a.seconds <= 600;
    } else if (k == "--trace") {
      a.traced = std::strcmp(v, "1") == 0;
      have[3] = a.traced || std::strcmp(v, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string git_describe() {
#ifdef MWLLSC_GIT_DESCRIBE
  return MWLLSC_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void print_header(const Args& a) {
  std::printf(
      "# perfbench {\"git\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cpu\": \"%s\", \"nproc\": %u, \"threads\": %u, \"workload\": \"%s\", "
      "\"seed\": %" PRIu64 ", \"seconds\": %g, \"traced\": %s}\n",
      git_describe().c_str(), compiler().c_str(), PERFBENCH_BUILD_TYPE,
      cpu_model().c_str(), usable_cpus(), kThreads, a.workload.c_str(), a.seed,
      a.seconds, a.traced ? "true" : "false");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;  ///< 0 when not a percentile
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const char* unit,
           std::uint64_t samples = 0) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// This process's peak resident set, from VmHWM: getrusage's ru_maxrss
/// would do, except Linux carries it across fork and exec, so under a
/// launcher it reports the launcher's peak if that was larger.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <class WL>
void warm(WL& wl) {
  run_window(kThreads, 0, 1, kWarmOps, false,
             [&](unsigned t, Worker& w) { wl.body(t, w); });
}

template <class WL>
WindowResult measure(WL& wl, double seconds, bool traced) {
  const auto slices = static_cast<unsigned>(
      std::max(2.0, std::round(seconds / kSliceSeconds)));
  return run_window(kThreads, seconds, slices, 0, traced,
                    [&](unsigned t, Worker& w) { wl.body(t, w); });
}

/// The end-of-run oracles: the workload's own, plus the protocol
/// invariants every workload must keep. Returns the failures.
template <class WL>
std::uint64_t verify(WL& wl, const LayerCounts& c) {
  std::uint64_t bad = wl.verify();
  if (c.mw.ll_retries != 0) {
    std::fprintf(stderr, "invariant: %" PRIu64 " defensive LL retries\n",
                 c.mw.ll_retries);
    ++bad;
  }
  if (c.mw.bank_writes != c.mw.sc_success) {
    std::fprintf(stderr, "invariant I2: %" PRIu64 " bank writes != %" PRIu64
                 " successful SCs\n", c.mw.bank_writes, c.mw.sc_success);
    ++bad;
  }
  if (c.apps_max_attempts > mwllsc::apps::WfUniversal<Counter, FetchInc>::kMaxAttempts) {
    std::fprintf(stderr, "invariant: an apply took %" PRIu64 " attempts\n",
                 c.apps_max_attempts);
    ++bad;
  }
  return bad;
}

template <template <bool> class WL>
void end_to_end(const Args& a, Report& rep) {
  std::vector<double> setups;
  std::unique_ptr<WL<false>> wl;
  for (int i = 0; i < kSetupReps; ++i) {
    wl.reset();
    const std::uint64_t t0 = steady_ns();
    wl = std::make_unique<WL<false>>(a.seed);
    warm(*wl);
    setups.push_back(static_cast<double>(steady_ns() - t0) / 1e9);
  }
  const WindowResult r = measure(*wl, a.seconds, false);
  rep.attempted += r.updates + r.reads;
  rep.failed += r.failed + verify(*wl, wl->counts());

  rep.add("update_ops_per_s", interquartile_mean(r.update_rate), "1/s");
  rep.add("update_p50_ns", interquartile_mean(r.update_p50), "ns", r.update_samples);
  rep.add("update_p99_ns", interquartile_mean(r.update_p99), "ns", r.update_samples);
  rep.add("read_ops_per_s", interquartile_mean(r.read_rate), "1/s");
  rep.add("read_p50_ns", interquartile_mean(r.read_p50), "ns", r.read_samples);
  rep.add("read_p99_ns", interquartile_mean(r.read_p99), "ns", r.read_samples);
  rep.add("setup_s", median(setups), "s", setups.size());
  rep.add("shared_bytes", static_cast<double>(wl->shared_bytes()), "bytes");
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

template <template <bool> class WL>
void per_layer(const Args& a, Report& rep) {
  const double half = a.seconds / 2;
  double untraced_rate = 0;
  {
    WL<false> wl(a.seed);
    warm(wl);
    const WindowResult r = measure(wl, half, false);
    rep.attempted += r.updates + r.reads;
    rep.failed += r.failed + verify(wl, wl.counts());
    untraced_rate = interquartile_mean(r.update_rate);
  }
  WL<true> wl(a.seed);
  warm(wl);
  const WindowResult r = measure(wl, half, true);
  const LayerCounts c = wl.counts();
  rep.attempted += r.updates + r.reads;
  rep.failed += r.failed + verify(wl, c);

  const Ledger& L = r.ledger;
  auto self_ns = [&](Layer l) {
    return ratio(to_ns(L.at(l).self), static_cast<double>(L.at(l).calls));
  };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.add("llsc.ll_self_ns", self_ns(Layer::kLlscLl), "ns");
  rep.add("llsc.sc_self_ns", self_ns(Layer::kLlscSc), "ns");
  rep.add("llsc.load_self_ns", self_ns(Layer::kLlscLoad), "ns");
  rep.add("llsc.sc_fail_frac",
          ratio(u(L.at(Layer::kLlscSc).fails), u(L.at(Layer::kLlscSc).calls)), "frac");
  rep.add("mwllsc.ll_self_ns", self_ns(Layer::kMwllscLl), "ns");
  rep.add("mwllsc.sc_self_ns", self_ns(Layer::kMwllscSc), "ns");
  rep.add("mwllsc.sc_attempts_per_commit", ratio(u(c.mw.sc_ops), u(c.mw.sc_success)), "ratio");
  rep.add("mwllsc.ll_helped_frac", ratio(u(c.mw.ll_helped), u(c.mw.ll_ops)), "frac");
  rep.add("mwllsc.ll_rescued_frac", ratio(u(c.mw.ll_used_helped_value), u(c.mw.ll_ops)), "frac");
  rep.add("mwllsc.helps_per_commit", ratio(u(c.mw.helps_given), u(c.mw.sc_success)), "ratio");
  rep.add("mwllsc.bank_writes_per_commit", ratio(u(c.mw.bank_writes), u(c.mw.sc_success)), "ratio");
  rep.add("mwllsc.ll_retries", u(c.mw.ll_retries), "count");
  rep.add("any.ll_self_ns", self_ns(Layer::kAnyLl), "ns");
  rep.add("any.sc_self_ns", self_ns(Layer::kAnySc), "ns");
  rep.add("apps.apply_self_ns", self_ns(Layer::kAppsApply), "ns");
  rep.add("apps.attempts_per_apply", ratio(u(c.apps_attempts), u(c.apps_applies)), "ratio");
  rep.add("apps.max_attempts", u(c.apps_max_attempts), "count");
  const std::uint64_t joins = c.mem.joins + c.mem.degraded_joins;
  rep.add("membership.join_p50_ns", ns_per_tick() * L.join_ticks().percentile(0.50), "ns",
          L.join_ticks().count());
  rep.add("membership.join_p99_ns", ns_per_tick() * L.join_ticks().percentile(0.99), "ns",
          L.join_ticks().count());
  rep.add("membership.retire_ns",
          ratio(to_ns(L.at(Layer::kMembershipRetire).total),
                u(L.at(Layer::kMembershipRetire).calls)), "ns");
  rep.add("membership.session_ll_self_ns", self_ns(Layer::kMembershipLl), "ns");
  rep.add("membership.session_sc_self_ns", self_ns(Layer::kMembershipSc), "ns");
  rep.add("membership.join_retries_per_join", ratio(u(c.mem.join_retries), u(joins)), "ratio");
  rep.add("membership.crash_reclaims", u(c.mem.crash_reclaims), "count");
  rep.add("membership.degraded_frac", ratio(u(c.mem.degraded_joins), u(joins)), "frac");

  // Self-consistency: every layer's self time plus the driver's own adds
  // up to the workers' wall time in the window, up to the loop back-edge
  // between iterations and the clock calibration.
  const double window = u(r.window_ns);
  const double driver = to_ns(L.at(Layer::kDriver).self);
  const double gap = ratio(std::fabs(to_ns(L.self_sum()) - window), window);
  const double traced_rate = interquartile_mean(r.update_rate);
  rep.add("driver.clock_ns", clock_cost_ns(), "ns");
  rep.add("driver.outside_frac", ratio(driver, window), "frac");
  rep.add("trace.update_ops_per_s", traced_rate, "1/s");
  rep.add("trace.overhead_frac", ratio(untraced_rate - traced_rate, untraced_rate), "frac");
  rep.add("trace.self_sum_gap", gap, "frac");
  if (gap > kMaxSelfSumGap || L.unbalanced() != 0) {
    std::fprintf(stderr,
                 "trace: self times cover %.1f%% of the window (gap %.3f > %.2f "
                 "or %" PRIu64 " unbalanced spans)\n",
                 100.0 * ratio(to_ns(L.self_sum()), window), gap, kMaxSelfSumGap,
                 L.unbalanced());
    ++rep.failed;
  }
}

template <template <bool> class WL>
Report run(const Args& a) {
  Report rep;
  if (a.traced) {
    per_layer<WL>(a, rep);
  } else {
    end_to_end<WL>(a, rep);
  }
  return rep;
}

void print_report(const Report& rep) {
  for (const Metric& m : rep.metrics) {
    if (m.samples) {
      std::printf("%-34s %16.4f %-6s n=%" PRIu64 "\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%-34s %16.6g frac   (%" PRIu64 " of %" PRIu64 " ops)\n", "failed_frac",
              ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
              rep.failed, rep.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload spread|lease|hot|scan --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  Report (*runner)(const Args&) = nullptr;
  if (a.workload == "spread") runner = run<Spread>;
  if (a.workload == "lease") runner = run<Lease>;
  if (a.workload == "hot") runner = run<Hot>;
  if (a.workload == "scan") runner = run<Scan>;
  if (!runner) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  (void)ns_per_tick();  // calibrate before any window
  print_header(a);
  const Report rep = runner(a);
  print_report(rep);
  return rep.failed == 0 ? 0 : 1;
}
