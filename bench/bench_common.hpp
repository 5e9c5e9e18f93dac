// Shared infrastructure for the benchmark harness (experiments E1-E9, see
// DESIGN.md §4): implementation factories behind the IMwLLSC facade and a
// timed mixed-workload throughput driver, so every series in every table is
// produced by identical code.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/am_llsc.hpp"
#include "baseline/lock_llsc.hpp"
#include "baseline/retry_llsc.hpp"
#include "core/any.hpp"
#include "core/mwllsc.hpp"
#include "obs/export.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

namespace mwllsc::bench {

/// The implementations every comparative experiment runs.
inline std::vector<core::MwLLSCFactory> all_factories() {
  using core::IMwLLSC;
  using core::MwLLSCAdapter;
  return {
      {"jp", [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<MwLLSCAdapter<core::MwLLSC<llsc::Engine>>>(
             n, w);
       }},
      {"am", [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<
             MwLLSCAdapter<baseline::AmLLSC<llsc::Engine>>>(n, w);
       }},
      {"retry",
       [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<
             MwLLSCAdapter<baseline::RetryLLSC<llsc::Engine>>>(n, w);
       }},
      {"lock",
       [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<MwLLSCAdapter<baseline::LockLLSC>>(n, w);
       }},
  };
}

inline core::MwLLSCFactory factory_by_name(const std::string& name) {
  for (auto& f : all_factories()) {
    if (f.name == name) return f;
  }
  std::abort();
}

/// Thread counts for scaling experiments: 1, 2, 4, ... up to the hardware.
inline std::vector<unsigned> scaling_thread_counts(unsigned cap = 0) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  if (cap != 0 && hw > cap) hw = cap;
  std::vector<unsigned> out;
  for (unsigned t = 1; t <= hw; t *= 2) out.push_back(t);
  if (out.back() != hw) out.push_back(hw);
  return out;
}

struct ThroughputResult {
  double mops = 0;            // million operations per second (LL+SC pairs)
  double sc_success_rate = 0; // successful SCs / attempted SCs
  core::OpStatsSnapshot stats;
};

/// Timed mixed workload: every thread loops { LL; modify; SC } on a private
/// process id for `duration_ns`. This is the paper's canonical use pattern
/// (read-modify-write of a W-word object).
inline ThroughputResult run_rmw_throughput(core::IMwLLSC& obj,
                                           unsigned threads,
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
  ThroughputResult r;
  r.stats = obj.stats();
  r.mops = static_cast<double>(total_pairs.load(std::memory_order_relaxed)) /
           (static_cast<double>(run.measured_ns()) / 1e9) / 1e6;
  r.sc_success_rate = r.stats.sc_ops
                          ? static_cast<double>(r.stats.sc_success) /
                                static_cast<double>(r.stats.sc_ops)
                          : 0.0;
  return r;
}

/// Mixed reader/writer workload: `writers` threads do LL;SC, the rest do LL
/// only. Returns reader+writer op rates.
struct MixedResult {
  double reader_mops = 0;
  double writer_mops = 0;
  core::OpStatsSnapshot stats;
};

// ------------------------------------------------------------------------
// Recorded perf trajectory (BENCH_*.json).
//
// Benches accept `--json <path>` and emit a flat machine-readable snapshot
// instead of (or besides) their human tables, so each PR's numbers are a
// diffable artifact rather than an anecdote. The format is deliberately
// minimal: {"bench": ..., "schema": ..., "rows": [{k: v, ...}, ...]}.

/// Value of `--flag <value>` in argv, or "" if absent.
inline std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return "";
}

/// True if `flag` appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Version of the BENCH_*.json row format; bump on breaking field changes
/// so the cross-PR trajectory tooling can tell schemas apart.
inline constexpr unsigned kBenchSchemaVersion = 2;

/// The build's `git describe` string (baked in by CMake), or "unknown"
/// when building outside a git checkout.
inline const char* git_describe() {
#if defined(MWLLSC_GIT_DESCRIBE)
  return MWLLSC_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

/// Append-style JSON snapshot writer: begin_row(), then field() calls, then
/// write(). Strings are assumed not to need escaping (impl/op names).
class JsonEmitter {
 public:
  JsonEmitter(std::string bench, std::string schema)
      : bench_(std::move(bench)), schema_(std::move(schema)) {}

  void begin_row() { rows_.emplace_back(); }

  void field(const char* k, const std::string& v) {
    rows_.back().emplace_back(k, "\"" + v + "\"");
  }
  void field(const char* k, const char* v) { field(k, std::string(v)); }
  void field(const char* k, double v) {
    char b[64];
    std::snprintf(b, sizeof(b), "%.6g", v);
    rows_.back().emplace_back(k, b);
  }
  void field(const char* k, std::uint64_t v) {
    char b[32];
    std::snprintf(b, sizeof(b), "%llu", static_cast<unsigned long long>(v));
    rows_.back().emplace_back(k, b);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": \"%s\",\n",
                 bench_.c_str(), schema_.c_str());
    std::fprintf(f, "  \"schema_version\": %u,\n  \"git\": \"%s\",\n",
                 kBenchSchemaVersion, git_describe());
    std::fprintf(f, "  \"unix_time\": %lld,\n",
                 static_cast<long long>(std::time(nullptr)));
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    {");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                     rows_[r][i].first.c_str(), rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::string schema_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// ------------------------------------------------------------------------
// Observability session (--trace / --metrics, DESIGN.md §8).
//
// Every bench constructs one ObsSession from argv; benches bind the
// objects they create to it, absorb their counters/latencies into the
// registry, and call finish() after the threads join. Tracing needs the
// MWLLSC_TRACE build; the metrics registry always works.

class ObsSession {
 public:
  ObsSession(int argc, char** argv, std::uint32_t nprocs,
             obs::TraceConfig cfg = {})
      : trace_path_(arg_value(argc, argv, "--trace")),
        metrics_path_(arg_value(argc, argv, "--metrics")) {
    const std::string shift = arg_value(argc, argv, "--trace-sample-shift");
    if (!shift.empty()) {
      cfg.sample_shift = static_cast<std::uint32_t>(std::atoi(shift.c_str()));
    }
    if (!trace_path_.empty()) {
#if defined(MWLLSC_TRACE)
      sink_ = std::make_unique<obs::TraceSink>(nprocs, cfg);
#else
      std::fprintf(stderr,
                   "[obs] --trace requested but this binary was built "
                   "without MWLLSC_TRACE; rebuild with -DMWLLSC_TRACE=ON. "
                   "Writing an empty trace.\n");
      sink_ = std::make_unique<obs::TraceSink>(nprocs, cfg);
#endif
    }
  }

  bool tracing() const { return sink_ != nullptr; }
  bool metrics_requested() const { return !metrics_path_.empty(); }
  obs::TraceSink* sink() { return sink_.get(); }
  obs::MetricsRegistry& registry() { return registry_; }

  /// Binds a facade object under a fresh variable id; `label` should start
  /// with the substrate name ("jp w=4 n=8") so the offline checker's
  /// prefix rules apply (the object self-describes first; this richer
  /// label overwrites it).
  std::uint32_t bind(core::IMwLLSC& obj, const std::string& label) {
    const std::uint32_t id = next_var_++;
    if (sink_) {
      obj.set_trace(sink_.get(), id);
      sink_->describe_var(id, obj.words(), label);
    }
    return id;
  }

  /// Binds any object exposing set_trace(TraceSink*, var) + words() —
  /// the apps-layer constructions.
  template <class T>
  std::uint32_t bind_obj(T& obj, const std::string& label) {
    const std::uint32_t id = next_var_++;
    if (sink_) {
      obj.set_trace(sink_.get(), id);
      sink_->describe_var(id, obj.words(), label);
    }
    return id;
  }

  /// Absorbs an implementation's counters under `impl="<name>"` labels.
  void absorb_stats(const std::string& impl,
                    const core::OpStatsSnapshot& s) {
    registry_.absorb("impl=\"" + impl + "\"", s);
  }

  /// Collects rings, derives trace metrics, and writes the requested
  /// files. Call after every traced thread has joined. Returns false if
  /// any requested file failed to write.
  bool finish() {
    bool ok = true;
    std::string err;
    if (sink_ && !trace_path_.empty()) {
      const obs::TraceData d = sink_->collect();
      registry_.absorb_trace(d);
      if (obs::write_chrome_trace(trace_path_, d, &err)) {
        std::fprintf(stderr,
                     "[obs] wrote %llu events (%u procs) to %s\n",
                     static_cast<unsigned long long>(d.total_events()),
                     static_cast<unsigned>(d.per_pid.size()),
                     trace_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] trace export failed: %s\n", err.c_str());
        ok = false;
      }
    }
    if (!metrics_path_.empty()) {
      const bool json =
          metrics_path_.size() >= 5 &&
          metrics_path_.compare(metrics_path_.size() - 5, 5, ".json") == 0;
      const bool wrote =
          json ? obs::write_metrics_json(metrics_path_, registry_, &err)
               : obs::write_prometheus(metrics_path_, registry_, &err);
      if (wrote) {
        std::fprintf(stderr, "[obs] wrote %zu metric series to %s\n",
                     registry_.metrics().size(), metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] metrics export failed: %s\n",
                     err.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::TraceSink> sink_;
  obs::MetricsRegistry registry_;
  std::uint32_t next_var_ = 0;
};

inline MixedResult run_mixed_throughput(core::IMwLLSC& obj, unsigned threads,
                                        unsigned writers,
                                        std::uint64_t duration_ns) {
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> reads{0}, writes{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> value(obj.words());
    std::uint64_t ops = 0;
    if (t < writers) {
      while (!run.should_stop()) {
        obj.ll(t, value.data());
        value[0] += 1;
        obj.sc(t, value.data());
        ++ops;
      }
      writes.fetch_add(ops, std::memory_order_relaxed);
    } else {
      while (!run.should_stop()) {
        obj.ll(t, value.data());
        ++ops;
      }
      reads.fetch_add(ops, std::memory_order_relaxed);
    }
  });
  MixedResult r;
  r.stats = obj.stats();
  const double secs = static_cast<double>(run.measured_ns()) / 1e9;
  r.reader_mops = static_cast<double>(reads.load(std::memory_order_relaxed)) / secs / 1e6;
  r.writer_mops = static_cast<double>(writes.load(std::memory_order_relaxed)) / secs / 1e6;
  return r;
}

}  // namespace mwllsc::bench
