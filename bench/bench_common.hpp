// Shared infrastructure for the benchmark harness (experiments E1–E10, see
// DESIGN.md §4): implementation factories behind the IMwLLSC facade, so
// every series in every table is produced by identical code, plus the
// BENCH_*.json writer and the --trace / --metrics session.
#pragma once

#include <atomic>
#if defined(__x86_64__)
#include <cpuid.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif
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

// ------------------------------------------------------------------------
// Recorded perf trajectory (BENCH_*.json).
//
// Benches accept `--json <path>` and write the rows their tables print as a
// flat machine-readable snapshot, so each PR's numbers are a diffable
// artifact rather than an anecdote. The format is deliberately
// minimal: {"bench": ..., "schema": ..., "rows": [{k: v, ...}, ...]}, and
// the header records the git revision, compiler, CPU model and usable CPU
// count so rows from different builds and machines can be told apart.

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

/// The compiler that built this binary, e.g. "gcc 12.2.0".
inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The CPU's brand string (x86 cpuid), or "unknown".
inline std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    if (b != std::string::npos) return s.substr(b);
  }
#endif
  return "unknown";
}

/// CPUs this process may run on (its affinity mask), falling back to
/// hardware_concurrency().
inline unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
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

  /// Writes the snapshot to `path` and reports the outcome ("wrote PATH"
  /// on stdout, or why not on stderr). Returns false if any byte was lost.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": \"%s\",\n",
                 bench_.c_str(), schema_.c_str());
    std::fprintf(f, "  \"schema_version\": %u,\n  \"git\": \"%s\",\n",
                 kBenchSchemaVersion, git_describe());
    std::fprintf(f,
                 "  \"compiler\": \"%s\",\n  \"cpu\": \"%s\",\n"
                 "  \"nproc\": %u,\n",
                 compiler_id().c_str(), cpu_model().c_str(), usable_cpus());
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
    std::string err;
    if (!obs::close_written(f, path, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
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
// registry, and call finish() after the threads join. --trace binds a
// sink, which is all tracing needs; the metrics registry always works.

class ObsSession {
 public:
  ObsSession(int argc, char** argv, std::uint32_t nprocs)
      : trace_path_(arg_value(argc, argv, "--trace")),
        metrics_path_(arg_value(argc, argv, "--metrics")) {
    if (!trace_path_.empty()) {
      sink_ = std::make_unique<obs::TraceSink>(nprocs);
    }
  }

  bool tracing() const { return sink_ != nullptr; }
  obs::MetricsRegistry& registry() { return registry_; }

  /// Binds any object exposing set_trace(TraceSink*, var) + words() (the
  /// IMwLLSC facade, the apps constructions, the managed object) under a
  /// fresh variable id. `label` should start with the substrate name
  /// ("jp w=4 n=8") so the offline checker's prefix rules apply (the
  /// object self-describes first; this richer label overwrites it).
  template <class T>
  void bind(T& obj, const std::string& label) {
    const std::uint32_t id = next_var_++;
    if (sink_) {
      obj.set_trace(sink_.get(), id);
      sink_->describe_var(id, obj.words(), label);
    }
  }

  /// Collects rings, derives trace metrics, and writes the requested
  /// files. Call after every traced thread has joined. Returns false if
  /// any requested file failed to write, or if --trace recorded no events
  /// (trace_check would fail that file, so the run fails first).
  bool finish() {
    bool ok = true;
    std::string err;
    if (sink_) {
      const obs::TraceData d = sink_->collect();
      registry_.absorb_trace(d);
      if (d.total_events() == 0) {
        std::fprintf(stderr,
                     "[obs] NO EVENTS: --trace %s recorded nothing\n",
                     trace_path_.c_str());
        ok = false;
      } else if (obs::write_chrome_trace(trace_path_, d, &err)) {
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
      if (obs::write_prometheus(metrics_path_, registry_, &err)) {
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

}  // namespace mwllsc::bench
