// Exporters and the offline trace checker (DESIGN.md §8).
//
// * write_chrome_trace — Chrome-trace / Perfetto JSON of a collected
//   TraceData, one line per recorded event in ring order, each carrying
//   its kind, var, tag and arg in args. One track per process id: LL and
//   SC openers are "B" lines and their closes "E" lines, so a viewer draws
//   LL/SC slices; every other event is an instant ("i"). Flow arrows link each help_install to the ll_helped /
//   ll_rescue that consumed the donated buffer on the helpee's track.
//
// * load_chrome_trace — reads that exporter's output back into a
//   TraceData equal to the recorded one event for event, making an
//   exported file a third correctness oracle: the same checker runs on
//   live rings and on a file from another machine. A file without the
//   exporter's schema_version header (or with another version), with an
//   unknown event kind, or with a tid that is not a valid pid, fails to
//   load.
//
// * check_trace — replays per-pid event streams and re-verifies, from
//   events alone: the 4W+12 LL step bound and zero defensive retries for
//   every variable labelled as the paper's protocol ("jp…"), exactly one
//   bank write per successful SC (invariant I2) for every variable that
//   emits bank writes, and the <= 3 LL/SC rounds bound of the apps-layer
//   help-all construction. Membership lifecycle events are cross-checked
//   too: pid leases must not overlap (join while live), only a live pid
//   may retire or abandon, neither may leave an LL window open, and a
//   retired or abandoned pid must not emit protocol events until its next
//   join — traces from before the lifecycle layer carry no such events
//   and are checked exactly as before. Ring truncation is tolerated as a
//   missing *prefix* (orphan closes/bank-writes are skipped while
//   dropped > 0).
//
// * write_prometheus — Prometheus text export of a MetricsRegistry.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/llsc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mwllsc::obs {

inline constexpr std::uint32_t kTraceSchemaVersion = 5;

// ------------------------------------------------------------------ checker

struct TraceCheckResult {
  std::uint64_t lls_checked = 0;    ///< completed LL windows replayed
  std::uint64_t max_ll_steps = 0;   ///< worst derived step count (jp vars)
  std::uint64_t sc_commits = 0;
  std::uint64_t bank_writes = 0;
  std::uint64_t applies_checked = 0;
  std::uint64_t joins = 0;          ///< proc_join events (membership layer)
  std::uint64_t retires = 0;
  std::uint64_t crash_reclaims = 0;
  bool truncated = false;           ///< some ring evicted its prefix
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Derived step count for one completed LL, from the observed events: a
/// slow LL (ll_slow seen) first paid W+2 for its failed unannounced
/// attempt (link/copy/validate); each round costs announce/link/copy/
/// validate/announce-check = W+4 accesses, a rescue adds the W+1 donated
/// copy + check (rounded to W here, on the conservative side of the
/// paper's own constant accounting).
inline std::uint64_t ll_steps_of(std::uint32_t w, std::uint32_t rounds,
                                 bool rescued, bool slow = false) {
  return (slow ? w + 2 : 0) + static_cast<std::uint64_t>(rounds) * (w + 4) +
         (rescued ? w : 0);
}

inline TraceCheckResult check_trace(const TraceData& d) {
  TraceCheckResult r;
  // Pre-scan: which vars ever emit bank writes? Substrates without a
  // retirement write (lock) are exempt from the I2 pairing check.
  std::map<std::uint32_t, bool> var_has_bank;
  for (const auto& stream : d.per_pid) {
    for (const TraceEvent& e : stream) {
      if (static_cast<EventKind>(e.kind) == EventKind::kBankWrite) {
        var_has_bank[e.var] = true;
      }
    }
  }

  char msg[256];
  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    const bool trunc = pid < d.dropped.size() && d.dropped[pid] > 0;
    if (trunc) r.truncated = true;

    struct VarState {
      bool in_ll = false;
      bool slow = false;  ///< the open LL's first attempt failed
      std::uint32_t retries = 0;
      bool commit_open = false;  ///< sc_commit seen, bank_write pending
      bool any_commit = false;
    };
    std::map<std::uint32_t, VarState> vs;

    // Membership lifecycle (traces without lifecycle events stay in
    // kUnknown forever and get no lifecycle checks — full backward
    // compatibility). Degraded join/retire pairs (arg = 1) share one
    // reserved pid across overlapping sessions, so they are counted but
    // never drive the liveness state machine.
    enum class Live { kUnknown, kLive, kDead };
    Live live = Live::kUnknown;
    bool dead_use_reported = false;
    // A holder retires or abandons only at an op boundary.
    auto check_no_open_ll = [&](const char* what) {
      if (trunc) return;
      for (const auto& [var, v2] : vs) {
        if (v2.in_ll) {
          std::snprintf(msg, sizeof(msg),
                        "pid %zu var %u: %s with an open LL window", pid,
                        var, what);
          r.violations.push_back(msg);
        }
      }
    };

    for (const TraceEvent& e : d.per_pid[pid]) {
      const auto k = static_cast<EventKind>(e.kind);

      if (k == EventKind::kProcJoin) {
        ++r.joins;
        if (e.arg != 1) {  // wait-free slot claim (degraded joins overlap)
          if (live == Live::kLive) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu: proc_join while the pid is already "
                          "live (no retire/reclaim between leases)",
                          pid);
            r.violations.push_back(msg);
          }
          live = Live::kLive;
        }
        // A new incarnation inherits a quiescent pid: drop half-open
        // windows left by the previous holder.
        vs.clear();
        dead_use_reported = false;
        continue;
      }
      // A crash reclaim is emitted by the abandoning holder into its own
      // stream, before its abandon CAS: like a retire, it ends a live
      // lease at an op boundary, and the pid starts over clean.
      const bool retire = k == EventKind::kProcRetire;
      if (retire || k == EventKind::kProcCrashReclaim) {
        ++(retire ? r.retires : r.crash_reclaims);
        if (e.arg != 1) {
          if (live == Live::kDead) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu: %s of a pid that is not live", pid,
                          event_name(k));
            r.violations.push_back(msg);
          }
          check_no_open_ll(retire ? "retired" : "abandoned");
          live = Live::kDead;
        }
        vs.clear();
        continue;
      }
      if (live == Live::kDead && !dead_use_reported) {
        std::snprintf(msg, sizeof(msg),
                      "pid %zu var %u: %s after retire/reclaim without a "
                      "proc_join",
                      pid, e.var, event_name(k));
        r.violations.push_back(msg);
        dead_use_reported = true;  // one report per gap, not per event
      }

      VarState& v = vs[e.var];
      const TraceData::VarInfo* info = d.var_info(e.var);
      const std::uint32_t w = info ? info->words : 0;
      const bool jp = info && info->label.rfind("jp", 0) == 0;

      switch (k) {
        case EventKind::kLlStart:
          if (v.in_ll) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: ll_start inside an open LL",
                          pid, e.var);
            r.violations.push_back(msg);
          }
          v.in_ll = true;
          v.slow = false;
          v.retries = 0;
          break;
        case EventKind::kLlSlow:
          if (v.in_ll) v.slow = true;
          break;
        case EventKind::kLlRetry:
          if (v.in_ll) {
            ++v.retries;
            if (jp) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: defensive LL retry on a jp "
                            "variable (help guarantee broken)",
                            pid, e.var);
              r.violations.push_back(msg);
            }
          }
          break;
        case EventKind::kLlFast:
        case EventKind::kLlRescue: {
          if (!v.in_ll) {
            if (!trunc) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: %s without ll_start", pid,
                            e.var, event_name(k));
              r.violations.push_back(msg);
            }
            break;  // orphan close from an evicted prefix
          }
          v.in_ll = false;
          ++r.lls_checked;
          const std::uint64_t steps = ll_steps_of(
              w, v.retries + 1, k == EventKind::kLlRescue, v.slow);
          if (jp) {
            if (steps > r.max_ll_steps) r.max_ll_steps = steps;
            if (steps > 4ull * w + 12) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: LL took %" PRIu64
                            " derived steps > 4W+12 = %u (W=%u, slow=%d, "
                            "retries=%u)",
                            pid, e.var, steps, 4 * w + 12, w,
                            v.slow ? 1 : 0, v.retries);
              r.violations.push_back(msg);
            }
          }
          break;
        }
        case EventKind::kScCommit:
          if (v.commit_open && var_has_bank[e.var]) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: sc_commit with no bank_write "
                          "since the previous commit (I2)",
                          pid, e.var);
            r.violations.push_back(msg);
          }
          v.commit_open = true;
          v.any_commit = true;
          ++r.sc_commits;
          break;
        case EventKind::kBankWrite:
          if (v.commit_open) {
            v.commit_open = false;
          } else if (v.any_commit || !trunc) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: bank_write without a preceding "
                          "sc_commit (I2)",
                          pid, e.var);
            r.violations.push_back(msg);
          }
          ++r.bank_writes;
          break;
        case EventKind::kApplyCommit:
          ++r.applies_checked;
          if (e.arg > 3) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: apply took %u LL/SC rounds > 3 "
                          "(help-all bound)",
                          pid, e.var, e.arg);
            r.violations.push_back(msg);
          }
          break;
        default:
          break;  // instants that carry no protocol obligation
      }
    }
  }
  return r;
}

// ------------------------------------------------------ chrome-trace write

namespace detail {

/// Key for matching a donation to its consumption: (var, helpee pid, seq).
/// The pid field holds every pid below llsc::kMaxProcs = 2^16.
inline std::uint64_t flow_id(std::uint32_t var, std::uint32_t pid,
                             std::uint64_t seq) {
  return (seq & ((std::uint64_t{1} << 38) - 1)) << 26 |
         (static_cast<std::uint64_t>(var & 0x3ff) << 16) | (pid & 0xffff);
}

inline double us_of(const TraceData& d, std::uint64_t tsc) {
  return d.ns_of(tsc) / 1000.0;
}

}  // namespace detail

/// Closes a file this header (or a bench) wrote. A write that failed
/// along the way — ENOSPC sets the stream's error flag, or surfaces when
/// fclose flushes — returns false and fills *err, so no exporter reports
/// a file it lost.
inline bool close_written(std::FILE* f, const std::string& path,
                          std::string* err = nullptr) {
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    if (err) *err = "write failed: " + path;
    return false;
  }
  return true;
}

/// Writes the collected trace as Chrome-trace JSON (open in Perfetto /
/// chrome://tracing): one line per recorded event, in ring order, with all
/// of its fields. Returns false and fills *err on I/O failure.
inline bool write_chrome_trace(const std::string& path, const TraceData& d,
                               std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::fprintf(f, "{\n\"traceEvents\": [\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };

  // Track names.
  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
                 "\"tid\":%zu,\"args\":{\"name\":\"process %zu\"}}",
                 pid, pid);
  }

  // Where does each donation land? (flow targets)
  std::map<std::uint64_t, std::uint64_t> consume_tsc;  // flow id -> tsc
  for (const auto& stream : d.per_pid) {
    for (const TraceEvent& e : stream) {
      const auto k = static_cast<EventKind>(e.kind);
      if (k == EventKind::kLlHelped || k == EventKind::kLlRescue) {
        consume_tsc[detail::flow_id(e.var, e.pid, e.tag)] = e.tsc;
      }
    }
  }

  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    for (const TraceEvent& e : d.per_pid[pid]) {
      const auto k = static_cast<EventKind>(e.kind);
      // LL and SC openers begin a slice, their closes end it, and every
      // other event is an instant.
      const char* ph = "i";
      const char* name = event_name(k);
      switch (k) {
        case EventKind::kLlStart:
          ph = "B";
          name = "LL";
          break;
        case EventKind::kScAttempt:
          ph = "B";
          name = "SC";
          break;
        case EventKind::kLlFast:
        case EventKind::kLlRescue:
          ph = "E";
          name = "LL";
          break;
        case EventKind::kScCommit:
        case EventKind::kScFail:
          ph = "E";
          name = "SC";
          break;
        default:
          break;
      }
      sep();
      std::fprintf(f,
                   "{\"ph\":\"%s\",\"name\":\"%s\",\"cat\":\"mwllsc\",%s"
                   "\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                   "\"args\":{\"k\":\"%s\",\"var\":%u,\"tag\":%" PRIu64
                   ",\"arg\":%u}}",
                   ph, name, *ph == 'i' ? "\"s\":\"t\"," : "", pid,
                   detail::us_of(d, e.tsc), event_name(k), e.var, e.tag,
                   e.arg);

      // A donation grows a flow arrow to the helpee's track.
      if (k == EventKind::kHelpInstall) {
        const std::uint64_t id = detail::flow_id(e.var, e.arg, e.tag);
        auto it = consume_tsc.find(id);
        if (it != consume_tsc.end()) {
          sep();
          std::fprintf(f,
                       "{\"ph\":\"s\",\"name\":\"donation\",\"cat\":\"help\","
                       "\"id\":%" PRIu64
                       ",\"pid\":0,\"tid\":%zu,\"ts\":%.3f}",
                       id, pid, detail::us_of(d, e.tsc));
          sep();
          std::fprintf(f,
                       "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"donation\","
                       "\"cat\":\"help\",\"id\":%" PRIu64
                       ",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
                       id, e.arg, detail::us_of(d, it->second));
        }
      }
    }
  }

  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ms\",\n\"mwllsc\": {\n");
  std::fprintf(f, "  \"schema_version\": %u,\n", kTraceSchemaVersion);
  std::fprintf(f, "  \"dropped\": [");
  for (std::size_t p = 0; p < d.dropped.size(); ++p) {
    std::fprintf(f, "%s%" PRIu64, p ? ", " : "", d.dropped[p]);
  }
  std::fprintf(f, "],\n  \"vars\": [\n");
  for (std::size_t i = 0; i < d.vars.size(); ++i) {
    std::fprintf(f,
                 "    {\"id\": %u, \"words\": %u, \"label\": \"%s\"}%s\n",
                 d.vars[i].id, d.vars[i].words, d.vars[i].label.c_str(),
                 i + 1 < d.vars.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n}\n");
  return close_written(f, path, err);
}

// ------------------------------------------------------- chrome-trace load

namespace detail {

inline bool find_u64(const std::string& s, const char* key,
                     std::uint64_t* out) {
  const auto pos = s.find(key);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(s.c_str() + pos + std::strlen(key), nullptr, 10);
  return true;
}

inline bool find_str(const std::string& s, const char* key,
                     std::string* out) {
  const auto pos = s.find(key);
  if (pos == std::string::npos) return false;
  const auto start = pos + std::strlen(key);
  const auto end = s.find('"', start);
  if (end == std::string::npos) return false;
  *out = s.substr(start, end - start);
  return true;
}

}  // namespace detail

/// Parses write_chrome_trace output (one traceEvents entry per line) back
/// into a TraceData: every line with a "k" arg is one event, appended to
/// its tid's stream, so the result equals the recorded streams event for
/// event. Timestamps come back in nanoseconds (ns_per_tick = 1). A file
/// with another schema_version (or none), an unknown event kind, or a tid
/// that is not a pid fails to load. The version sits in the footer, so an
/// unknown kind is reported only once the version has been read: a file
/// of another schema fails on its schema_version, not on its kinds.
inline bool load_chrome_trace(const std::string& path, TraceData* out,
                              std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  *out = TraceData{};
  out->ns_per_tick = 1.0;
  auto fail = [&](const std::string& why) {
    std::fclose(f);
    if (err) *err = why;
    return false;
  };

  char buf[2048];
  bool in_vars = false;
  bool has_header = false;
  std::string unknown;  // first event kind not in EventKind
  while (std::fgets(buf, sizeof(buf), f)) {
    std::string line(buf);

    if (line.find("\"vars\"") != std::string::npos) in_vars = true;
    if (in_vars && line.find("\"id\"") != std::string::npos) {
      TraceData::VarInfo v;
      std::uint64_t u = 0;
      if (detail::find_u64(line, "\"id\": ", &u)) {
        v.id = static_cast<std::uint32_t>(u);
      }
      if (detail::find_u64(line, "\"words\": ", &u)) {
        v.words = static_cast<std::uint32_t>(u);
      }
      detail::find_str(line, "\"label\": \"", &v.label);
      out->vars.push_back(std::move(v));
      continue;
    }
    std::uint64_t u = 0;
    if (detail::find_u64(line, "\"schema_version\": ", &u)) {
      if (u != kTraceSchemaVersion) {
        return fail("schema_version " + std::to_string(u) +
                    " is not the supported " +
                    std::to_string(kTraceSchemaVersion));
      }
      has_header = true;
      continue;
    }
    if (line.find("\"dropped\": [") != std::string::npos) {
      const char* p = std::strchr(line.c_str(), '[') + 1;
      while (*p && *p != ']') {
        char* next = nullptr;
        out->dropped.push_back(std::strtoull(p, &next, 10));
        if (next == p) break;
        p = next;
        while (*p == ',' || *p == ' ') ++p;
      }
      continue;
    }

    std::string name;
    if (!detail::find_str(line, "\"k\":\"", &name)) continue;  // flows, names
    std::size_t k = 0;
    while (k < static_cast<std::size_t>(EventKind::kCount) &&
           name != event_name(static_cast<EventKind>(k))) {
      ++k;
    }
    if (k == static_cast<std::size_t>(EventKind::kCount)) {
      if (unknown.empty()) unknown = name;  // reported after the version
      continue;
    }
    std::uint64_t tid = 0, var = 0, tag = 0, arg = 0;
    detail::find_u64(line, "\"tid\":", &tid);
    detail::find_u64(line, "\"var\":", &var);
    detail::find_u64(line, "\"tag\":", &tag);
    detail::find_u64(line, "\"arg\":", &arg);
    if (tid >= llsc::kMaxProcs) {  // not a pid; TraceEvent::pid is 16 bits
      return fail("tid " + std::to_string(tid) + " out of range");
    }
    const auto ts_pos = line.find("\"ts\":");
    TraceEvent e;
    e.tsc = ts_pos == std::string::npos
                ? 0
                : static_cast<std::uint64_t>(std::llround(
                      std::strtod(line.c_str() + ts_pos + 5, nullptr) *
                      1000.0));
    e.tag = tag;
    e.var = static_cast<std::uint32_t>(var);
    e.arg = static_cast<std::uint32_t>(arg);
    e.kind = static_cast<std::uint16_t>(k);
    e.pid = static_cast<std::uint16_t>(tid);
    if (out->per_pid.size() <= tid) out->per_pid.resize(tid + 1);
    out->per_pid[tid].push_back(e);
  }
  std::fclose(f);
  if (!has_header) {
    if (err) *err = "no schema_version header: not a write_chrome_trace file";
    return false;
  }
  if (!unknown.empty()) {
    if (err) *err = "unknown event kind \"" + unknown + "\"";
    return false;
  }
  // Every pid has a dropped count, events or not.
  const std::size_t n = std::max(out->per_pid.size(), out->dropped.size());
  out->per_pid.resize(n);
  out->dropped.resize(n, 0);
  return true;
}

// --------------------------------------------------------- metrics export

/// Prometheus text exposition format: one TYPE line per base name, then
/// each series; histograms become summaries (p50/p99 quantiles + _count
/// and _max series).
inline bool write_prometheus(const std::string& path,
                             const MetricsRegistry& reg,
                             std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string last_base;
  for (const auto& [key, m] : reg.metrics()) {
    const auto [base, labels] = MetricsRegistry::split_key(key);
    if (base != last_base) {
      std::fprintf(f, "# TYPE %s %s\n", base.c_str(),
                   m.type == MetricsRegistry::Type::kCounter ? "counter"
                   : m.type == MetricsRegistry::Type::kGauge ? "gauge"
                                                             : "summary");
      last_base = base;
    }
    auto series = [&](const std::string& name, const std::string& extra,
                      double v) {
      std::string lbl = labels;
      if (!extra.empty()) lbl += (lbl.empty() ? "" : ",") + extra;
      if (lbl.empty()) {
        std::fprintf(f, "%s %.17g\n", name.c_str(), v);
      } else {
        std::fprintf(f, "%s{%s} %.17g\n", name.c_str(), lbl.c_str(), v);
      }
    };
    if (m.type == MetricsRegistry::Type::kHistogram) {
      series(base, "quantile=\"0.5\"",
             static_cast<double>(m.hist.percentile(0.5)));
      series(base, "quantile=\"0.99\"",
             static_cast<double>(m.hist.percentile(0.99)));
      series(base + "_count", "", static_cast<double>(m.hist.count()));
      series(base + "_max", "", static_cast<double>(m.hist.max()));
    } else {
      series(base, "", m.value);
    }
  }
  return close_written(f, path, err);
}

}  // namespace mwllsc::obs
