// The trace file is the event log: write_chrome_trace followed by
// load_chrome_trace must hand back the recorded streams event for event
// (order, kind, pid, var, tag and arg), with the same vars and dropped
// counts. Timestamps are not compared; the file keeps them in whole ns.
// The file must also be one a trace viewer opens: its events sit under
// the top-level "traceEvents" key.
#pragma once

#include <cstdio>
#include <string>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"

inline std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  CHECK(f != nullptr);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Writes `d` to `path`, loads it back, checks the two are equal and that
/// the file has the "traceEvents" key, and removes the file. Returns the
/// loaded data.
inline mwllsc::obs::TraceData round_trip(const mwllsc::obs::TraceData& d,
                                         const std::string& path) {
  using mwllsc::obs::TraceData;
  using mwllsc::obs::TraceEvent;
  std::string err;
  CHECK(mwllsc::obs::write_chrome_trace(path, d, &err));
  TraceData loaded;
  if (!mwllsc::obs::load_chrome_trace(path, &loaded, &err)) {
    std::fprintf(stderr, "load_chrome_trace(%s): %s\n", path.c_str(),
                 err.c_str());
    CHECK(false);
  }
  CHECK(slurp(path).find("\"traceEvents\"") != std::string::npos);
  std::remove(path.c_str());

  CHECK_EQ(loaded.vars.size(), d.vars.size());
  for (std::size_t i = 0; i < d.vars.size(); ++i) {
    CHECK_EQ(loaded.vars[i].id, d.vars[i].id);
    CHECK_EQ(loaded.vars[i].words, d.vars[i].words);
    CHECK(loaded.vars[i].label == d.vars[i].label);
  }
  CHECK_EQ(loaded.per_pid.size(), d.per_pid.size());
  CHECK(loaded.dropped == d.dropped);
  for (std::size_t p = 0; p < d.per_pid.size(); ++p) {
    CHECK_EQ(loaded.per_pid[p].size(), d.per_pid[p].size());
    for (std::size_t i = 0; i < d.per_pid[p].size(); ++i) {
      const TraceEvent& a = d.per_pid[p][i];
      const TraceEvent& b = loaded.per_pid[p][i];
      if (a.kind != b.kind || a.pid != b.pid || a.var != b.var ||
          a.tag != b.tag || a.arg != b.arg) {
        std::fprintf(stderr,
                     "pid %zu event %zu: recorded %s var %u tag %llu arg %u "
                     "pid %u, loaded %s var %u tag %llu arg %u pid %u\n",
                     p, i,
                     mwllsc::obs::event_name(
                         static_cast<mwllsc::obs::EventKind>(a.kind)),
                     a.var, static_cast<unsigned long long>(a.tag), a.arg,
                     static_cast<unsigned>(a.pid),
                     mwllsc::obs::event_name(
                         static_cast<mwllsc::obs::EventKind>(b.kind)),
                     b.var, static_cast<unsigned long long>(b.tag), b.arg,
                     static_cast<unsigned>(b.pid));
        CHECK(false);
      }
    }
  }
  return loaded;
}
