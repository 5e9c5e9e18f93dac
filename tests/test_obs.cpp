// obs/ layer tests:
//   * ring semantics — wraparound keeps the newest events, dropped counts
//     the evicted prefix;
//   * live tracing of the real protocol under threads, replayed through
//     check_trace: the 4W+12 bound and I2 re-verified from events alone;
//   * exporter round-trip — write_chrome_trace -> load_chrome_trace must
//     return the recorded streams event for event, on a live run and on a
//     synthetic stream that holds every event kind;
//   * truncated traces pass (prefix loss is not a violation), and an
//     empty one checks clean;
//   * the checker actually rejects bad traces (synthetic violations);
//   * the loader rejects files the exporter did not write, another schema
//     version, unknown event kinds and tids that are not pids, and
//     trace_check fails a file with no events;
//   * apps-layer events and the <= 3-round apply bound;
//   * MetricsRegistry absorption + Prometheus export;
//   * every exporter reports a write lost to a full disk.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/wf_universal.hpp"
#include "core/mwllsc.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"
#include "trace_file.hpp"

using namespace mwllsc;

namespace {

obs::TraceEvent ev(obs::EventKind k, std::uint16_t pid, std::uint32_t var,
                   std::uint64_t tag = 0, std::uint32_t arg = 0) {
  obs::TraceEvent e;
  static std::uint64_t tsc = 1000;
  e.tsc = tsc += 10;
  e.tag = tag;
  e.var = var;
  e.arg = arg;
  e.kind = static_cast<std::uint16_t>(k);
  e.pid = pid;
  return e;
}

void ring_wraparound() {
  obs::TraceRing ring;
  ring.init(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record(obs::EventKind::kLlStart, 0, 0, i, 0);
  }
  CHECK_EQ(ring.recorded(), 20u);
  CHECK_EQ(ring.dropped(), 12u);
  const auto snap = ring.snapshot();
  CHECK_EQ(snap.size(), 8u);
  // The newest events win: tags 12..19 in recording order.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    CHECK_EQ(snap[i].tag, 12 + i);
  }
}

void handle_binding() {
  obs::TraceSink sink(2);
  obs::TraceHandle h;
  CHECK(!h.bound());
  h.emit(obs::EventKind::kLlStart, 0, 1, 2);  // unbound: dropped, no crash
  h.bind(&sink, 7);
  CHECK(h.bound());
  h.emit(obs::EventKind::kLlStart, 1, 42, 3);
  h.emit(obs::EventKind::kLlFast, 99, 0, 0);  // out-of-range pid: dropped
  h.emit<false>(obs::EventKind::kLlFast, 1);   // resolved untraced: no-op
  h.bind(nullptr, 7);
  CHECK(!h.bound());
  h.emit(obs::EventKind::kLlFast, 1);          // unbound again: dropped
  const auto d = sink.collect();
  CHECK_EQ(d.total_events(), 1u);
  CHECK_EQ(d.per_pid[1].size(), 1u);
  CHECK_EQ(d.per_pid[1][0].var, 7u);
  CHECK_EQ(d.per_pid[1][0].tag, 42u);
  CHECK_EQ(d.per_pid[1][0].arg, 3u);
}

/// Traces the real protocol under contention and replays the rings through
/// the checker: 4W+12 and I2 re-verified from events alone.
obs::TraceData traced_protocol_mt() {
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kW = 5;
  constexpr std::uint64_t kOps = 4000;

  obs::TraceSink sink(kThreads, 1u << 16);  // no wraparound: all survive
  core::MwLLSC<llsc::Engine> obj(kThreads, kW);
  obj.set_trace(&sink, 0);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint64_t> buf(kW);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        obj.ll(t, buf.data());
        buf[0] += 1;
        obj.sc(t, buf.data());
      }
    });
  }
  for (auto& th : pool) th.join();

  obs::TraceData d = sink.collect();
  CHECK_EQ(d.per_pid.size(), kThreads);
  for (unsigned t = 0; t < kThreads; ++t) CHECK_EQ(d.dropped[t], 0u);
  const obs::TraceData::VarInfo* info = d.var_info(0);
  CHECK(info != nullptr);
  CHECK_EQ(info->words, kW);
  CHECK(info->label.rfind("jp", 0) == 0);

  const auto r = obs::check_trace(d);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK(!r.truncated);
  CHECK_EQ(r.lls_checked, kThreads * kOps);
  CHECK(r.sc_commits > 0);
  CHECK_EQ(r.sc_commits, r.bank_writes);
  CHECK(r.max_ll_steps <= 4 * kW + 12);

  // The counter snapshot and the trace must agree on the successful SCs.
  const auto s = obj.stats();
  CHECK_EQ(r.sc_commits, s.sc_success);
  CHECK_EQ(r.bank_writes, s.bank_writes);
  return d;
}

void export_roundtrip(const obs::TraceData& d) {
  const obs::TraceData loaded = round_trip(d, "test_obs_trace.json");

  // The file is a third correctness oracle: the checker must reach the
  // same verdict and the same window counts it reached on the live rings.
  const auto live = obs::check_trace(d);
  const auto file = obs::check_trace(loaded);
  if (!file.ok()) {
    for (const auto& v : file.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(file.ok());
  CHECK_EQ(file.lls_checked, live.lls_checked);
  CHECK_EQ(file.sc_commits, live.sc_commits);
  CHECK_EQ(file.bank_writes, live.bank_writes);
  CHECK_EQ(file.max_ll_steps, live.max_ll_steps);
}

/// One synthetic stream per pid that, between them, hold every event kind
/// with payloads at the edges of their fields. Pid 0's ring lost its
/// prefix, so its stream opens with an orphan close.
void every_kind_roundtrip() {
  using K = obs::EventKind;
  constexpr std::uint64_t kBigTag = ~std::uint64_t{0} - 1;
  constexpr std::uint32_t kBigArg = ~std::uint32_t{0};
  obs::TraceData d;
  d.vars = {{0, 4, "jp w=4"}, {7, 64, "am w=64"}};
  d.dropped = {3, 0};
  d.per_pid = {
      {ev(K::kLlFast, 0, 0, 9), ev(K::kBankWrite, 0, 0, 9, 2),
       ev(K::kLlStart, 0, 0, 10), ev(K::kLlSlow, 0, 0, 11),
       ev(K::kLlHelped, 0, 0, 11), ev(K::kLlRescue, 0, 0, 11),
       ev(K::kScAttempt, 0, 0, 0, 1), ev(K::kScFail, 0, 0),
       ev(K::kProcCrashReclaim, 0, 0, 4)},
      {ev(K::kProcJoin, 1, 7, 2), ev(K::kAnnounce, 1, 7, kBigTag),
       ev(K::kLlStart, 1, 7, 1), ev(K::kLlRetry, 1, 7),
       ev(K::kLlFast, 1, 7, 5), ev(K::kScAttempt, 1, 7, 0, 1),
       ev(K::kHelpInstall, 1, 7, 11, 0), ev(K::kScCommit, 1, 7, 6),
       ev(K::kBankWrite, 1, 7, 6, kBigArg), ev(K::kHelpAll, 1, 7, 0, 3),
       ev(K::kApplyCommit, 1, 7, 1, 2), ev(K::kProcRetire, 1, 7, 2)},
  };
  std::vector<bool> seen(static_cast<std::size_t>(K::kCount), false);
  for (const auto& stream : d.per_pid) {
    for (const auto& e : stream) seen[e.kind] = true;
  }
  for (std::size_t k = 0; k < seen.size(); ++k) {
    if (!seen[k]) {
      std::fprintf(stderr, "no %s event in the synthetic stream\n",
                   obs::event_name(static_cast<K>(k)));
    }
    CHECK(seen[k]);
  }
  round_trip(d, "test_obs_every_kind.json");
}

void truncation_tolerated() {
  obs::TraceSink sink(1, 64);  // force wraparound
  core::MwLLSC<llsc::Engine> obj(1, 3);
  obj.set_trace(&sink, 0);
  std::vector<std::uint64_t> buf(3);
  for (int i = 0; i < 1000; ++i) {
    obj.ll(0, buf.data());
    buf[0] += 1;
    CHECK(obj.sc(0, buf.data()));
  }
  const obs::TraceData d = sink.collect();
  CHECK(d.dropped[0] > 0);
  const auto r = obs::check_trace(d);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK(r.truncated);

  // And the truncation survives the file round-trip.
  const auto r2 = obs::check_trace(round_trip(d, "test_obs_trunc.json"));
  CHECK(r2.ok());
  CHECK(r2.truncated);
}

void empty_trace_checks_clean() {
  const auto r = obs::check_trace(obs::TraceData{});
  CHECK(r.ok());
  CHECK_EQ(r.lls_checked, 0u);
}

/// The checker must reject what it claims to reject: synthetic traces with
/// a defensive jp retry, a slow jp LL over 4W+12 (and accept one under it),
/// an I2 double-commit, a commit-less bank write, and an over-budget apply.
void checker_catches_violations() {
  auto base = [] {
    obs::TraceData d;
    d.vars.push_back({0, 4, "jp w=4"});
    d.vars.push_back({1, 4, "retry w=4"});
    d.per_pid.resize(1);
    d.dropped.assign(1, 0);
    return d;
  };

  {  // defensive retry on a jp variable
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlRetry, 0, 0),
                    ev(obs::EventKind::kLlFast, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
    CHECK(r.violations[0].find("defensive LL retry") != std::string::npos);
  }
  {  // the same retry on a retry-substrate variable is expected behavior
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 1),
                    ev(obs::EventKind::kLlRetry, 0, 1),
                    ev(obs::EventKind::kLlFast, 0, 1)};
    CHECK(obs::check_trace(d).ok());
  }
  {  // enough retries push a non-jp LL past 4W+12 — still no violation,
     // but a jp LL with the same shape would trip the bound; craft it via
     // a jp label and many retries... which already trips the retry rule,
     // so instead check the derived step accounting directly.
    CHECK_EQ(obs::ll_steps_of(4, 1, false), 8u);    // one round, W+4
    CHECK_EQ(obs::ll_steps_of(4, 1, true), 12u);    // rescue adds W
    CHECK(obs::ll_steps_of(4, 4, false) > 4 * 4 + 12);
    // A slow LL first paid W+2 for its failed unannounced attempt: the
    // rescued slow LL is jp's worst case, 3W+6.
    CHECK_EQ(obs::ll_steps_of(4, 1, true, true), 18u);
  }
  {  // a slow, rescued jp LL (3W+6 = 18) is under the bound: no violation
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlSlow, 0, 0, 1),
                    ev(obs::EventKind::kLlRescue, 0, 0, 1)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
    CHECK_EQ(r.max_ll_steps, 18u);
  }
  {  // over it: the slow charge is what pushes this LL past 4W+12 — two
     // retries alone derive exactly 28 = 4W+12, the failed first attempt
     // adds W+2 (the retries are flagged on their own as well)
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlRetry, 0, 0),
                    ev(obs::EventKind::kLlRetry, 0, 0),
                    ev(obs::EventKind::kLlRescue, 0, 0)};
    CHECK_EQ(obs::check_trace(d).violations.size(), 2u);  // retries only
    d.per_pid[0].insert(d.per_pid[0].begin() + 1,
                        ev(obs::EventKind::kLlSlow, 0, 0, 1));
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 3u);
    CHECK_EQ(r.max_ll_steps, 34u);
    CHECK(r.violations.back().find("> 4W+12") != std::string::npos);
    CHECK(r.violations.back().find("slow=1") != std::string::npos);
  }
  {  // I2: two commits with no bank write between them
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kBankWrite, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
    CHECK(r.violations[0].find("I2") != std::string::npos);
  }
  {  // I2: a bank write with no open commit
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kBankWrite, 0, 0),
                    ev(obs::EventKind::kBankWrite, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
  }
  {  // a lock-style variable never emits bank writes: commits don't pair
    obs::TraceData d = base();
    d.vars[0].label = "lock w=4";
    d.per_pid[0] = {ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kScCommit, 0, 0)};
    CHECK(obs::check_trace(d).ok());
  }
  {  // apps: an apply that took more than kMaxAttempts rounds
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kApplyCommit, 0, 0, 1, 4)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
    CHECK(r.violations[0].find("help-all") != std::string::npos);
  }
  {  // truncated rings excuse orphan closes, full rings don't
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlFast, 0, 0)};
    CHECK_EQ(obs::check_trace(d).violations.size(), 1u);
    d.dropped[0] = 5;
    CHECK(obs::check_trace(d).ok());
    CHECK(obs::check_trace(d).truncated);
  }
}

struct Counter {
  std::uint64_t v;
};
struct FetchInc {
  std::uint64_t operator()(Counter& c, const apps::OpDesc&) const {
    return c.v++;
  }
};

void apps_trace() {
  constexpr unsigned kThreads = 3;
  constexpr std::uint64_t kOps = 400;
  obs::TraceSink sink(kThreads, 1u << 16);
  apps::WfUniversal<Counter, FetchInc> obj(kThreads, Counter{0});
  obj.set_trace(&sink, 0);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        obj.apply(t, apps::OpDesc{0, 0});
      }
    });
  }
  for (auto& th : pool) th.join();
  CHECK_EQ(obj.read(0).v, kThreads * kOps);

  const obs::TraceData d = sink.collect();
  const auto r = obs::check_trace(d);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK_EQ(r.applies_checked, kThreads * kOps);
  CHECK(r.lls_checked > 0);  // substrate events share the rings

  // Round-trip the apps trace too: announce/help_all/apply_commit share
  // the rings with the substrate's events.
  const auto r2 = obs::check_trace(round_trip(d, "test_obs_apps.json"));
  CHECK(r2.ok());
  CHECK_EQ(r2.applies_checked, r.applies_checked);
}

void write_file(const std::string& path, const char* text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CHECK(f != nullptr);
  std::fputs(text, f);
  std::fclose(f);
}

/// trace_check's exit status on `path` (output discarded).
int trace_check_exit(const std::string& path) {
  const std::string cmd =
      std::string("\"") + TRACE_CHECK_EXE + "\" \"" + path + "\" > /dev/null";
  const int rc = std::system(cmd.c_str());
  CHECK(rc != -1 && WIFEXITED(rc));
  return WEXITSTATUS(rc);
}

/// A vacuous file must not pass: the loader refuses anything without the
/// exporter's header, and trace_check fails a well-formed trace that holds
/// no events (a build that silently stopped emitting would write one).
void vacuous_files_fail(const obs::TraceData& real) {
  obs::TraceData d;
  std::string err;

  const std::string empty = "test_obs_empty.json";
  write_file(empty, "");
  CHECK(!obs::load_chrome_trace(empty, &d, &err));
  CHECK(err.find("schema_version") != std::string::npos);
  CHECK_EQ(trace_check_exit(empty), 1);

  const std::string foreign = "test_obs_foreign.json";
  write_file(foreign, "buildhost-7\n");
  CHECK(!obs::load_chrome_trace(foreign, &d, &err));
  CHECK_EQ(trace_check_exit(foreign), 1);

  const std::string no_events = "test_obs_no_events.json";
  obs::TraceData none;
  none.per_pid.resize(2);
  none.dropped.assign(2, 0);
  CHECK(obs::write_chrome_trace(no_events, none));
  CHECK(obs::load_chrome_trace(no_events, &d, &err));
  CHECK_EQ(d.total_events(), 0u);
  CHECK_EQ(trace_check_exit(no_events), 1);

  // Positive control: a real trace passes the same tool.
  const std::string good = "test_obs_good.json";
  CHECK(obs::write_chrome_trace(good, real));
  CHECK_EQ(trace_check_exit(good), 0);

  // A file of the previous schema, whose LL/SC windows were folded into
  // "X" events with kinds "ll"/"sc" the loader does not know, is refused
  // on its schema_version rather than misread. These lines are verbatim
  // from a schema-4 bench_membership trace.
  const std::string v4 = "test_obs_v4.json";
  write_file(
      v4,
      "{\n\"traceEvents\": [\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"process 0\"}},\n"
      "{\"ph\":\"i\",\"name\":\"ll_fast\",\"cat\":\"mwllsc\",\"s\":\"t\","
      "\"pid\":0,\"tid\":0,\"ts\":22363.043,\"args\":{\"k\":\"ll_fast\","
      "\"var\":1,\"tag\":29310,\"arg\":9}},\n"
      "{\"ph\":\"X\",\"name\":\"SC(fail)\",\"cat\":\"mwllsc\",\"pid\":0,"
      "\"tid\":0,\"ts\":22363.256,\"dur\":0.214,\"args\":{\"k\":\"sc\","
      "\"end\":\"sc_fail\",\"slow\":0,\"retries\":0,\"var\":1,\"tag\":0,"
      "\"arg\":0}},\n"
      "{\"ph\":\"X\",\"name\":\"LL(fast)\",\"cat\":\"mwllsc\",\"pid\":0,"
      "\"tid\":0,\"ts\":22363.497,\"dur\":0.032,\"args\":{\"k\":\"ll\","
      "\"end\":\"ll_fast\",\"slow\":0,\"retries\":0,\"var\":1,"
      "\"tag\":29311,\"arg\":4}},\n"
      "{\"ph\":\"X\",\"name\":\"SC(commit)\",\"cat\":\"mwllsc\",\"pid\":0,"
      "\"tid\":0,\"ts\":22363.743,\"dur\":0.187,\"args\":{\"k\":\"sc\","
      "\"end\":\"sc_commit\",\"slow\":0,\"retries\":0,\"var\":1,"
      "\"tag\":29312,\"arg\":0}},\n"
      "{\"ph\":\"i\",\"name\":\"buffer_retire\",\"cat\":\"mwllsc\","
      "\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":22364.046,\"args\":{\"k\":"
      "\"buffer_retire\",\"var\":1,\"tag\":29312,\"arg\":4}}\n"
      "],\n\"displayTimeUnit\": \"ms\",\n\"mwllsc\": {\n"
      "  \"schema_version\": 4,\n"
      "  \"dropped\": [178357],\n"
      "  \"vars\": [\n"
      "    {\"id\": 1, \"words\": 4, \"label\": \"jp managed w=4 slots=4 "
      "churn\"}\n"
      "  ]\n}\n}\n");
  CHECK(!obs::load_chrome_trace(v4, &d, &err));
  CHECK(err.find("schema_version 4") != std::string::npos);
  CHECK_EQ(trace_check_exit(v4), 1);

  // So is an event kind the loader does not know.
  const std::string unknown = "test_obs_unknown_kind.json";
  write_file(unknown,
             "{\"ph\":\"i\",\"name\":\"buffer_swap\",\"cat\":\"mwllsc\","
             "\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"args\":{\"k\":"
             "\"buffer_swap\",\"var\":0,\"tag\":0,\"arg\":0}}\n"
             "  \"schema_version\": 5,\n");
  CHECK(!obs::load_chrome_trace(unknown, &d, &err));
  CHECK(err.find("unknown event kind \"buffer_swap\"") != std::string::npos);
  CHECK_EQ(trace_check_exit(unknown), 1);

  for (const auto& p : {empty, foreign, no_events, good, v4, unknown}) {
    std::remove(p.c_str());
  }
}

/// TraceEvent::pid is 16 bits: a tid that is not a valid pid is a load
/// error, not a per_pid resize to billions of streams.
void out_of_range_tid_rejected() {
  const std::string path = "test_obs_bad_tid.json";
  write_file(path,
             "{\"ph\":\"i\",\"name\":\"sc_commit\",\"cat\":\"mwllsc\","
             "\"s\":\"t\",\"pid\":0,\"tid\":4000000000,\"ts\":1.000,"
             "\"args\":{\"k\":\"sc_commit\",\"var\":0,\"tag\":0,\"arg\":0}}\n"
             "  \"schema_version\": 5,\n");
  obs::TraceData d;
  std::string err;
  CHECK(!obs::load_chrome_trace(path, &d, &err));
  CHECK(err.find("tid 4000000000 out of range") != std::string::npos);
  CHECK(d.per_pid.empty());
  std::remove(path.c_str());
}

void metrics_registry() {
  obs::MetricsRegistry reg;
  CHECK(reg.empty());

  core::OpStatsSnapshot s;
  s.ll_ops = 100;
  s.sc_ops = 50;
  s.sc_success = 25;
  s.helps_given = 10;
  reg.absorb("impl=\"jp\",w=\"4\"", s);

  const auto& all = reg.metrics();
  const auto it = all.find("mwllsc_sc_success_ratio{impl=\"jp\",w=\"4\"}");
  CHECK(it != all.end());
  CHECK(it->second.type == obs::MetricsRegistry::Type::kGauge);
  CHECK(it->second.value == 0.5);
  CHECK(all.count("mwllsc_sc_ops_total{impl=\"jp\",w=\"4\"}") == 1);
  CHECK(all.at("mwllsc_helps_per_op{impl=\"jp\",w=\"4\"}").value == 0.1);
  CHECK(all.at("mwllsc_contention_estimate{impl=\"jp\",w=\"4\"}").value ==
        0.5);

  util::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  reg.absorb_latency("impl=\"jp\"", h);

  // split_key round-trips labeled and bare names.
  {
    const auto [base, labels] = obs::MetricsRegistry::split_key(
        "mwllsc_sc_ops_total{impl=\"jp\"}");
    CHECK(base == "mwllsc_sc_ops_total");
    CHECK(labels == "impl=\"jp\"");
    const auto [b2, l2] = obs::MetricsRegistry::split_key("bare");
    CHECK(b2 == "bare");
    CHECK(l2.empty());
  }

  const std::string prom = "test_obs_metrics.prom";
  CHECK(obs::write_prometheus(prom, reg));

  const std::string ptext = slurp(prom);
  CHECK(ptext.find("# TYPE mwllsc_sc_success_ratio gauge") !=
        std::string::npos);
  CHECK(ptext.find("# TYPE mwllsc_sc_ops_total counter") !=
        std::string::npos);
  CHECK(ptext.find("mwllsc_sc_ops_total{impl=\"jp\",w=\"4\"} 50") !=
        std::string::npos);
  CHECK(ptext.find("# TYPE mwllsc_op_latency_ns summary") !=
        std::string::npos);
  CHECK(ptext.find("quantile=\"0.99\"") != std::string::npos);
  CHECK(ptext.find("mwllsc_op_latency_ns_count{impl=\"jp\"} 1000") !=
        std::string::npos);
  std::remove(prom.c_str());
}

/// A full disk must not pass for a written file: every exporter returns
/// false with an error when the bytes are lost (/dev/full fails each write
/// with ENOSPC).
void full_disk_reported(const obs::TraceData& d) {
  const std::string full = "/dev/full";
  if (std::FILE* probe = std::fopen(full.c_str(), "w")) {
    std::fclose(probe);
  } else {
    std::printf("test_obs: no %s, full-disk case skipped\n", full.c_str());
    return;
  }
  obs::MetricsRegistry reg;
  reg.absorb_trace(d);
  std::string err;
  CHECK(!obs::write_chrome_trace(full, d, &err));
  CHECK(err.find(full) != std::string::npos);
  err.clear();
  CHECK(!obs::write_prometheus(full, reg, &err));
  CHECK(err.find(full) != std::string::npos);
}

void trace_derived_metrics(const obs::TraceData& d) {
  obs::MetricsRegistry reg;
  reg.absorb_trace(d);
  const auto& all = reg.metrics();
  CHECK(all.count("mwllsc_trace_events_total{kind=\"ll_start\"}") == 1);
  CHECK(all.count("mwllsc_trace_events_total{kind=\"sc_commit\"}") == 1);
  const auto it = all.find("mwllsc_traced_lls_total{var=\"0\",label=\"jp\"}");
  CHECK(it != all.end());
  CHECK(it->second.value > 0);
  CHECK(all.count("mwllsc_ll_mean_ns{var=\"0\",label=\"jp\"}") == 1);
  CHECK(all.count("mwllsc_traced_help_rate{var=\"0\",label=\"jp\"}") == 1);
}

}  // namespace

int main() {
  ring_wraparound();
  handle_binding();
  const obs::TraceData d = traced_protocol_mt();
  export_roundtrip(d);
  every_kind_roundtrip();
  trace_derived_metrics(d);
  truncation_tolerated();
  empty_trace_checks_clean();
  checker_catches_violations();
  vacuous_files_fail(d);
  out_of_range_tid_rejected();
  apps_trace();
  metrics_registry();
  full_disk_reported(d);
  std::printf("test_obs: OK\n");
  return 0;
}
