// Multi-thread linearizability stress, run against all four substrates:
// T threads each perform K successful LL;inc;SC read-modify-writes on one
// shared W-word object. Every snapshot an LL returns must be internally
// consistent (all words carry the same logical count — a torn or stale
// read would break that), and the final value must be exactly T*K: no lost
// or duplicated increments. Each substrate runs at W=4, where jp packs two
// rows to a cache line, and at W=5, where each row has a line of its own.
//
// Every substrate stresses with a bound trace sink, so the same run doubles
// as the data-race check for the tracing hot path (TSan job): live
// per-process rings, and the collected trace replays through the offline
// checker afterwards.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kIncrements = 15000;
constexpr std::uint32_t kWs[] = {4, 5};

void stress_for(const core::MwLLSCFactory& f, std::uint32_t w) {
  std::printf("  %s, W=%u...\n", f.name.c_str(), w);
  auto obj = f.make(kThreads, w);
  obs::TraceSink sink(kThreads);
  obj->set_trace(&sink, 0);
  util::SpinBarrier start(kThreads);
  std::vector<std::thread> pool;
  std::atomic<bool> failed{false};
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint64_t> v(w);
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        for (;;) {
          obj->ll(t, v.data());
          // Internal consistency: every word equals word 0. An update
          // writes count to all words, so any torn snapshot trips this.
          for (std::uint32_t k = 1; k < w; ++k) {
            if (v[k] != v[0]) {
              failed.store(true);
              return;
            }
          }
          const std::uint64_t next = v[0] + 1;
          for (std::uint32_t k = 0; k < w; ++k) v[k] = next;
          if (obj->sc(t, v.data())) break;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  CHECK(!failed.load());

  std::vector<std::uint64_t> fin(w);
  obj->ll(0, fin.data());
  for (std::uint32_t k = 0; k < w; ++k) {
    CHECK_EQ(fin[k], kThreads * kIncrements);
  }

  const auto s = obj->stats();
  CHECK_EQ(s.sc_success, kThreads * kIncrements);
  CHECK(s.sc_ops >= s.sc_success);
  // jp: only an LL whose unannounced attempt failed announces, so only a
  // slow LL can be helped.
  if (f.name == "jp") CHECK(s.ll_helped <= s.ll_slow);

  // Replay the (ring-truncated) trace through the offline checker: the
  // 4W+12 bound and I2 must hold over whatever suffix survived.
  const auto r = obs::check_trace(sink.collect());
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "    trace: %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK(r.lls_checked > 0);
  std::printf("    sc %llu/%llu, slow LLs %llu, helped LLs %llu, "
              "rescues %llu, help installs %llu\n",
              static_cast<unsigned long long>(s.sc_success),
              static_cast<unsigned long long>(s.sc_ops),
              static_cast<unsigned long long>(s.ll_slow),
              static_cast<unsigned long long>(s.ll_helped),
              static_cast<unsigned long long>(s.ll_used_helped_value),
              static_cast<unsigned long long>(s.helps_given));
}

// Readers validating against concurrent writers: a pure reader must always
// see consistent snapshots while writers hammer the object.
void reader_writer_for(const core::MwLLSCFactory& f, std::uint32_t w) {
  auto obj = f.make(3, w);
  util::TimedRun run;
  std::atomic<bool> failed{false};
  run.run_for(3, 100'000'000, [&](unsigned t) {
    std::vector<std::uint64_t> v(w);
    if (t == 0) {  // reader
      while (!run.should_stop()) {
        obj->ll(0, v.data());
        for (std::uint32_t k = 1; k < w; ++k) {
          if (v[k] != v[0]) {
            failed.store(true);
            return;
          }
        }
      }
    } else {  // writers
      while (!run.should_stop()) {
        obj->ll(t, v.data());
        const std::uint64_t next = v[0] + 1;
        for (std::uint32_t k = 0; k < w; ++k) v[k] = next;
        obj->sc(t, v.data());
      }
    }
  });
  CHECK(!failed.load());
}

}  // namespace

int main() {
  std::printf("test_stress_mt: %u threads x %llu increments, W=%u and %u\n",
              kThreads, static_cast<unsigned long long>(kIncrements), kWs[0],
              kWs[1]);
  for (std::uint32_t w : kWs) {
    for (const auto& f : bench::all_factories()) {
      stress_for(f, w);
      reader_writer_for(f, w);
    }
  }
  std::printf("test_stress_mt: OK\n");
  return 0;
}
