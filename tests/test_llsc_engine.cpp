// Single-word LL/SC engine semantics — round-trips, semantic SC failure
// (fails iff a successful SC intervened), VL, link consumption — and the
// envelope of core/llsc.hpp: the 2^46 tag wrap, at the engine and through
// MwLLSC, and the process limit, all identical in every build type.
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "baseline/am_llsc.hpp"
#include "baseline/lock_llsc.hpp"
#include "baseline/retry_llsc.hpp"
#include "core/llsc.hpp"
#include "core/mwllsc.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

void engine_semantics() {
  llsc::Engine x(3, 7);
  CHECK_EQ(x.peek(), 7u);

  // Round trip: LL then SC with no interference succeeds.
  CHECK_EQ(x.ll(0), 7u);
  CHECK(x.vl(0));
  CHECK(x.sc(0, 11));
  CHECK_EQ(x.peek(), 11u);

  // The link was consumed by the SC: VL and a second SC fail until re-LL.
  CHECK(!x.vl(0));
  CHECK(!x.sc(0, 12));
  CHECK_EQ(x.peek(), 11u);

  // Semantic failure: p1 links, p2's SC intervenes, p1's SC must fail.
  CHECK_EQ(x.ll(1), 11u);
  CHECK_EQ(x.ll(2), 11u);
  CHECK(x.sc(2, 21));
  CHECK(!x.vl(1));
  CHECK(!x.sc(1, 22));
  CHECK_EQ(x.peek(), 21u);

  // ABA at the value level is defeated by the tag: restore the old value
  // via two SCs; a stale link must still fail.
  CHECK_EQ(x.ll(0), 21u);
  CHECK_EQ(x.ll(1), 21u);
  CHECK(x.sc(1, 5));
  CHECK_EQ(x.ll(1), 5u);
  CHECK(x.sc(1, 21));  // value back to 21, but the tag moved twice
  CHECK_EQ(x.peek(), 21u);
  CHECK(!x.vl(0));
  CHECK(!x.sc(0, 99));

  // The largest buffer index an object can install round-trips.
  CHECK_EQ(x.ll(0), 21u);
  CHECK(x.sc(0, llsc::kBufMask - 1));
  CHECK_EQ(x.peek(), llsc::kBufMask - 1);

  // SC without any LL fails.
  llsc::Engine y(2, 0);
  CHECK(!y.sc(0, 1));
  CHECK(!y.vl(0));

  // Tags advance once per successful SC.
  llsc::Engine z(1, 0);
  CHECK_EQ(z.current_tag(), 0u);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    z.ll(0);
    CHECK_EQ(z.linked_tag(0), i - 1);
    CHECK(z.sc(0, i));
    CHECK_EQ(z.current_tag(), i);
  }

  // Space accounting exposes both shared and private parts.
  CHECK(x.shared_bytes() > 0);
  CHECK(x.private_bytes() > 0);
}

// The engine across the tag wrap: semantics stay exact on both sides of
// 2^46, and the wrap itself is plain modular arithmetic.
void engine_tag_wrap() {
  constexpr std::uint64_t kMax = llsc::kTagMask;
  static_assert(kMax == (std::uint64_t{1} << 46) - 1);

  // Pre-age the variable to three SCs before the boundary.
  llsc::Engine x(2, 7, kMax - 2);
  CHECK_EQ(x.ll(0), 7u);
  CHECK(x.sc(0, 8));
  CHECK_EQ(x.current_tag(), kMax - 1);

  // Semantic failure still exact next to the boundary.
  CHECK_EQ(x.ll(0), 8u);
  CHECK_EQ(x.ll(1), 8u);
  CHECK(x.sc(1, 9));
  CHECK_EQ(x.current_tag(), kMax);
  CHECK(!x.vl(0));
  CHECK(!x.sc(0, 10));
  CHECK_EQ(x.peek(), 9u);

  // p0 links at the maximum tag; p1's SC wraps the tag to 0, which still
  // breaks p0's link.
  CHECK_EQ(x.ll(0), 9u);
  CHECK_EQ(x.ll(1), 9u);
  CHECK(x.sc(1, 12));
  CHECK_EQ(x.current_tag(), 0u);
  CHECK_EQ(x.peek(), 12u);
  CHECK(!x.vl(0));
  CHECK(!x.sc(0, 13));
  CHECK_EQ(x.ll(0), 12u);
  CHECK(x.sc(0, 13));
  CHECK_EQ(x.current_tag(), 1u);
}

// A test-local engine through MwLLSC's LLSC template seam: kPreAge tags
// below the wrap, with a one-shot hook run right after a process links X.
constexpr std::uint64_t kPreAge = 3;

struct AgedEngine : llsc::Engine {
  static inline std::function<void()> after_link;

  AgedEngine(std::uint32_t nprocs, std::uint64_t initial)
      : llsc::Engine(nprocs, initial, llsc::kTagMask + 1 - kPreAge) {}

  std::uint64_t ll(std::uint32_t p) {
    const std::uint64_t b = llsc::Engine::ll(p);
    if (after_link) std::exchange(after_link, nullptr)();
    return b;
  }
};

// The paper's protocol across the wrap. A reader links just before it and
// stalls while another process lands P SCs that cross it: the drift, taken
// mod 2^46, is P, so the unannounced attempt passes (an unmasked drift
// would be ~2^64 and force the slow path), and the linked buffer is still
// intact in the ring (a ring seeded relative to tag 0 instead of X's
// initial tag would hand it straight back as a spare and let the writer
// overwrite it). Further laps of the ring on the wrapped side keep exact
// values and one bank write per successful SC.
void mwllsc_tag_wrap() {
  constexpr std::uint32_t kN = 4;  // P = R = 4
  constexpr std::uint32_t kW = 3;
  core::MwLLSC<AgedEngine> obj(kN, kW);
  std::uint64_t cur = 0;  // the object's current value, in every word
  std::uint64_t in[kW];
  std::uint64_t out[kW];
  auto round = [&](std::uint32_t p) {
    std::uint64_t got[kW];
    obj.ll(p, got);
    for (std::uint64_t w : got) CHECK_EQ(w, cur);
    CHECK(obj.vl(p));
    ++cur;
    for (std::uint64_t& w : in) w = cur;
    CHECK(obj.sc(p, in));
  };

  AgedEngine::after_link = [&] {
    for (std::uint32_t i = 0; i < kN; ++i) round(1);
  };
  obj.ll(0, out);  // links at tag 2^46 - 3, then p1 runs to tag 1
  CHECK_EQ(obj.stats().ll_slow, 0u);
  for (std::uint64_t w : out) CHECK_EQ(w, 0u);
  CHECK(!obj.vl(0));
  CHECK(!obj.sc(0, in));

  for (std::uint32_t r = 0; r < 3 * kN; ++r) round(r % kN);

  const core::OpStatsSnapshot s = obj.stats();
  CHECK_EQ(s.sc_success, 4u * kN);
  CHECK_EQ(s.bank_writes, s.sc_success);
  CHECK_EQ(s.ll_slow, 0u);
  CHECK_EQ(s.ll_helped, 0u);
  CHECK_EQ(s.ll_retries, 0u);
}

// N beyond kMaxProcs would alias buffer indices in the 18-bit fields;
// every object refuses it at construction, in every build type.
template <class Make>
bool refused(Make make) {
  try {
    make();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void process_limit() {
  constexpr std::uint32_t kOver = llsc::kMaxProcs + 1;
  CHECK(refused([] { llsc::Engine e(0); }));
  CHECK(refused([] { llsc::Engine e(kOver); }));
  CHECK(refused([] { core::MwLLSC<llsc::Engine> o(kOver, 1); }));
  CHECK(refused([] { baseline::AmLLSC<llsc::Engine> o(kOver, 1); }));
  CHECK(refused([] { baseline::RetryLLSC<llsc::Engine> o(kOver, 1); }));
  CHECK(refused([] { baseline::LockLLSC o(0, 1); }));
  CHECK(refused([] { baseline::LockLLSC o(kOver, 1); }));
  // Far past the limit: next_pow2 would overflow and spin if the check
  // did not run first.
  constexpr std::uint32_t kMax32 = UINT32_MAX;
  CHECK(refused([] { core::MwLLSC<llsc::Engine> o(kMax32, 1); }));
  CHECK(refused([] { baseline::AmLLSC<llsc::Engine> o(kMax32, 1); }));
  CHECK(refused([] { baseline::RetryLLSC<llsc::Engine> o(kMax32, 1); }));
  CHECK(refused([] { baseline::LockLLSC o(kMax32, 1); }));
  CHECK(!refused([] { llsc::Engine e(llsc::kMaxProcs); }));
}

}  // namespace

int main() {
  engine_semantics();
  engine_tag_wrap();
  mwllsc_tag_wrap();
  process_limit();
  std::printf("test_llsc_engine: OK\n");
  return 0;
}
