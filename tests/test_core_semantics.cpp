// Facade-level LL/SC/VL semantics, run identically against all four
// implementations: single-thread round-trips, semantic SC failure after an
// intervening SC, VL behavior, full-width multiword values, and counter
// sanity (including a one-thread fast-path hit rate of 1: ll_slow == 0).
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

void semantics_for(const core::MwLLSCFactory& f) {
  std::printf("  %s\n", f.name.c_str());
  constexpr std::uint32_t kW = 6;
  auto obj = f.make(3, kW);
  CHECK_EQ(obj->words(), kW);

  std::vector<std::uint64_t> a(kW), b(kW), c(kW);

  // Fresh object reads all zeros.
  obj->ll(0, a.data());
  for (auto v : a) CHECK_EQ(v, 0u);

  // VL holds until an SC intervenes, and is repeatable.
  CHECK(obj->vl(0));
  CHECK(obj->vl(0));

  // Round trip of a distinct pattern across every word.
  for (std::uint32_t i = 0; i < kW; ++i) a[i] = 0x1111111111111111ULL * (i + 1);
  CHECK(obj->sc(0, a.data()));
  obj->ll(1, b.data());
  CHECK(b == a);

  // The link is consumed by SC: VL false, second SC fails.
  CHECK(!obj->vl(0));
  CHECK(!obj->sc(0, a.data()));

  // SC fails after an intervening successful SC.
  obj->ll(0, b.data());
  obj->ll(2, c.data());
  c[0] = 777;
  CHECK(obj->sc(2, c.data()));
  CHECK(!obj->vl(0));
  b[0] = 888;
  CHECK(!obj->sc(0, b.data()));
  obj->ll(0, b.data());
  CHECK(b == c);

  // SC/VL with no LL at all fail.
  auto fresh = f.make(2, 2);
  std::uint64_t two[2] = {1, 2};
  CHECK(!fresh->sc(0, two));
  CHECK(!fresh->vl(0));

  // A failed SC still leaves the object intact and re-LL-able.
  obj->ll(0, b.data());
  CHECK(b == c);
  CHECK(obj->vl(0));
  b[kW - 1] = 4242;
  CHECK(obj->sc(0, b.data()));
  obj->ll(1, a.data());
  CHECK(a == b);

  // Counter sanity: sc_success <= sc_ops <= ll-ish totals, all populated.
  const auto s = obj->stats();
  CHECK(s.ll_ops >= 5);
  CHECK(s.sc_ops >= 5);
  CHECK(s.sc_success >= 3);
  CHECK(s.sc_success <= s.sc_ops);
  CHECK(s.vl_ops >= 4);
  // One thread: no SC can land inside an LL, so every LL's unannounced
  // first attempt passes and nothing ever asks for help.
  CHECK_EQ(s.ll_slow, 0u);
  CHECK_EQ(s.ll_helped, 0u);

  // Footprint: parts sum to the total, the shared/per-process ownership
  // split is structural (no name matching), and private state is reported.
  const auto fp = obj->footprint();
  std::size_t sum = 0;
  std::size_t private_bytes = 0;
  for (const auto& part : fp.parts()) {
    sum += part.bytes;
    if (part.ownership == util::Footprint::Ownership::kPerProcess) {
      private_bytes += part.bytes;
    }
  }
  CHECK_EQ(sum, fp.total_bytes());
  CHECK_EQ(fp.shared_bytes() + private_bytes, fp.total_bytes());
  CHECK(private_bytes > 0);
  CHECK(fp.shared_bytes() > 0);
}

// W = 1 degenerate geometry and N = 1 solo process must also work.
void degenerate_for(const core::MwLLSCFactory& f) {
  auto solo = f.make(1, 1);
  std::uint64_t v = 0;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    solo->ll(0, &v);
    CHECK_EQ(v, i - 1);
    v = i;
    CHECK(solo->sc(0, &v));
  }
  solo->ll(0, &v);
  CHECK_EQ(v, 100u);
  CHECK_EQ(solo->stats().ll_slow, 0u);
}

}  // namespace

int main() {
  std::printf("test_core_semantics:\n");
  for (const auto& f : bench::all_factories()) {
    semantics_for(f);
    degenerate_for(f);
  }
  std::printf("test_core_semantics: OK\n");
  return 0;
}
