// Timing wrappers for the traced run. Each wraps a shipped layer from the
// outside, through that layer's public surface, so the library itself is
// built exactly as users get it:
//
//   TimedEngine  the single-word engine (llsc::Dw128LLSC) with the member
//                surface core::MwLLSC needs, so MwLLSC<TimedEngine> is the
//                paper's protocol over a timed engine;
//   TimedJp      MwLLSC<TimedEngine> behind spans, with the member surface
//                membership::ManagedMwLLSC and core::MwLLSCAdapter need;
//   TimedFacade  an IMwLLSC decorator, also handed to apps::WfUniversal as
//                its Substrate.
//
// The traced stack is therefore TimedFacade -> MwLLSCAdapter<TimedJp> ->
// MwLLSC<TimedEngine> -> Dw128LLSC, one span per boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "apps/universal.hpp"
#include "core/any.hpp"
#include "core/llsc.hpp"
#include "core/mwllsc.hpp"
#include "ledger.hpp"

namespace perfbench {

class TimedEngine {
 public:
  static constexpr unsigned kValueBits = mwllsc::llsc::Dw128LLSC::kValueBits;

  TimedEngine(std::uint32_t nprocs, std::uint64_t initial)
      : e_(nprocs, initial) {}

  std::uint64_t ll(std::uint32_t p) {
    Span s(Layer::kLlscLl);
    return e_.ll(p);
  }
  bool sc(std::uint32_t p, std::uint64_t v) {
    Span s(Layer::kLlscSc);
    const bool ok = e_.sc(p, v);
    if (!ok) s.fail();
    return ok;
  }
  bool vl(std::uint32_t p) const {
    Span s(Layer::kLlscLoad);
    return e_.vl(p);
  }
  std::uint64_t current_tag() const {
    Span s(Layer::kLlscLoad);
    return e_.current_tag();
  }
  /// A read of p's private link word: no shared access, so not timed.
  std::uint64_t linked_tag(std::uint32_t p) const { return e_.linked_tag(p); }
  std::size_t shared_bytes() const { return e_.shared_bytes(); }
  std::size_t private_bytes() const { return e_.private_bytes(); }

 private:
  mwllsc::llsc::Dw128LLSC e_;
};

class TimedJp {
 public:
  TimedJp(std::uint32_t nprocs, std::uint32_t words) : impl_(nprocs, words) {}

  void ll(std::uint32_t p, std::uint64_t* out) {
    Span s(Layer::kMwllscLl);
    impl_.ll(p, out);
  }
  bool sc(std::uint32_t p, const std::uint64_t* in) {
    Span s(Layer::kMwllscSc);
    return impl_.sc(p, in);
  }
  bool vl(std::uint32_t p) { return impl_.vl(p); }
  bool reclaim_pid(std::uint32_t p) { return impl_.reclaim_pid(p); }
  void rebind_pid(std::uint32_t p) { impl_.rebind_pid(p); }
  std::uint32_t words() const { return impl_.words(); }
  mwllsc::core::OpStatsSnapshot stats() const { return impl_.stats(); }
  mwllsc::util::Footprint footprint() const { return impl_.footprint(); }
  void set_trace(mwllsc::obs::TraceSink* sink, std::uint32_t var) {
    impl_.set_trace(sink, var);
  }

 private:
  mwllsc::core::MwLLSC<TimedEngine> impl_;
};

class TimedFacade final : public mwllsc::core::IMwLLSC {
 public:
  explicit TimedFacade(std::unique_ptr<mwllsc::core::IMwLLSC> inner)
      : inner_(std::move(inner)) {}

  void ll(std::uint32_t pid, std::uint64_t* out) override {
    Span s(Layer::kAnyLl);
    inner_->ll(pid, out);
  }
  bool sc(std::uint32_t pid, const std::uint64_t* in) override {
    Span s(Layer::kAnySc);
    return inner_->sc(pid, in);
  }
  bool vl(std::uint32_t pid) override { return inner_->vl(pid); }
  std::uint32_t words() const override { return inner_->words(); }
  mwllsc::core::OpStatsSnapshot stats() const override {
    return inner_->stats();
  }
  mwllsc::util::Footprint footprint() const override {
    return inner_->footprint();
  }

 private:
  std::unique_ptr<mwllsc::core::IMwLLSC> inner_;
};

/// The jp object a workload runs on: the shipped protocol, or the same
/// protocol over the timed engine.
template <bool kTraced>
using JpImpl = std::conditional_t<kTraced, TimedJp,
                                  mwllsc::core::MwLLSC<mwllsc::llsc::Dw128LLSC>>;

/// The facade a workload runs on: the shipped jp substrate, or the timed
/// decorator over the traced stack.
template <bool kTraced>
mwllsc::apps::Substrate jp_facade() {
  if constexpr (kTraced) {
    return [](std::uint32_t n, std::uint32_t w)
               -> std::unique_ptr<mwllsc::core::IMwLLSC> {
      return std::make_unique<TimedFacade>(
          std::make_unique<mwllsc::core::MwLLSCAdapter<TimedJp>>(n, w));
    };
  } else {
    return mwllsc::apps::jp_substrate();
  }
}

}  // namespace perfbench
