// Type-erased facade over the multiword LL/SC implementations, in the
// spirit of Brown, Ellen & Ruppert's "pragmatic primitives": a uniform
// LL/SC/VL contract (failures are semantic — an SC fails iff another
// successful SC intervened since the caller's LL — never spurious) so the
// benches and applications can swap substrates behind one interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace mwllsc::core {

class IMwLLSC {
 public:
  virtual ~IMwLLSC() = default;

  /// Copies the current W-word value into `out` and links process `pid`.
  virtual void ll(std::uint32_t pid, std::uint64_t* out) = 0;

  /// Installs `in` iff no successful SC intervened since pid's last LL.
  /// Consumes the link either way.
  virtual bool sc(std::uint32_t pid, const std::uint64_t* in) = 0;

  /// True iff pid's link is still current. Does not consume the link.
  virtual bool vl(std::uint32_t pid) = 0;

  virtual std::uint32_t words() const = 0;
  virtual OpStatsSnapshot stats() const = 0;
  virtual util::Footprint footprint() const = 0;

  /// Binds this variable to a trace sink under id `var` (obs/trace.hpp).
  /// No-op for untraced implementations.
  virtual void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    (void)sink;
    (void)var;
  }
};

/// Adapts any concrete implementation with the same member signatures.
template <class T>
class MwLLSCAdapter final : public IMwLLSC {
 public:
  MwLLSCAdapter(std::uint32_t nprocs, std::uint32_t words)
      : impl_(nprocs, words) {}

  void ll(std::uint32_t pid, std::uint64_t* out) override {
    impl_.ll(pid, out);
  }
  bool sc(std::uint32_t pid, const std::uint64_t* in) override {
    return impl_.sc(pid, in);
  }
  bool vl(std::uint32_t pid) override { return impl_.vl(pid); }
  std::uint32_t words() const override { return impl_.words(); }
  OpStatsSnapshot stats() const override { return impl_.stats(); }
  util::Footprint footprint() const override { return impl_.footprint(); }
  void set_trace(obs::TraceSink* sink, std::uint32_t var) override {
    impl_.set_trace(sink, var);
  }

  T& impl() { return impl_; }

 private:
  T impl_;
};

/// Named constructor: make(nprocs, words) yields a fresh object.
struct MwLLSCFactory {
  std::string name;
  std::function<std::unique_ptr<IMwLLSC>(std::uint32_t, std::uint32_t)> make;
};

}  // namespace mwllsc::core
