// Execution contexts for simulated processes: ucontext fibers, all on the
// scheduler's thread, so the harness decides exactly which process runs
// next and nothing runs concurrently. A fiber runs a job until the job
// calls yield() (the harness does that before every shared access a
// process makes) or returns.
//
// Fibers are pooled per thread and reused across jobs: an exhaustive
// search starts hundreds of thousands of process incarnations, and each
// fiber's stack, ucontext and sanitizer state is set up once. A pooled
// fiber runs a loop — job, yield, next job — so its frames stay balanced.
// The switches are annotated for AddressSanitizer (fake-stack and stack
// bounds hand-off) and ThreadSanitizer (one TSan fiber per context), so
// the simulator stays sanitizer-clean.
#pragma once

#include <ucontext.h>

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MWLLSC_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MWLLSC_SIM_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MWLLSC_SIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MWLLSC_SIM_TSAN 1
#endif
#endif

#if defined(MWLLSC_SIM_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MWLLSC_SIM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace mwllsc::sim {

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Returns a finished (or never-run) fiber to the thread's pool.
  struct Release {
    void operator()(Fiber* f) const {
      assert(f->finished_ || !f->started_);
      auto& pool = free_list();
      if (pool.size() < kPoolCap) {
        pool.emplace_back(f);
      } else {
        delete f;
      }
    }
  };
  using Ptr = std::unique_ptr<Fiber, Release>;

  /// A fiber that will run entry(arg) when first resumed.
  static Ptr start(Entry entry, void* arg) {
    auto& pool = free_list();
    Fiber* f = nullptr;
    if (pool.empty()) {
      f = new Fiber();
    } else {
      f = pool.back().release();
      pool.pop_back();
    }
    f->entry_ = entry;
    f->arg_ = arg;
    f->started_ = false;
    f->finished_ = false;
    return Ptr(f);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Only an idle fiber (parked between jobs, or never run) is destroyed.
  ~Fiber() {
#if defined(MWLLSC_SIM_ASAN)
    __asan_unpoison_memory_region(stack_.get(), kStackBytes);
#endif
#if defined(MWLLSC_SIM_TSAN)
    __tsan_destroy_fiber(tsan_fiber_);
#endif
  }

  /// Runs the job until it yields or returns. Called from the scheduler's
  /// context only.
  void resume() {
    assert(!finished_);
    started_ = true;
#if defined(MWLLSC_SIM_TSAN)
    caller_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(MWLLSC_SIM_ASAN)
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack_.get(), kStackBytes);
#endif
    swapcontext(&caller_, &ctx_);
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  }

  /// Returns control to the scheduler. Called from inside the job only.
  void yield() {
#if defined(MWLLSC_SIM_TSAN)
    __tsan_switch_to_fiber(caller_tsan_, 0);
#endif
#if defined(MWLLSC_SIM_ASAN)
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, caller_bottom_, caller_size_);
#endif
    swapcontext(&ctx_, &caller_);
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_finish_switch_fiber(fake, &caller_bottom_, &caller_size_);
#endif
  }

  /// The job returned.
  bool finished() const { return finished_; }

 private:
  static constexpr std::size_t kPoolCap = 64;
  static constexpr std::size_t kStackBytes =
#if defined(MWLLSC_SIM_ASAN) || defined(MWLLSC_SIM_TSAN)
      std::size_t{512} << 10;
#else
      std::size_t{128} << 10;
#endif

  static std::vector<std::unique_ptr<Fiber>>& free_list() {
    static thread_local std::vector<std::unique_ptr<Fiber>> pool;
    return pool;
  }

  Fiber() : stack_(new char[kStackBytes]) {
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = kStackBytes;
    ctx_.uc_link = nullptr;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::loop), 2,
                static_cast<unsigned>(self & 0xffffffffu),
                static_cast<unsigned>(self >> 32));
#if defined(MWLLSC_SIM_TSAN)
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  /// The fiber's whole life: run a job, hand control back, wait for the
  /// next one. Never returns; an idle fiber is simply never resumed again.
  static void loop(unsigned lo, unsigned hi) {
    Fiber* f = reinterpret_cast<Fiber*>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_finish_switch_fiber(nullptr, &f->caller_bottom_,
                                    &f->caller_size_);
#endif
    for (;;) {
      f->entry_(f->arg_);
      f->finished_ = true;
      f->yield();
    }
  }

  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  std::unique_ptr<char[]> stack_;
  ucontext_t ctx_{};
  ucontext_t caller_{};
  bool started_ = false;
  bool finished_ = false;
#if defined(MWLLSC_SIM_ASAN)
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
#endif
#if defined(MWLLSC_SIM_TSAN)
  void* tsan_fiber_ = nullptr;
  void* caller_tsan_ = nullptr;
#endif
};

}  // namespace mwllsc::sim
