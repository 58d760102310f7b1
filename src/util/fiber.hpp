// Stackful cooperative continuation (one-shot coroutine) over POSIX
// ucontext. The SMP engine uses a Fiber to suspend a monolithic
// Workload::run() mid-flight at quantum boundaries and resume it later,
// all on one host thread — no mutexes, no condvars, no data races.
//
// Sanitizer support: under ASan the stack switches are announced through
// __sanitizer_start_switch_fiber/__sanitizer_finish_switch_fiber (with the
// full fake-stack handoff protocol, so detect_stack_use_after_return=1
// works); under TSan each Fiber is registered via __tsan_create_fiber and
// switches are announced so the single-threaded interleaving stays quiet by
// construction.
//
// Teardown is exception-safe: destroying (or cancel()ing) a suspended fiber
// resumes it one last time with a cancellation flag; the suspension point
// throws Fiber::Cancelled, unwinding the workload stack through its normal
// destructors before the fiber exits.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#include <ucontext.h>

namespace pcap::util {

class Fiber {
 public:
  using Entry = std::function<void()>;

  /// Thrown out of yield() when the owner cancels a suspended fiber; the
  /// trampoline swallows it after the stack has unwound.
  struct Cancelled {};

  static constexpr std::size_t kDefaultStackBytes = 1024 * 1024;

  explicit Fiber(Entry entry, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it calls yield() or its entry returns/throws.
  /// Must be called from the owning thread, never from inside a fiber that
  /// is already running (no nesting).
  void resume();

  /// Suspends the currently running fiber back to its resume() caller.
  /// Throws Cancelled when the owner has requested cancellation.
  static void yield();

  /// True once the entry has returned, thrown, or been cancelled.
  bool done() const { return done_; }

  /// Unwinds a suspended fiber (no-op when done or never started). After
  /// cancel(), done() is true and exception() stays empty.
  void cancel();

  /// The exception (if any) that escaped the entry function.
  std::exception_ptr exception() const { return exception_; }

 private:
  static void trampoline_entry();
  void run_trampoline();
  void switch_in();
  void switch_out(bool final_exit);

  Entry entry_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_ = 0;
  ucontext_t context_{};
  ucontext_t return_context_{};
  bool started_ = false;
  bool done_ = false;
  bool cancel_requested_ = false;
  std::exception_ptr exception_;

#if defined(__SANITIZE_ADDRESS__)
  // ASan fake-stack handles: one for the host stack (saved while the fiber
  // runs) and one for the fiber stack (saved while the host runs), plus the
  // host stack bounds learned from the first finish_switch_fiber.
  void* host_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_size_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
#endif
};

}  // namespace pcap::util
