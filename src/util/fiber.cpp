#include "util/fiber.hpp"

#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace pcap::util {

namespace {
// The fiber executing on this thread (nullptr on the host stack), and the
// fiber a pending makecontext trampoline belongs to. makecontext can only
// pass ints, so the entering fiber rides in a thread-local instead.
thread_local Fiber* g_current = nullptr;
thread_local Fiber* g_entering = nullptr;
}  // namespace

Fiber::Fiber(Entry entry, std::size_t stack_bytes)
    : entry_(std::move(entry)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {
  if (!entry_) throw std::invalid_argument("Fiber: empty entry");
  if (getcontext(&context_) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // trampoline always swapcontexts out itself
  makecontext(&context_, &Fiber::trampoline_entry, 0);
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  cancel();
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline_entry() { g_entering->run_trampoline(); }

void Fiber::run_trampoline() {
#if defined(__SANITIZE_ADDRESS__)
  // First entry onto this stack: complete the switch the resuming host
  // started, learning the host stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &host_stack_bottom_,
                                  &host_stack_size_);
#endif
  try {
    if (cancel_requested_) throw Cancelled{};
    entry_();
  } catch (const Cancelled&) {
    // Normal unwind path for cancel(); nothing to record.
  } catch (...) {
    exception_ = std::current_exception();
  }
  done_ = true;
  switch_out(/*final_exit=*/true);
  // Unreachable: a done fiber is never resumed.
}

void Fiber::switch_in() {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&host_fake_stack_, stack_.get(),
                                 stack_bytes_);
#endif
#if defined(__SANITIZE_THREAD__)
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&return_context_, &context_);
  // Back on the host stack (fiber yielded or exited).
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(host_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::switch_out([[maybe_unused]] bool final_exit) {
#if defined(__SANITIZE_ADDRESS__)
  // On final exit pass a null fake-stack slot: ASan then releases this
  // fiber's fake stack instead of preserving it for a resume.
  __sanitizer_start_switch_fiber(final_exit ? nullptr : &fiber_fake_stack_,
                                 host_stack_bottom_, host_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  swapcontext(&context_, &return_context_);
  // Resumed again (never reached after a final exit).
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &host_stack_bottom_,
                                  &host_stack_size_);
#endif
}

void Fiber::resume() {
  if (done_) throw std::logic_error("Fiber::resume: fiber already done");
  if (g_current == this) throw std::logic_error("Fiber::resume: self-resume");
  Fiber* const parent = g_current;
  g_current = this;
  if (!started_) {
    started_ = true;
    g_entering = this;
  }
  switch_in();
  g_current = parent;
}

void Fiber::yield() {
  Fiber* const self = g_current;
  if (self == nullptr) {
    throw std::logic_error("Fiber::yield: not inside a fiber");
  }
  self->switch_out(/*final_exit=*/false);
  if (self->cancel_requested_) throw Cancelled{};
}

void Fiber::cancel() {
  if (done_ || !started_) {
    // Never-started fibers have no stack frames to unwind.
    done_ = true;
    return;
  }
  cancel_requested_ = true;
  resume();  // yield() throws Cancelled; trampoline marks done
}

}  // namespace pcap::util
