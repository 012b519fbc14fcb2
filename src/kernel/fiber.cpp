#include "kernel/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

#include "kernel/report.hpp"

// AddressSanitizer needs to be told about every stack switch: it shadows
// each call stack with a "fake stack", and a stack switch it does not know
// about leaves it validating fiber frames against the main stack's shadow
// (false positives, or worse, silently unpoisoned memory). The protocol is
// __sanitizer_start_switch_fiber immediately before the switch and
// __sanitizer_finish_switch_fiber as the first action on the new stack.
#if defined(__SANITIZE_ADDRESS__)
#define CRAFT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRAFT_ASAN_FIBERS 1
#endif
#endif

#if defined(CRAFT_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer has the analogous requirement (a "fiber" per call stack,
// switched explicitly), with its own API. Without it, TSan attributes a
// resumed fiber's frames to whatever stack the worker thread last ran and
// reports false races the first time a fiber suspends across an epoch.
#if defined(__SANITIZE_THREAD__)
#define CRAFT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CRAFT_TSAN_FIBERS 1
#endif
#endif

#if defined(CRAFT_TSAN_FIBERS)
// Declared here rather than via <sanitizer/tsan_interface.h> so the file
// also compiles against toolchains whose header predates the fiber API.
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(__x86_64__)
// craft_fiber_switch(save_sp, load_sp): pushes the SysV callee-saved
// registers (rbp, rbx, r12-r15) and the callee-saved floating-point control
// state (MXCSR, x87 control word) onto the running stack, stores the stack
// pointer to *save_sp, loads load_sp and pops the same frame from it. The
// `ret` then continues wherever that stack last called craft_fiber_switch,
// or, for a fresh fiber, enters Trampoline (see Fiber::Prepare). Everything
// else is caller-saved, so the compiler already spills it around the call.
// Unlike swapcontext there is no signal-mask syscall: a fiber switch is
// about twenty instructions.
extern "C" void craft_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
  .pushsection .text
  .p2align 4
  .globl craft_fiber_switch
  .hidden craft_fiber_switch
  .type craft_fiber_switch, @function
craft_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size craft_fiber_switch, .-craft_fiber_switch
  .popsection
)");
#endif

namespace craft {

namespace {
thread_local Fiber* tl_current_fiber = nullptr;

// TLS accessors, deliberately opaque to the optimizer. Code before and
// after a stack switch may execute on different OS threads (a fiber last
// suspended on a craft-par worker is cancel-unwound from the main thread
// in ~Simulator, after the workers have been joined); an inlined TLS access
// whose address was computed before the switch would then write through a
// dead thread's TLS. A noinline call recomputes the address on whichever
// thread is actually running.
__attribute__((noinline)) void SetCurrentFiber(Fiber* f) {
  tl_current_fiber = f;
  asm volatile("" ::: "memory");
}

__attribute__((noinline)) Fiber* GetCurrentFiber() {
  asm volatile("" ::: "memory");
  return tl_current_fiber;
}

std::size_t GuardBytes() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

Fiber::Fiber(Fn body) : body_(std::move(body)) {
  CRAFT_ASSERT(body_ != nullptr, "fiber body must be callable");
  // MAP_NORESERVE and no pre-touching: a fiber costs only the pages its
  // frames actually reach. The lowest page is the guard.
  void* mapping = mmap(nullptr, GuardBytes() + kStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapping == MAP_FAILED) throw std::bad_alloc();
  if (mprotect(mapping, GuardBytes(), PROT_NONE) != 0) {
    munmap(mapping, GuardBytes() + kStackBytes);
    throw std::bad_alloc();
  }
  stack_lo_ = static_cast<std::uint8_t*>(mapping) + GuardBytes();
#if defined(CRAFT_ASAN_FIBERS)
  // The kernel may hand back addresses of an earlier, unmapped fiber stack
  // whose shadow still holds that stack's redzones.
  ASAN_UNPOISON_MEMORY_REGION(stack_lo_, kStackBytes);
#endif
}

Fiber::~Fiber() {
  // A simulation routinely ends with processes suspended mid-Pop/Push. Their
  // stacks still hold live locals (buffers, RAII guards); abandoning them
  // leaks. Resume one last time in cancel mode: Suspend() turns into a
  // FiberUnwind throw, the stack unwinds through the body, and Trampoline
  // finishes normally. Module/channel objects may already be gone at this
  // point — unwinding only runs destructors of the fiber's own locals.
  if (started_ && !done_) {
    cancelling_ = true;
    resume();
    CRAFT_ASSERT(done_, "fiber survived cancellation — a catch-all in the "
                        "body must rethrow FiberUnwind");
  }
#if defined(CRAFT_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(stack_lo_ - GuardBytes(), GuardBytes() + kStackBytes);
}

Fiber* Fiber::Current() { return GetCurrentFiber(); }

#if defined(__x86_64__)
void Fiber::Prepare() {
  // The frame craft_fiber_switch pops, highest address first: a zero return
  // address for Trampoline (unwinders and backtraces stop there), the
  // address the switch's `ret` jumps to, rbp = 0 (end of the frame-pointer
  // chain), rbx and r12-r15, then the control words. The fiber inherits the
  // resumer's MXCSR and x87 control word, as a getcontext() would. The
  // stack top is 16-byte aligned, so Trampoline starts with rsp = 8 (mod 16),
  // exactly as if it had been called.
  auto* top = reinterpret_cast<std::uint64_t*>(stack_lo_ + kStackBytes);
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  top[-1] = 0;
  top[-2] = reinterpret_cast<std::uint64_t>(&Fiber::Trampoline);
  for (int reg = 3; reg <= 8; ++reg) top[-reg] = 0;
  top[-9] = mxcsr | (static_cast<std::uint64_t>(fpucw) << 32);
  fiber_sp_ = &top[-9];
}

void Fiber::SwitchIn() { craft_fiber_switch(&host_sp_, fiber_sp_); }

void Fiber::SwitchOut() { craft_fiber_switch(&fiber_sp_, host_sp_); }
#else
void Fiber::Prepare() {
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_lo_;
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;
  makecontext(&ctx_, &Fiber::Trampoline, 0);
}

void Fiber::SwitchIn() { swapcontext(&link_, &ctx_); }

void Fiber::SwitchOut() { swapcontext(&ctx_, &link_); }
#endif

void Fiber::Trampoline() {
  Fiber* self = GetCurrentFiber();
#if defined(CRAFT_ASAN_FIBERS)
  // First arrival on this fiber's stack: no fake stack to restore yet, but
  // record where we came from (the main context's bounds) for the way back.
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_main_bottom_,
                                  &self->asan_main_size_);
#endif
  try {
    self->body_();
  } catch (const FiberUnwind&) {
    // Cancelled by ~Fiber: the stack has unwound; nothing to rethrow.
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->done_ = true;
  // Return to the resume() call, which observes done_. Trampoline never
  // returns: there is no caller frame to return to.
#if defined(CRAFT_ASAN_FIBERS)
  // Final exit: null fake-stack-save tells ASan to destroy this fiber's
  // fake stack instead of preserving it for a return that never comes.
  __sanitizer_start_switch_fiber(nullptr, self->asan_main_bottom_,
                                 self->asan_main_size_);
#endif
#if defined(CRAFT_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_host_, 0);
#endif
  self->SwitchOut();
}

void Fiber::resume() {
  CRAFT_ASSERT(GetCurrentFiber() == nullptr, "resume() called from inside a fiber");
  CRAFT_ASSERT(!done_, "resume() on a finished fiber");
  if (!started_) {
    started_ = true;
    Prepare();
  }
  SetCurrentFiber(this);
#if defined(CRAFT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&asan_main_fss_, stack_lo_, kStackBytes);
#endif
#if defined(CRAFT_TSAN_FIBERS)
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  SwitchIn();
#if defined(CRAFT_ASAN_FIBERS)
  // Back on the main stack, arriving from Suspend() or the Trampoline exit.
  __sanitizer_finish_switch_fiber(asan_main_fss_, nullptr, nullptr);
#endif
  SetCurrentFiber(nullptr);
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Fiber::Suspend() {
  Fiber* self = GetCurrentFiber();
  CRAFT_ASSERT(self != nullptr, "Suspend() called outside any fiber");
  SetCurrentFiber(nullptr);
#if defined(CRAFT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fiber_fss_, self->asan_main_bottom_,
                                 self->asan_main_size_);
#endif
#if defined(CRAFT_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_host_, 0);
#endif
  self->SwitchOut();
#if defined(CRAFT_ASAN_FIBERS)
  // Resumed: restore this fiber's fake stack and refresh the main-context
  // bounds (resume() may be called from a different frame each time).
  __sanitizer_finish_switch_fiber(self->asan_fiber_fss_, &self->asan_main_bottom_,
                                  &self->asan_main_size_);
#endif
  SetCurrentFiber(self);
  if (self->cancelling_) throw FiberUnwind{};
}

}  // namespace craft
