#include "kernel/process.hpp"

#include <utility>

#include "kernel/clock.hpp"
#include "kernel/event.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace craft {

namespace {
thread_local ThreadProcess* tl_current_thread = nullptr;

/// Marks `t` as the current thread for a scope. Restored on every exit,
/// including a body exception rethrown by resume(): a caller that catches
/// it and keeps simulating (or destroys the simulator) must not see this
/// process as current.
class CurrentThreadScope {
 public:
  explicit CurrentThreadScope(ThreadProcess* t) : prev_(tl_current_thread) {
    tl_current_thread = t;
  }
  ~CurrentThreadScope() { tl_current_thread = prev_; }
  CurrentThreadScope(const CurrentThreadScope&) = delete;
  CurrentThreadScope& operator=(const CurrentThreadScope&) = delete;

 private:
  ThreadProcess* prev_;
};

ThreadProcess& CurrentThread(const char* call) {
  ThreadProcess* t = ThreadProcess::Current();
  CRAFT_ASSERT(t != nullptr, call << " called outside a thread process");
  return *t;
}
}  // namespace

ProcessBase::ProcessBase(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

ThreadProcess::ThreadProcess(Simulator& sim, std::string name, Clock& clk,
                             std::function<void()> body)
    : ProcessBase(sim, std::move(name)),
      clk_(clk),
      fiber_([this, body = std::move(body)] { body(); }) {}

ThreadProcess* ThreadProcess::Current() { return tl_current_thread; }

void ThreadProcess::Dispatch() {
  if (fiber_.done()) return;
  const CurrentThreadScope current(this);
  if (cond_ != nullptr) {
    Event* retry_on = nullptr;
    if (!TryCondition(retry_on)) return Park(retry_on);  // the fiber stays put
  }
  ++fiber_resumes_;
  fiber_.resume();
}

void ThreadProcess::Suspend() {
  // Clear/restore the current-thread marker across the suspension point so
  // code running on the scheduler context never observes a stale thread.
  tl_current_thread = nullptr;
  Fiber::Suspend();
  tl_current_thread = this;
}

void ThreadProcess::Park(Event* on) {
  on != nullptr ? on->AddWaiter(*this) : clk_.AddWaiter(*this);
}

bool ThreadProcess::TryCondition(Event*& retry_on) {
  const CurrentThreadScope current(this);
  try {
    if (!(*cond_)(retry_on)) return false;
  } catch (...) {
    cond_error_ = std::current_exception();
  }
  cond_ = nullptr;
  return true;
}

void ThreadProcess::Wait() { Wait(1); }

void ThreadProcess::Wait(unsigned n) {
  WaitUntil([&n] { return n-- == 0; });
}

void ThreadProcess::Wait(Event& e) {
  bool notified = false;
  WaitUntil([&](Event*& retry_on) {
    retry_on = &e;
    return std::exchange(notified, true);
  });
}

void ThreadProcess::WaitUntil(ConditionRef cond) { BeginWait(cond, false); }

void ThreadProcess::WaitUntilAtEdge(ConditionRef cond) { BeginWait(cond, true); }

void ThreadProcess::BeginWait(ConditionRef& cond, bool edge_tried) {
  // Every wait comes here, and cond_ is set exactly while one is pending,
  // so a wait from inside a condition's try finds it set.
  CRAFT_ASSERT(cond_ == nullptr, "thread '" << name()
                                            << "' blocked inside a wait_until condition; "
                                               "a condition must not wait");
  cond_ = &cond;
  edge_tried_ = edge_tried;
  Event* retry_on = nullptr;
  if (!TryCondition(retry_on)) {
    Park(retry_on);
    Suspend();
  }
  if (cond_error_) std::rethrow_exception(std::exchange(cond_error_, nullptr));
}

MethodProcess::MethodProcess(Simulator& sim, std::string name, std::function<void()> body)
    : ProcessBase(sim, std::move(name)), body_(std::move(body)) {}

MethodProcess& MethodProcess::SensitiveTo(Clock& clk) {
  clk.AttachMethod(*this);
  affinity_clocks_.push_back(&clk);
  return *this;
}

MethodProcess& MethodProcess::SetAffinity(Clock& clk) {
  affinity_clocks_.push_back(&clk);
  return *this;
}

void wait() { CurrentThread("wait()").Wait(); }

void wait(unsigned n) { CurrentThread("wait(n)").Wait(n); }

void wait(Event& e) { CurrentThread("wait(Event)").Wait(e); }

void wait_until(ConditionRef cond) { CurrentThread("wait_until()").WaitUntil(cond); }

void wait_until_at_edge(ConditionRef cond) {
  CurrentThread("wait_until_at_edge()").WaitUntilAtEdge(cond);
}

std::uint64_t this_cycle() { return CurrentThread("this_cycle()").clock().cycle(); }

}  // namespace craft
