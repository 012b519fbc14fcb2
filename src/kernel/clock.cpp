#include "kernel/clock.hpp"

#include "kernel/process.hpp"

namespace craft {

Clock::Clock(Simulator& sim, std::string name, Time period, Time first_edge)
    : sim_(sim), name_(std::move(name)), period_(period) {
  CRAFT_ASSERT(period_ > 0, "clock period must be positive");
  sim_.RegisterClock(*this);
  chaos_ = sim_.chaos().RegisterClock(name_);
  const Time t0 = (first_edge == kTimeNever) ? sim_.now() + period_ : first_edge;
  sim_.ScheduleAt(t0, [this] { Edge(); }, /*affinity=*/this);
}

void Clock::AttachMethod(MethodProcess& m) { methods_.push_back(&m); }

void Clock::Edge() {
  tl_sched_group = par_group_;
  ++cycle_;
  for (auto& hook : hooks_) hook();
  // Wake one-shot waiters (threads blocked in wait()). craft-chaos may defer
  // individual wakeups to the next edge — legal for LI designs, which must
  // tolerate a thread resuming late. Only these one-shot waiters are ever
  // deferred: statically sensitive methods model RTL that samples every
  // edge, so delaying them would forge a different design, not a schedule.
  std::vector<ProcessBase*> w;
  w.swap(waiters_);
  for (ProcessBase* p : w) {
    if (chaos_ != nullptr && chaos_->DeferWakeup()) {
      waiters_.push_back(p);
      continue;
    }
    sim_.MakeRunnable(*p);
  }
  // Trigger statically sensitive methods.
  for (ProcessBase* m : methods_) sim_.MakeRunnable(*m);
  sim_.ScheduleAt(sim_.now() + NextPeriod(), [this] { Edge(); }, /*affinity=*/this);
}

}  // namespace craft
