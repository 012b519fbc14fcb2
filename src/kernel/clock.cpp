#include "kernel/clock.hpp"

#include <algorithm>

#include "kernel/process.hpp"
#include "kernel/report.hpp"

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
  // Wake one-shot waiters (threads blocked in wait_until) in wake-ordinal
  // order. Ordinals come from one counter per shard in dispatch order, and
  // a thread parks in the dispatch that made it wait, so this is park
  // order. A thread the last edge retried in place took the ordinal its
  // dispatch would have had there, so it sits where dispatching the retry
  // would have re-parked it. A thread chaos deferred keeps the older
  // ordinal of a dispatch before the last edge, so it comes first.
  visit_.clear();
  visit_.swap(waiters_);
  std::sort(visit_.begin(), visit_.end(), [](const ThreadProcess* a, const ThreadProcess* b) {
    return a->wake_ordinal < b->wake_ordinal;
  });
  for (ThreadProcess* t : visit_) Wake(*t);
  // Trigger statically sensitive methods.
  for (ProcessBase* m : methods_) sim_.MakeRunnable(*m);
  sim_.ScheduleAt(sim_.now() + NextPeriod(), [this] { Edge(); }, /*affinity=*/this);
}

void Clock::Wake(ThreadProcess& t) {
  // craft-chaos may defer individual wakeups to the next edge — legal for
  // LI designs, which must tolerate a thread resuming late. Only these
  // one-shot waiters are ever deferred: statically sensitive methods model
  // RTL that samples every edge, so delaying them would forge a different
  // design, not a schedule.
  if (chaos_ != nullptr && chaos_->DeferWakeup()) {
    waiters_.push_back(&t);
    return;
  }
  // A wait the edge may try itself (ThreadProcess::WaitUntilAtEdge) that
  // still fails stays parked, taking the ordinal its dispatch would have
  // taken; the dispatch it saves would have been a failed try.
  Event* retry_on = nullptr;
  if (t.edge_tried() && !t.TryCondition(retry_on)) {
    CRAFT_ASSERT(retry_on == nullptr,
                 "thread '" << t.name() << "': a condition tried at the edge set retry_on");
    t.wake_ordinal = sim_.ReserveWakeOrdinal(t.par_group);
    waiters_.push_back(&t);
    return;
  }
  sim_.MakeRunnable(t);
}

}  // namespace craft
