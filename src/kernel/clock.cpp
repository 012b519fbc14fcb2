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

void Clock::AddWaiter(ThreadProcess& t) { parked_.push_back(Waiter{&t, t.wake_ordinal}); }

void Clock::Edge() {
  tl_sched_group = par_group_;
  ++cycle_;
  for (auto& hook : hooks_) hook();
  // Wake one-shot waiters (threads blocked in wait_until) in the order a
  // single waiter list would hold them: the waiters deferred at the last
  // edge first, then everyone else in park order. A thread parks in the
  // dispatch that made it wait, so park order is wake-ordinal order; a
  // thread this edge retries in place takes the ordinal its dispatch would
  // have had, so merging the retried and the newly parked by ordinal gives
  // the order in which dispatching every retry would have re-parked them.
  visit_deferred_.clear();
  visit_retried_.clear();
  visit_parked_.clear();
  visit_deferred_.swap(deferred_);
  visit_retried_.swap(retried_);
  visit_parked_.swap(parked_);
  for (const Waiter& w : visit_deferred_) Wake(w);
  auto r = visit_retried_.begin();
  auto p = visit_parked_.begin();
  while (r != visit_retried_.end() || p != visit_parked_.end()) {
    const bool retried_first = p == visit_parked_.end() ||
                               (r != visit_retried_.end() && r->ordinal < p->ordinal);
    Wake(retried_first ? *r++ : *p++);
  }
  // Trigger statically sensitive methods.
  for (ProcessBase* m : methods_) sim_.MakeRunnable(*m);
  sim_.ScheduleAt(sim_.now() + NextPeriod(), [this] { Edge(); }, /*affinity=*/this);
}

void Clock::Wake(const Waiter& w) {
  // craft-chaos may defer individual wakeups to the next edge — legal for
  // LI designs, which must tolerate a thread resuming late. Only these
  // one-shot waiters are ever deferred: statically sensitive methods model
  // RTL that samples every edge, so delaying them would forge a different
  // design, not a schedule.
  if (chaos_ != nullptr && chaos_->DeferWakeup()) {
    deferred_.push_back(w);
    return;
  }
  ThreadProcess& t = *w.thread;
  // A wait the edge may try itself (ThreadProcess::WaitUntilAtEdge) that
  // still fails stays parked, holding the ordinal its dispatch would have
  // taken; the dispatch it saves would have been a failed try with no
  // effect outside the waiting frame.
  if (t.edge_tried() && !t.TryAtEdge()) {
    retried_.push_back(Waiter{&t, sim_.ReserveWakeOrdinal(t.par_group)});
    return;
  }
  sim_.MakeRunnable(t);
}

}  // namespace craft
