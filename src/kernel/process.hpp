// Processes: the unit of concurrent execution in the kernel.
//
// ThreadProcess is the analogue of SC_THREAD: a fiber that may block on
// wait() / wait(Event&). MethodProcess is the analogue of SC_METHOD: a
// callback re-run whenever one of its triggers (clock edge, signal change,
// event) fires. Library code written against these two primitives maps 1:1
// onto the SystemC coding style used throughout the paper.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "kernel/fiber.hpp"
#include "kernel/time.hpp"

namespace craft {

class Simulator;
class Clock;
class Event;

/// Sentinel for ProcessBase::trace_blocked_track: not blocked on any track.
inline constexpr std::uint32_t kNoTraceTrack = 0xFFFF'FFFFu;

/// A non-owning reference to a wait_until condition: a callable returning
/// true once the wait is over, taking either nothing or an `Event*&
/// retry_on`. A false try is retried at the thread's next posedge, or when
/// the Event the condition stored in `retry_on` is notified (it starts each
/// try as nullptr). The referenced callable must outlive the wait, which a
/// lambda passed straight to wait_until always does.
class ConditionRef {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ConditionRef>)
  ConditionRef(F&& f)  // implicit, so a lambda converts at the call
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        test_([](void* obj, Event*& retry_on) -> bool {
          auto& fn = *static_cast<std::remove_reference_t<F>*>(obj);
          if constexpr (std::is_invocable_v<decltype(fn), Event*&>) return fn(retry_on);
          else return fn();
        }) {}

  bool operator()(Event*& retry_on) const { return test_(obj_, retry_on); }

 private:
  void* obj_;
  bool (*test_)(void*, Event*&);
};

/// Common base for thread and method processes.
class ProcessBase {
 public:
  ProcessBase(Simulator& sim, std::string name);
  virtual ~ProcessBase() = default;

  /// Executes one evaluation-phase dispatch of this process.
  virtual void Dispatch() = 0;

  const std::string& name() const { return name_; }
  Simulator& sim() const { return sim_; }

  bool queued = false;  // managed by Simulator::MakeRunnable

  /// Ordinal of the MakeRunnable that last queued this process (its place
  /// in its shard's dispatch order). Managed by Simulator::MakeRunnable.
  std::uint64_t wake_ordinal = 0;

  /// craft-par: the GALS clock-domain group this process belongs to,
  /// assigned by the engine's partitioner at the first Run. Routes
  /// MakeRunnable to the owning worker's shard.
  unsigned par_group = 0;

  // craft-stats profiling slots, written by the scheduler's dispatch loop
  // (kernel/stats.hpp). Dispatch counting is always on (one increment);
  // wall-clock accumulation only when the stats registry is enabled.
  std::uint64_t stat_dispatches = 0;
  std::uint64_t stat_wall_ns = 0;

  // craft-trace slots (kernel/trace_events.hpp), touched only while the
  // trace sink is enabled. trace_ctx carries the span id of the message
  // this process last popped, consumed by its next push (the hop-to-hop
  // propagation mechanism); the blocked fields record which track the
  // process is currently stalled on, sampled by blame attribution. The
  // blocked fields are atomic because blame sampling reads them across a
  // GALS crossing (the only place two workers see the same process);
  // trace_ctx is only ever touched by the owning worker.
  std::uint64_t trace_ctx = 0;
  std::atomic<std::uint32_t> trace_blocked_track{kNoTraceTrack};
  std::atomic<bool> trace_blocked_is_push{false};

 private:
  Simulator& sim_;
  std::string name_;
};

/// A blocking process running on its own fiber, clocked by `clk`.
class ThreadProcess : public ProcessBase {
 public:
  ThreadProcess(Simulator& sim, std::string name, Clock& clk, std::function<void()> body);

  void Dispatch() override;

  Clock& clock() const { return clk_; }
  bool done() const { return fiber_.done(); }

  /// The thread process currently executing, or nullptr.
  static ThreadProcess* Current();

  // ---- blocking API, callable only from inside this process's body ----

  /// Suspends until the next posedge of this process's clock.
  void Wait();

  /// Suspends for n posedges (one suspension; the edges are counted by the
  /// scheduler).
  void Wait(unsigned n);

  /// Suspends until `e` is notified (possibly in the same timestep).
  void Wait(Event& e);

  /// Returns once `cond` holds; every Wait above is one. The first try runs
  /// here, on the fiber; every later try runs in this thread's dispatch slot
  /// on the scheduler, which resumes the fiber only once the condition
  /// holds. A condition must not block: wait() inside one raises a SimError.
  void WaitUntil(ConditionRef cond);

  /// WaitUntil for a condition this thread's clock edge may try itself, at
  /// the thread's place in the wake order, instead of dispatching the
  /// thread. A try that holds makes the thread runnable in that same place
  /// and its fiber resumes with no second try; one that fails leaves it
  /// parked, keeping its place. Legal only for a condition that gives the
  /// same result at the edge as in the thread's dispatch slot and never
  /// sets `retry_on`, and whose failed try changes nothing outside the
  /// waiting frame but its reports to the site's probe. Those may stay:
  /// the stats counters and the per-cycle chaos rolls read the same
  /// wherever in the cycle the try runs, and pulse samples only between
  /// windows.
  void WaitUntilAtEdge(ConditionRef cond);

  /// Times the scheduler resumed this thread's fiber.
  std::uint64_t fiber_resumes() const { return fiber_resumes_; }

 private:
  friend class Clock;

  void Park(Event* on);
  void Suspend();
  void BeginWait(ConditionRef& cond, bool edge_tried);

  /// One try of the pending condition, run as this thread: inline on the
  /// fiber, in the dispatch slot, or by Clock::Edge. False means still
  /// blocked, retried on `retry_on` (nullptr: the next posedge); true means
  /// the wait is over — it held, or it threw and the fiber will rethrow.
  bool TryCondition(Event*& retry_on);

  /// Clock::Edge: is the pending wait one the edge may try itself?
  bool edge_tried() const { return edge_tried_; }

  Clock& clk_;
  Fiber fiber_;
  std::uint64_t fiber_resumes_ = 0;

  // The pending wait_until's condition, if any, and an exception one of its
  // scheduler-side tries threw, rethrown on the fiber so it surfaces
  // exactly as one thrown by the body.
  const ConditionRef* cond_ = nullptr;
  std::exception_ptr cond_error_;
  bool edge_tried_ = false;
};

/// A non-blocking callback process, re-run on each trigger.
class MethodProcess : public ProcessBase {
 public:
  MethodProcess(Simulator& sim, std::string name, std::function<void()> body);

  void Dispatch() override { body_(); }

  /// Adds a clock posedge trigger.
  MethodProcess& SensitiveTo(Clock& clk);

  /// Declares the clock domain this method belongs to WITHOUT adding a
  /// trigger — for signal-sensitive methods (combinational logic), whose
  /// domain craft-par's partitioner cannot infer from triggers alone. A
  /// method with neither a SensitiveTo clock nor a declared affinity forces
  /// the whole design into a single domain group (safe, not parallel).
  MethodProcess& SetAffinity(Clock& clk);

  /// Clocks this method is tied to (triggers + declared affinities), for
  /// the partitioner. Multiple distinct clocks merge their domain groups.
  const std::vector<const Clock*>& affinity_clocks() const {
    return affinity_clocks_;
  }

 private:
  std::function<void()> body_;
  std::vector<const Clock*> affinity_clocks_;
};

// ---- SystemC-style free functions (operate on the current thread) ----

/// Suspends the current thread process until the next posedge of its clock.
void wait();

/// Suspends for n posedges.
void wait(unsigned n);

/// Suspends until `e` is notified.
void wait(Event& e);

/// Blocks the current thread until `cond` holds (ThreadProcess::WaitUntil).
void wait_until(ConditionRef cond);

/// wait_until for a condition the clock edge may try in place of a dispatch
/// (ThreadProcess::WaitUntilAtEdge states when that is legal).
void wait_until_at_edge(ConditionRef cond);

/// Cycle count of the current thread's clock.
std::uint64_t this_cycle();

}  // namespace craft
