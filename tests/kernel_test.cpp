// Unit tests for the simulation kernel: fibers, scheduler, clocks, signals,
// events, processes, tracing, and deterministic RNG.
#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"

namespace craft {
namespace {

using namespace craft::literals;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, SuspendResumeRoundTrips) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::Suspend();
    trace.push_back(3);
    Fiber::Suspend();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::Current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::Current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

TEST(Fiber, DestroyingSuspendedFiberUnwindsItsLocals) {
  struct Guard {
    bool* destroyed;
    ~Guard() { *destroyed = true; }
  };
  bool destroyed = false;
  bool resumed_after_suspend = false;
  {
    Fiber f([&] {
      Guard g{&destroyed};
      Fiber::Suspend();
      resumed_after_suspend = true;
    });
    f.resume();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
  EXPECT_FALSE(resumed_after_suspend);
}

TEST(Fiber, MigratesBetweenOsThreads) {
  Fiber* inside_first = nullptr;
  Fiber* inside_second = nullptr;
  Fiber f([&] {
    inside_first = Fiber::Current();
    Fiber::Suspend();
    inside_second = Fiber::Current();
  });
  Fiber* after_first = &f;
  Fiber* after_second = &f;
  std::thread([&] {
    f.resume();
    after_first = Fiber::Current();
  }).join();
  EXPECT_FALSE(f.done());
  std::thread([&] {
    f.resume();
    after_second = Fiber::Current();
  }).join();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(inside_first, &f);
  EXPECT_EQ(inside_second, &f);
  EXPECT_EQ(after_first, nullptr);
  EXPECT_EQ(after_second, nullptr);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

// Rounding mode lives in the x87 control word and MXCSR, both callee-saved:
// a fiber keeps its own across a suspend, and the resumer never sees it.
TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  // 1/3 rounds down to nearest and up under FE_UPWARD; volatile keeps the
  // division at run time, under whatever MXCSR is live.
  volatile double one = 1.0, three = 3.0;
  const double nearest = one / three;
  const int outer = std::fegetround();
  int inside_after_resume = -1;
  double sse_after_resume = 0.0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    Fiber::Suspend();
    inside_after_resume = std::fegetround();
    sse_after_resume = one / three;
  });
  f.resume();
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(one / three, nearest);
  f.resume();
  EXPECT_EQ(inside_after_resume, FE_UPWARD);
  EXPECT_GT(sse_after_resume, nearest);
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(one / three, nearest);
}

// Recurses until `bytes` of stack below `base` are in use. The write after
// the call keeps it from being a tail call, so every level keeps its frame.
__attribute__((noinline)) void UseStack(std::uintptr_t base, std::size_t bytes) {
  volatile char frame[256];
  frame[0] = 1;
  if (base - reinterpret_cast<std::uintptr_t>(&frame[0]) < bytes) UseStack(base, bytes);
  frame[1] = frame[0];
}

// Overflowing by 16 KiB must fault, not scribble on whatever memory lies
// below the stack and carry on. The second fiber is there to be that memory:
// a stack allocated without a guard page would typically sit just above it.
TEST(FiberDeathTest, StackOverflowFaultsOnGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Fiber overflowing([] {
          char top = 0;
          UseStack(reinterpret_cast<std::uintptr_t>(&top), Fiber::kStackBytes + 16 * 1024);
        });
        Fiber below([] {});
        overflowing.resume();
        std::_Exit(0);
      },
      "");
}

TEST(Simulator, TimeAdvancesToRunBound) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  sim.Run(100_ns);
  EXPECT_EQ(sim.now(), 100000u);
}

TEST(Simulator, CurrentInstalledByRaii) {
  {
    Simulator sim;
    EXPECT_EQ(&Simulator::Current(), &sim);
  }
  EXPECT_THROW(Simulator::Current(), SimError);
}

TEST(Simulator, ScheduledCallbacksFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30_ns, [&] { order.push_back(3); });
  sim.ScheduleAt(10_ns, [&] { order.push_back(1); });
  sim.ScheduleAt(20_ns, [&] { order.push_back(2); });
  sim.Run(100_ns);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeCallbacksFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(10_ns, [&order, i] { order.push_back(i); });
  }
  sim.Run(20_ns);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Clock, CountsCyclesAtExpectedRate) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  sim.Run(100_ns);
  EXPECT_EQ(clk.cycle(), 100u);
}

TEST(Clock, FirstEdgeDefaultsToOnePeriod) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  sim.Run(9_ns);
  EXPECT_EQ(clk.cycle(), 0u);
  sim.Run(1_ns);
  EXPECT_EQ(clk.cycle(), 1u);
}

TEST(Clock, EdgeHooksRunInRegistrationOrder) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  std::vector<int> order;
  clk.AddEdgeHook([&] { order.push_back(2); });
  clk.AddEdgeHook([&] { order.push_back(1); });
  sim.Run(2_ns);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 2, 1}));
}

TEST(Clock, MultipleIndependentClockDomains) {
  Simulator sim;
  Clock fast(sim, "fast", 1_ns);
  Clock slow(sim, "slow", 3_ns);
  sim.Run(30_ns);
  EXPECT_EQ(fast.cycle(), 30u);
  EXPECT_EQ(slow.cycle(), 10u);
}

TEST(Thread, WaitAdvancesOneClockCycle) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct Harness : Module {
    using Module::Module;
    std::vector<std::uint64_t> cycles;
    void Build(Clock& clk) {
      Thread("t", clk, [this] {
        for (int i = 0; i < 5; ++i) {
          wait();
          cycles.push_back(ThreadProcess::Current()->clock().cycle());
        }
      });
    }
  };
  Harness h(top, "h");
  h.Build(clk);
  sim.Run(10_ns);
  EXPECT_EQ(h.cycles, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Thread, WaitNSkipsNCycles) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  std::uint64_t end_cycle = 0;
  struct H : Module {
    using Module::Module;
  } h(top, "h");
  struct Builder : Module {
    ThreadProcess* t = nullptr;
    Builder(Module& p, Clock& clk, std::uint64_t& out) : Module(p, "b") {
      t = &Thread("t", clk, [&out] {
        wait(7);
        out = this_cycle();
      });
    }
  } b(top, clk, end_cycle);
  sim.Run(20_ns);
  EXPECT_EQ(end_cycle, 7u);
  // One suspension: the scheduler counts the edges, dispatching the thread
  // at each, and resumes the fiber once after its start.
  EXPECT_EQ(b.t->stat_dispatches, 8u);
  EXPECT_EQ(b.t->fiber_resumes(), 2u);
}

TEST(Thread, ThrowingBodyLeavesNoCurrentThread) {
  {
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    struct Thrower : Module {
      Thrower(Module& p, Clock& clk) : Module(p, "thrower") {
        Thread("t", clk, [] {
          wait();
          throw std::runtime_error("body failed");
        });
      }
    } thrower(top, clk);
    EXPECT_THROW(sim.Run(10_ns), std::runtime_error);
    EXPECT_EQ(ThreadProcess::Current(), nullptr);
  }
  EXPECT_EQ(ThreadProcess::Current(), nullptr);
}

// A wait_until condition that blocks raises a SimError, on its first try
// (which runs on the fiber) and on a later one (which runs in the
// scheduler, where a real suspension would have nowhere to return to).
TEST(WaitUntil, WaitInsideConditionRaises) {
  for (const int blocking_try : {1, 3}) {
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    struct B : Module {
      B(Module& p, Clock& clk, int blocking_try) : Module(p, "b") {
        Thread("t", clk, [blocking_try] {
          int tries = 0;
          wait_until([&] {
            if (++tries < blocking_try) return false;
            wait();
            return true;
          });
        });
      }
    } b(top, clk, blocking_try);
    try {
      sim.Run(10_ns);
      ADD_FAILURE() << "no SimError on try " << blocking_try;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("inside a wait_until condition"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(ThreadProcess::Current(), nullptr);
  }
}

// A condition that throws on a scheduler-side try surfaces exactly as a
// throwing thread body does: the exception leaves Run, the thread's stack
// unwinds and the thread is done, no current thread is left behind, and a
// later Run carries on with the other processes.
TEST(WaitUntil, ThrowingConditionSurfacesLikeABodyThrow) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    ThreadProcess* thrower = nullptr;
    int unwound = 0;
    std::uint64_t ticks = 0;
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("ticker", clk, [this] {
        for (;;) {
          wait();
          ++ticks;
        }
      });
      thrower = &Thread("thrower", clk, [this] {
        struct Guard {
          int& n;
          ~Guard() { ++n; }
        } guard{unwound};
        wait_until([] {
          if (this_cycle() < 3) return false;
          throw std::runtime_error("condition failed");
        });
      });
    }
  } b(top, clk);
  EXPECT_THROW(sim.Run(10_ns), std::runtime_error);
  EXPECT_EQ(ThreadProcess::Current(), nullptr);
  EXPECT_EQ(clk.cycle(), 3u);
  EXPECT_EQ(b.ticks, 3u);
  EXPECT_EQ(b.unwound, 1);
  EXPECT_TRUE(b.thrower->done());
  sim.Run(5_ns);  // from the throw at 3 ns to 8 ns
  EXPECT_EQ(b.ticks, 8u);
}

// A Run that throws still publishes the time it reached: now() reads the
// time of the throw, and the next Run(d) ends d later.
TEST(Simulator, NowAfterThrowingRunReadsTheThrowTime) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("thrower", clk, [] {
        wait(3);
        throw std::runtime_error("body failed");
      });
    }
  } b(top, clk);
  EXPECT_THROW(sim.Run(10_ns), std::runtime_error);
  EXPECT_EQ(sim.now(), 3_ns);
  sim.Run(5_ns);
  EXPECT_EQ(sim.now(), 8_ns);
  EXPECT_EQ(clk.cycle(), 8u);
}

// Processes behind a throwing one in the same delta were never dispatched;
// they stay queued and run first in the next Run instead of being lost.
TEST(Simulator, ThrowKeepsTheRestOfTheDeltaQueued) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    std::uint64_t count = 0;
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("thrower", clk, [] {
        wait(3);
        throw std::runtime_error("body failed");
      });
      Thread("counter", clk, [this] {
        for (;;) {
          wait();
          ++count;
        }
      });
    }
  } b(top, clk);
  EXPECT_THROW(sim.Run(10_ns), std::runtime_error);
  EXPECT_EQ(b.count, 2u);  // its third wake was behind the throw
  sim.Run(5_ns);
  EXPECT_EQ(b.count, 8u);
}

// Three threads on one clock log every wake as (cycle, thread). The middle
// one blocks on a condition that holds every fifth edge, through either
// wait_until (each edge dispatches it for a try) or wait_until_at_edge (the
// edge tries it in place). Its place in the wake order, and with it every
// chaos wakeup-deferral draw, must be the same either way.
struct WakeOrder {
  std::vector<std::pair<std::uint64_t, int>> log;
  std::uint64_t mid_dispatches = 0;
};

WakeOrder RunWakeOrder(bool at_edge, double wakeup_delay_prob) {
  Simulator sim;
  if (wakeup_delay_prob > 0.0) {
    FaultPlan plan;
    plan.seed = 11;
    plan.wakeup_delay_prob = wakeup_delay_prob;
    sim.chaos().Enable(plan);
  }
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    std::vector<std::pair<std::uint64_t, int>> log;
    ThreadProcess* mid = nullptr;
    B(Module& p, Clock& clk, bool at_edge) : Module(p, "b") {
      const auto poll = [this](int id) {
        for (;;) {
          wait();
          log.emplace_back(this_cycle(), id);
        }
      };
      Thread("first", clk, [poll] { poll(0); });
      mid = &Thread("mid", clk, [this, &clk, at_edge] {
        for (;;) {
          const auto due = [&clk] { return clk.cycle() % 5 == 0; };
          at_edge ? wait_until_at_edge(due) : wait_until(due);
          log.emplace_back(this_cycle(), 1);
          wait();
        }
      });
      Thread("last", clk, [poll] { poll(2); });
    }
  } b(top, clk, at_edge);
  sim.Run(300_ns);
  return {b.log, b.mid->stat_dispatches};
}

TEST(WaitUntilAtEdge, RetriedThreadKeepsItsPlaceInTheWakeOrder) {
  for (const double prob : {0.0, 0.3}) {
    const WakeOrder polled = RunWakeOrder(false, prob);
    const WakeOrder in_place = RunWakeOrder(true, prob);
    EXPECT_EQ(polled.log, in_place.log) << "wakeup_delay_prob " << prob;
    EXPECT_GT(polled.log.size(), 400u);
    // The edge took the failed tries: the middle thread is dispatched only
    // when its condition holds, and for the wait() after it.
    EXPECT_LT(in_place.mid_dispatches * 2, polled.mid_dispatches)
        << in_place.mid_dispatches << " vs " << polled.mid_dispatches;
  }
  // The wakeup-delay plan does reorder wakes, so the check above has teeth.
  EXPECT_NE(RunWakeOrder(true, 0.0).log, RunWakeOrder(true, 0.3).log);
}

// Under a chaos plan that defers wakeups, a clock still wakes its waiters
// in the order they parked. Four threads poll every edge; each parks in the
// dispatch that logs it, so in every cycle they must log in the order of
// their previous log entries, even right after a thread was deferred on two
// consecutive edges and the others parked again meanwhile. A fifth thread
// blocks on a condition that the edge tries in place (or, for comparison,
// that every edge dispatches it to try); it must keep its place as well.
std::vector<std::pair<std::uint64_t, int>> RunDeferredWakes(bool at_edge) {
  Simulator sim;
  FaultPlan plan;
  plan.seed = 3;
  plan.wakeup_delay_prob = 0.4;
  sim.chaos().Enable(plan);
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    std::vector<std::pair<std::uint64_t, int>> log;
    B(Module& p, Clock& clk, bool at_edge) : Module(p, "b") {
      for (int id = 0; id < 4; ++id) {
        Thread("poll" + std::to_string(id), clk, [this, id] {
          for (;;) {
            wait();
            log.emplace_back(this_cycle(), id);
          }
        });
      }
      Thread("edge_tried", clk, [this, &clk, at_edge] {
        for (;;) {
          const auto due = [&clk] { return clk.cycle() % 3 == 0; };
          at_edge ? wait_until_at_edge(due) : wait_until(due);
          log.emplace_back(this_cycle(), 4);
          wait();
        }
      });
    }
  } b(top, clk, at_edge);
  sim.Run(400_ns);
  return b.log;
}

TEST(WaitUntilAtEdge, DeferredThreadsWakeInParkOrder) {
  const auto log = RunDeferredWakes(true);
  EXPECT_EQ(RunDeferredWakes(false), log);
  EXPECT_GT(log.size(), 1000u);
  // Where each polling thread last parked (the index of its last log
  // entry, or its creation order before the first) and in which cycle.
  std::array<std::int64_t, 4> parked_at{-4, -3, -2, -1};
  std::array<std::uint64_t, 4> parked_cycle{};
  std::uint64_t prev_cycle = 0;
  std::int64_t prev_parked_at = 0;
  int woke_ahead = 0;  // twice-deferred threads woken ahead of a later parker
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto [cycle, id] = log[i];
    if (id == 4) continue;
    if (cycle == prev_cycle) {
      EXPECT_LT(prev_parked_at, parked_at[id]) << "cycle " << cycle;
    }
    if (cycle - parked_cycle[id] > 2) {  // deferred on two consecutive edges
      for (std::size_t j = i + 1; j < log.size() && log[j].first == cycle; ++j) {
        if (log[j].second != 4 && parked_cycle[log[j].second] > parked_cycle[id]) {
          ++woke_ahead;
          break;
        }
      }
    }
    prev_cycle = cycle;
    prev_parked_at = parked_at[id];
    parked_at[id] = static_cast<std::int64_t>(i);
    parked_cycle[id] = cycle;
  }
  EXPECT_GT(woke_ahead, 0);
}

// A condition that throws when the edge tries it surfaces as a body throw:
// it is rethrown on the fiber, which unwinds and finishes.
TEST(WaitUntilAtEdge, ThrowAtTheEdgeIsRethrownOnTheFiber) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    ThreadProcess* thrower = nullptr;
    int unwound = 0;
    B(Module& p, Clock& clk) : Module(p, "b") {
      thrower = &Thread("thrower", clk, [this] {
        struct Guard {
          int& n;
          ~Guard() { ++n; }
        } guard{unwound};
        wait_until_at_edge([] {
          if (this_cycle() < 3) return false;
          throw std::runtime_error("condition failed");
        });
      });
    }
  } b(top, clk);
  EXPECT_THROW(sim.Run(10_ns), std::runtime_error);
  EXPECT_EQ(ThreadProcess::Current(), nullptr);
  EXPECT_EQ(clk.cycle(), 3u);
  EXPECT_EQ(b.unwound, 1);
  EXPECT_TRUE(b.thrower->done());
  EXPECT_EQ(b.thrower->stat_dispatches, 2u);  // the start and the throw
}

// SimError messages name the raising source file relative to the
// repository root, whatever directory the checkout was built in.
TEST(SimErrorText, NamesRepoRelativeSourcePath) {
  Simulator sim;
  try {
    sim.SetParallelism(0);
    FAIL() << "no SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("src/kernel/simulator.cpp:", 0), 0u) << e.what();
  }
}

TEST(Signal, WriteVisibleOnlyAfterUpdatePhase) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<int> s(sim, "s", 0);
  Module top(sim, "top");
  int seen_during_eval = -1;
  struct B : Module {
    B(Module& p, Clock& clk, Signal<int>& s, int& seen) : Module(p, "b") {
      Thread("t", clk, [&s, &seen] {
        wait();
        s.write(5);
        seen = s.read();  // old value: update phase has not run yet
      });
    }
  } b(top, clk, s, seen_during_eval);
  sim.Run(2_ns);
  EXPECT_EQ(seen_during_eval, 0);
  EXPECT_EQ(s.read(), 5);
}

TEST(Signal, SensitiveMethodRunsOnChangeOnly) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<int> s(sim, "s", 0);
  Module top(sim, "top");
  int triggers = 0;
  struct B : Module {
    B(Module& p, Clock& clk, Signal<int>& s, int& triggers) : Module(p, "b") {
      MethodProcess& m = Method("watcher", [&triggers] { ++triggers; });
      s.AddSensitive(m);
      Thread("driver", clk, [&s] {
        wait();
        s.write(1);
        wait();
        s.write(1);  // no change: watcher must not re-trigger
        wait();
        s.write(2);
      });
    }
  } b(top, clk, s, triggers);
  sim.Run(10_ns);
  // One initial evaluation + two actual value changes.
  EXPECT_EQ(triggers, 3);
}

TEST(Signal, DeltaCyclePropagationThroughMethodChain) {
  // a -> m1 -> b -> m2 -> c, all within a single timestep via delta cycles.
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<int> a(sim, "a", 0), b(sim, "b", 0), c(sim, "c", 0);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk, Signal<int>& a, Signal<int>& b, Signal<int>& c)
        : Module(p, "b") {
      MethodProcess& m1 = Method("m1", [&] { b.write(a.read() + 1); });
      a.AddSensitive(m1);
      MethodProcess& m2 = Method("m2", [&] { c.write(b.read() + 1); });
      b.AddSensitive(m2);
      Thread("driver", clk, [&a] {
        wait();
        a.write(10);
      });
    }
  } built(top, clk, a, b, c);
  sim.Run(1_ns);
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(c.read(), 12);
}

TEST(Event, NotifyWakesWaiterSameTimestep) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Event ev(sim);
  Module top(sim, "top");
  Time woke_at = kTimeNever;
  struct B : Module {
    B(Module& p, Clock& clk, Event& ev, Time& woke_at) : Module(p, "b") {
      Thread("waiter", clk, [&] {
        wait(ev);
        woke_at = Simulator::Current().now();
      });
      Thread("notifier", clk, [&ev] {
        wait(3);
        ev.Notify();
      });
    }
  } b(top, clk, ev, woke_at);
  sim.Run(10_ns);
  EXPECT_EQ(woke_at, 3000u);  // same timestep as the notify (cycle 3)
}

TEST(Event, NotifyAfterDelayFiresAtRightTime) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Event ev(sim);
  Module top(sim, "top");
  Time woke_at = kTimeNever;
  struct B : Module {
    B(Module& p, Clock& clk, Event& ev, Time& woke_at) : Module(p, "b") {
      Thread("waiter", clk, [&] {
        wait(ev);
        woke_at = Simulator::Current().now();
      });
    }
  } b(top, clk, ev, woke_at);
  ev.NotifyAfter(5500);
  sim.Run(10_ns);
  EXPECT_EQ(woke_at, 5500u);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("t", clk, [] {
        wait(5);
        Simulator::Current().Stop();
      });
    }
  } b(top, clk);
  sim.Run(100_ns);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 5u);
}

TEST(Simulator, StopThenResumeMakesProgress) {
  // Regression: stop_requested_ used to be sticky, so every Run() after a
  // Stop() returned immediately without advancing time.
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("t", clk, [] {
        wait(5);
        Simulator::Current().Stop();
      });
    }
  } b(top, clk);
  sim.Run(100_ns);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 5u);
  sim.Run(10_ns);  // resume: the stop request must not outlive its Run()
  EXPECT_FALSE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 15u);
  EXPECT_EQ(sim.now(), 15000u);
}

TEST(Simulator, StopHonoredMidDeltaSettle) {
  // Two methods sensitive to each other's signals oscillate forever within
  // one timestep; a Stop() from inside the settle loop must end the Run().
  Simulator sim;
  Signal<int> a(sim, "a", 0), b_sig(sim, "b", 0);
  Module top(sim, "top");
  int iterations = 0;
  struct B : Module {
    B(Module& p, Signal<int>& a, Signal<int>& b, int& n) : Module(p, "b") {
      MethodProcess& m1 = Method("m1", [&] {
        if (++n >= 50) {
          Simulator::Current().Stop();
          return;
        }
        b.write(a.read() + 1);
      });
      a.AddSensitive(m1);
      MethodProcess& m2 = Method("m2", [&a, &b] { a.write(b.read() + 1); });
      b.AddSensitive(m2);
    }
  } built(top, a, b_sig, iterations);
  sim.Run(10_ns);  // would never return if Stop() were only checked between timesteps
  EXPECT_TRUE(sim.stopped());
  EXPECT_GE(iterations, 50);
}

TEST(Simulator, DeltaLimitDiagnosesOscillationByName) {
  Simulator sim;
  sim.set_delta_limit(1000);
  Signal<int> a(sim, "a", 0), b_sig(sim, "b", 0);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Signal<int>& a, Signal<int>& b) : Module(p, "osc") {
      MethodProcess& m1 = Method("m1", [&a, &b] { b.write(a.read() + 1); });
      a.AddSensitive(m1);
      MethodProcess& m2 = Method("m2", [&a, &b] { a.write(b.read() + 1); });
      b.AddSensitive(m2);
    }
  } built(top, a, b_sig);
  try {
    sim.Run(1_ns);
    FAIL() << "oscillation did not raise";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("oscillation"), std::string::npos) << msg;
    EXPECT_NE(msg.find("top.osc"), std::string::npos) << msg;  // names the culprits
  }
}

TEST(Simulator, ScheduleAtNowFromInsideCallbackFiresSameRun) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10_ns, [&] {
    order.push_back(1);
    Simulator& s = Simulator::Current();
    s.ScheduleAt(s.now(), [&] { order.push_back(2); });  // due immediately
  });
  sim.Run(20_ns);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunZeroFiresEventsDueNow) {
  Simulator sim;
  sim.Run(10_ns);
  bool fired = false;
  sim.ScheduleAt(sim.now(), [&] { fired = true; });
  sim.Run(0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 10000u);
}

TEST(Simulator, TimeAdvancesExactlyToBoundWhenQueueDrains) {
  Simulator sim;
  Time fired_at = kTimeNever;
  sim.ScheduleAt(3_ns, [&] { fired_at = Simulator::Current().now(); });
  sim.Run(7_ns);  // queue drains at 3 ns; time must still land exactly on 7 ns
  EXPECT_EQ(fired_at, 3000u);
  EXPECT_EQ(sim.now(), 7000u);
}

TEST(Module, HierarchicalNames) {
  Simulator sim;
  Module root(sim, "soc");
  Module child(root, "pe0");
  Module grandchild(child, "dp");
  EXPECT_EQ(grandchild.full_name(), "soc.pe0.dp");
  EXPECT_EQ(grandchild.parent(), &child);
}

TEST(Tracer, ProducesWellFormedVcd) {
  const std::string path = ::testing::TempDir() + "/craft_trace_test.vcd";
  {
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Signal<std::uint8_t> s(sim, "data", 0);
    Tracer tracer(sim, path);
    tracer.Trace(s, 8);
    tracer.Start();
    Module top(sim, "top");
    struct B : Module {
      B(Module& p, Clock& clk, Signal<std::uint8_t>& s) : Module(p, "b") {
        Thread("t", clk, [&s] {
          for (int i = 1; i <= 3; ++i) {
            wait();
            s.write(static_cast<std::uint8_t>(i * 10));
          }
        });
      }
    } b(top, clk, s);
    sim.Run(10_ns);
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("$timescale"), std::string::npos);
  EXPECT_NE(content.find("$var wire 8"), std::string::npos);
  EXPECT_NE(content.find("b00011110"), std::string::npos);  // 30
  std::remove(path.c_str());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NextBelowIsUnbiased) {
  // Regression for the modulo-bias bug: `Next() % bound` over-weights the
  // first 2^64 mod bound residues. With Lemire rejection every residue of a
  // non-power-of-two bound must come out uniform; a chi-square-style bound
  // on the per-bin deviation catches the old skew with huge margin.
  Rng r(42);
  constexpr std::uint64_t kBound = 5;  // non-power-of-two
  constexpr int kDraws = 500000;
  std::array<int, kBound> bins{};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = r.NextBelow(kBound);
    ASSERT_LT(v, kBound);
    ++bins[v];
  }
  const double expect = static_cast<double>(kDraws) / kBound;
  for (std::uint64_t b = 0; b < kBound; ++b) {
    EXPECT_NEAR(bins[b], expect, 5 * std::sqrt(expect)) << "bin " << b;
  }
}

TEST(Rng, NextBelowStaysInRangeForHugeBounds) {
  // Near-2^64 bounds maximize the rejection slice; both range containment
  // and termination must hold.
  Rng r(7);
  const std::uint64_t bound = (1ull << 63) + 12345;
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(bound), bound);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(r.NextBelow(1), 0u);
}

TEST(Rng, NextInRangeCoversTheFullDomain) {
  // Regression: NextInRange(0, ~0ull) computed hi - lo + 1 == 0 and handed
  // NextBelow a zero bound (undefined: the old code asserted or spun). The
  // full-domain span must map straight to Next() — every draw valid, and
  // both halves of the 64-bit space reachable.
  Rng r(19);
  bool low_half = false, high_half = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = r.NextInRange(0, ~0ull);
    (v < (1ull << 63) ? low_half : high_half) = true;
  }
  EXPECT_TRUE(low_half);
  EXPECT_TRUE(high_half);
  // Near-full spans with a nonzero lo exercise the same overflow edge.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = r.NextInRange(~0ull - 3, ~0ull);
    EXPECT_GE(v, ~0ull - 3);
  }
  EXPECT_EQ(r.NextInRange(42, 42), 42u);
}

TEST(Rng, NextInRangeIsUniform) {
  // Same chi-square-style bound as NextBelowIsUnbiased, applied through the
  // [lo, hi] interface so the span+offset arithmetic is covered too.
  Rng r(23);
  constexpr std::uint64_t kLo = 10, kHi = 16;  // 7 bins, non-power-of-two
  constexpr int kDraws = 350000;
  std::array<int, kHi - kLo + 1> bins{};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = r.NextInRange(kLo, kHi);
    ASSERT_GE(v, kLo);
    ASSERT_LE(v, kHi);
    ++bins[v - kLo];
  }
  const double expect = static_cast<double>(kDraws) / bins.size();
  for (std::size_t b = 0; b < bins.size(); ++b) {
    EXPECT_NEAR(bins[b], expect, 5 * std::sqrt(expect)) << "bin " << b;
  }
}

TEST(Tracer, DestructionDeregistersHooks) {
  // Regression: ~Tracer left lambdas capturing the dead tracer installed in
  // the signals' trace hooks; the next write was a use-after-free (caught by
  // the ASan job). The signal must be safely writable after the tracer dies.
  const std::string path = ::testing::TempDir() + "/craft_trace_dtor_test.vcd";
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<std::uint8_t> s(sim, "data", 0);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk, Signal<std::uint8_t>& s) : Module(p, "b") {
      Thread("t", clk, [&s] {
        for (;;) {
          wait();
          s.write(static_cast<std::uint8_t>(this_cycle()));
        }
      });
    }
  } b(top, clk, s);
  {
    Tracer tracer(sim, path);
    tracer.Trace(s, 8);
    tracer.Start();
    sim.Run(5_ns);
  }
  sim.Run(5_ns);  // writes after ~Tracer must not touch the dead tracer
  EXPECT_EQ(s.read(), 10u);
  std::remove(path.c_str());
}

TEST(BitStream, RoundTripsValues) {
  BitStream s;
  s.PutBits(0xABCD, 16);
  s.PutBits(0x3, 2);
  s.PutBits(0x1ffffffffull, 33);
  EXPECT_EQ(s.GetBits(16), 0xABCDu);
  EXPECT_EQ(s.GetBits(2), 0x3u);
  EXPECT_EQ(s.GetBits(33), 0x1ffffffffull);
  EXPECT_TRUE(s.exhausted());
}

TEST(BitStream, FlitRoundTrip) {
  BitStream s;
  s.PutBits(0xDEADBEEF, 32);
  s.PutBits(0x5A, 8);
  auto flits = s.ToFlits(13);
  EXPECT_EQ(flits.size(), DivCeil(40, 13));
  BitStream r = BitStream::FromFlits(flits, 13);
  EXPECT_EQ(r.GetBits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.GetBits(8), 0x5Au);
}

TEST(Marshal, IntegralWidths) {
  EXPECT_EQ(BitWidthOf<std::uint8_t>(), 8u);
  EXPECT_EQ(BitWidthOf<std::uint32_t>(), 32u);
  BitStream s;
  Marshal<std::uint32_t>::Write(s, 0xCAFEBABE);
  EXPECT_EQ(Marshal<std::uint32_t>::Read(s), 0xCAFEBABEu);
}

}  // namespace
}  // namespace craft
