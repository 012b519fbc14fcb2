// Heap-allocation test of the scheduler loop. A counting global operator new
// (this binary only) proves that steady-state edges, deltas and wakes of
// blocked and polling threads allocate nothing: every scheduler list keeps
// its capacity from one edge to the next.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "connections/connections.hpp"
#include "gals/pausible_fifo.hpp"
#include "kernel/kernel.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacement pair below is malloc/free throughout; GCC cannot see that
// the pointers reaching free() came from this operator new.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace craft {
namespace {

using namespace craft::literals;

// Blocked: a Buffer pop that never gets a token (retried in place at the
// edge), a plain wait_until that never holds (dispatched every edge) and
// both sides of an idle pausible FIFO crossing. Polling: a wait() loop and
// a PopNB poller, on the clock the rest of the design uses, and an Event
// ping-pong that wakes a thread every other edge.
TEST(SchedulerAllocations, NoneOverTenThousandEdgesOfBlockedAndPollingThreads) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Clock other(sim, "other", 1'300);
  Module top(sim, "top");
  connections::Buffer<int> idle(top, "idle", clk, 2);
  connections::Buffer<int> polled(top, "polled", clk, 2);
  connections::Buffer<int> cross_in(top, "cross_in", clk, 2);
  connections::Buffer<int> cross_out(top, "cross_out", other, 2);
  gals::PausibleBisyncFifo<int> fifo(top, "fifo", clk, other);
  fifo.in(cross_in);
  fifo.out(cross_out);
  Event ping(sim);
  struct Tb : Module {
    std::uint64_t polls = 0;
    Tb(Module& p, Clock& clk, Clock& other, connections::Buffer<int>& idle,
       connections::Buffer<int>& polled, connections::Buffer<int>& cross_out, Event& ping)
        : Module(p, "tb") {
      Thread("blocked_pop", clk, [&idle] { idle.Pop(); });
      Thread("blocked_cond", clk, [] { wait_until([] { return false; }); });
      Thread("blocked_far", other, [&cross_out] { cross_out.Pop(); });
      Thread("waiter", clk, [this] {
        for (;;) {
          wait();
          ++polls;
        }
      });
      Thread("poller", clk, [this, &polled] {
        for (;;) {
          int v = 0;
          if (!polled.PopNB(v)) ++polls;
          wait();
        }
      });
      Thread("pinger", clk, [&ping] {
        for (;;) {
          wait(2);
          ping.Notify();
        }
      });
      Thread("ponger", clk, [this, &ping] {
        for (;;) {
          wait(ping);
          ++polls;
        }
      });
    }
  } tb(top, clk, other, idle, polled, cross_out, ping);

  sim.Run(100_ns);  // every list reaches its steady-state size
  const std::uint64_t polls_before = tb.polls;
  g_counting = true;
  sim.Run(10_us);
  g_counting = false;
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(clk.cycle(), 10'100u);
  EXPECT_GT(tb.polls - polls_before, 20'000u);  // the pollers kept polling
}

}  // namespace
}  // namespace craft
