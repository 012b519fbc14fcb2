// craft-pulse tests: ring-buffer fold invariants, boundary-grid determinism
// (fingerprint-identical series and watchdog firings for n = 1/2/4 across
// seeds), and the runtime watchdogs — a seeded chaos-induced stall must trip
// the progress watchdog with a craft-trace backpressure blame chain, and a
// healthy saturating run must keep both watchdogs silent.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "connections/connections.hpp"
#include "gals/async_channel.hpp"
#include "kernel/kernel.hpp"
#include "kernel/report.hpp"
#include "pulse/report.hpp"
#include "trace/trace.hpp"

namespace craft {
namespace {

using namespace craft::literals;

TEST(PulseSeries, RingFoldKeepsCumulativeTotalsExact) {
  PulseSeries s;
  s.Init(4);
  std::uint64_t cumulative = 0;
  for (std::uint64_t w = 1; w <= 100; ++w) {
    cumulative += w * 7;  // arbitrary growing deltas
    s.Append(cumulative);
    // base + sum of kept in-window deltas == newest cumulative, exactly,
    // no matter how many windows the ring evicted.
    std::uint64_t total = s.base();
    for (std::size_t i = 0; i < s.size(); ++i) total += s.DeltaAt(i);
    ASSERT_EQ(total, cumulative) << "after window " << w;
    ASSERT_EQ(s.last(), cumulative);
    ASSERT_LE(s.size(), 4u);
  }
}

// ---------------- three-domain GALS chain (par_test's harness) -----------

struct Producer : Module {
  Producer(Module& parent, Clock& clk, connections::Channel<std::uint32_t>& out_ch)
      : Module(parent, "prod") {
    out.Bind(out_ch);
    Thread("main", clk, [this] {
      for (std::uint32_t i = 0;; ++i) out.Push(i * 2654435761u);
    });
  }
  connections::Out<std::uint32_t> out;
};

struct Relay : Module {
  Relay(Module& parent, Clock& clk, connections::Channel<std::uint32_t>& in_ch,
        connections::Channel<std::uint32_t>& out_ch)
      : Module(parent, "relay") {
    in.Bind(in_ch);
    out.Bind(out_ch);
    Thread("main", clk, [this] {
      for (;;) {
        const std::uint32_t v = in.Pop();
        out.Push(v ^ (v >> 7));
      }
    });
  }
  connections::In<std::uint32_t> in;
  connections::Out<std::uint32_t> out;
};

struct Sink : Module {
  Sink(Module& parent, Clock& clk, connections::Channel<std::uint32_t>& in_ch)
      : Module(parent, "sink") {
    in.Bind(in_ch);
    Thread("main", clk, [this] {
      for (;;) {
        checksum = checksum * 31 + in.Pop();
        ++received;
      }
    });
  }
  connections::In<std::uint32_t> in;
  std::uint64_t checksum = 0;
  unsigned received = 0;
};

struct ChainTop : Module {
  ChainTop(Simulator& sim, Clock& a, Clock& b, Clock& c)
      : Module(sim, "top"),
        ab(*this, "ab", a, b),
        bc(*this, "bc", b, c),
        prod(*this, a, ab.producer_end()),
        relay(*this, b, ab.consumer_end(), bc.producer_end()),
        sink(*this, c, bc.consumer_end()) {}
  gals::AsyncChannel<std::uint32_t> ab;
  gals::AsyncChannel<std::uint32_t> bc;
  Producer prod;
  Relay relay;
  Sink sink;
};

struct ChainRun {
  std::uint64_t pulse_fp = 0;
  std::uint64_t windows = 0;
  std::size_t alerts = 0;
  std::uint64_t checksum = 0;
};

/// One fixed-horizon chain run: endless GALS traffic, pulse sampling every
/// 100 ns, optional seeded chaos latency faults, and a throughput watchdog
/// armed with an impossible bound so it deterministically fires (its alerts
/// are part of the fingerprint). No Stop(): the horizon is boundary-aligned
/// (DESIGN.md §12's fingerprint carve-out).
ChainRun RunChain(unsigned parallelism, std::uint64_t chaos_seed,
                  bool impossible_bound) {
  Simulator sim;
  if (chaos_seed != 0) {
    FaultPlan plan;
    plan.seed = chaos_seed;
    plan.channel_valid_stall_prob = 0.10;
    plan.channel_ready_stall_prob = 0.08;
    plan.crossing_pause_prob = 0.20;
    plan.crossing_pause_max_cycles = 5;
    sim.chaos().Enable(plan);
  }
  PulseConfig cfg;
  cfg.period_ps = 100'000;  // 100 ns = 100 producer cycles
  cfg.capacity = 64;
  sim.pulse().Enable(cfg);
  Clock a(sim, "clk_a", 1000), b(sim, "clk_b", 1300), c(sim, "clk_c", 800);
  ChainTop top(sim, a, b, c);
  if (impossible_bound) {
    // 1 token/ps is ~1000x beyond any 1000+ ps clock: every window is below
    // half the "bound", so the watchdog must fire (deterministically).
    sim.pulse().ArmThroughput({{"top.ab.ingress", 1.0}}, "test-cycle");
  }
  sim.SetParallelism(parallelism);
  sim.RunUntil(2'000'000);  // 20 windows, boundary-aligned
  ChainRun r;
  r.pulse_fp = pulse::Fingerprint(sim);
  r.windows = sim.pulse().windows_total();
  r.alerts = sim.pulse().alerts().size();
  r.checksum = top.sink.checksum;
  return r;
}

TEST(PulseDeterminism, FingerprintInvariantAcrossWorkerCounts) {
  for (const std::uint64_t seed : {0ull, 7ull, 40923ull}) {
    const ChainRun n1 = RunChain(1, seed, /*impossible_bound=*/false);
    const ChainRun n2 = RunChain(2, seed, /*impossible_bound=*/false);
    const ChainRun n4 = RunChain(4, seed, /*impossible_bound=*/false);
    EXPECT_EQ(n1.windows, 20u) << "seed " << seed;
    EXPECT_EQ(n1.pulse_fp, n2.pulse_fp) << "seed " << seed;
    EXPECT_EQ(n1.pulse_fp, n4.pulse_fp) << "seed " << seed;
    EXPECT_EQ(n1.checksum, n4.checksum) << "seed " << seed;
    EXPECT_EQ(n1.alerts, 0u);
  }
  // Different chaos schedules must yield different series (the fingerprint
  // actually covers the sampled values, not just the grid).
  const ChainRun s7 = RunChain(1, 7, false);
  const ChainRun s9 = RunChain(1, 40923, false);
  EXPECT_NE(s7.pulse_fp, s9.pulse_fp);
}

TEST(PulseDeterminism, WatchdogFiringsAreWorkerCountInvariant) {
  for (const std::uint64_t seed : {0ull, 7ull}) {
    const ChainRun n1 = RunChain(1, seed, /*impossible_bound=*/true);
    const ChainRun n4 = RunChain(4, seed, /*impossible_bound=*/true);
    EXPECT_GE(n1.alerts, 1u) << "impossible bound must fire";
    EXPECT_EQ(n1.alerts, n4.alerts) << "seed " << seed;
    EXPECT_EQ(n1.pulse_fp, n4.pulse_fp) << "seed " << seed;
  }
}

// ---------------- progress watchdog: chaos-induced stall ----------------

/// Bounded producer/consumer pair over a plain Buffer channel. A seeded
/// chaos *drop* fault swallows one committed token, so the consumer blocks
/// forever on its final Pop — a livelock the progress watchdog must convert
/// into a deterministic SimError carrying the backpressure blame chain.
struct BoundedPairTb : Module {
  BoundedPairTb(Simulator& sim, Clock& clk, unsigned count)
      : Module(sim, "pair"), ch(*this, "ch", clk, 2) {
    Thread("prod", clk, [this, count] {
      for (unsigned i = 0; i < count; ++i) ch.Push(i);
    });
    Thread("cons", clk, [this, count] {
      for (unsigned i = 0; i < count; ++i) {
        (void)ch.Pop();
        ++received;
      }
    });
  }
  connections::Buffer<std::uint32_t> ch;
  unsigned received = 0;
};

TEST(PulseProgressWatchdog, ChaosDropTripsWatchdogWithBlameChain) {
  Simulator sim;
  FaultPlan plan;
  plan.seed = 11;
  plan.corruptions.push_back(
      CorruptionFault{"pair.ch", 5, CorruptionFault::Kind::kDrop, 0});
  sim.chaos().Enable(plan);
  sim.trace_events().Enable();  // the blame provider reads trace spans
  PulseConfig cfg;
  cfg.period_ps = 100'000;
  cfg.progress_windows = 3;
  sim.pulse().Enable(cfg);
  sim.pulse().set_blame_provider([](Simulator& s) {
    return trace::FormatTable(trace::AttributeBackpressure(s, 5));
  });
  Clock clk(sim, "clk", 1_ns);
  BoundedPairTb tb(sim, clk, 10);

  try {
    sim.RunUntil(5'000'000);
    FAIL() << "expected the progress watchdog to fault the stalled run";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("progress watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("backpressure blame"), std::string::npos) << msg;
  }
  // One deterministic alert, attributed to the watchdog, at the third
  // stalled window (the drop lands early; received stops at 9 < 10).
  ASSERT_EQ(sim.pulse().alerts().size(), 1u);
  EXPECT_EQ(sim.pulse().alerts()[0].watchdog, "progress");
  EXPECT_EQ(tb.received, 9u);
}

TEST(PulseProgressWatchdog, HealthyRunStaysSilent) {
  Simulator sim;
  PulseConfig cfg;
  cfg.period_ps = 100'000;
  cfg.progress_windows = 3;
  sim.pulse().Enable(cfg);
  Clock clk(sim, "clk", 1_ns);
  BoundedPairTb tb(sim, clk, 10);
  // The pair finishes in ~12 cycles, then the sim idles for ~50 windows:
  // fully quiet windows must not advance the streak (no false positive).
  sim.RunUntil(5'000'000);
  EXPECT_TRUE(sim.pulse().alerts().empty());
  EXPECT_EQ(tb.received, 10u);
}

TEST(PulseIdleGap, DroppedWindowsAreAccountedNotRenumbered) {
  Simulator sim;
  PulseConfig cfg;
  // Sampling far faster than the design's only clock (1000 ps windows vs a
  // 100 ns clock): the ~99 boundaries between consecutive edges are all
  // zero-delta, so the sampler materializes only the newest `capacity` per
  // gap and accounts the rest as dropped-idle — without renumbering.
  cfg.period_ps = 1000;
  cfg.capacity = 8;
  sim.pulse().Enable(cfg);
  Clock clk(sim, "clk", 100'000);
  BoundedPairTb tb(sim, clk, 4);
  sim.RunUntil(1'000'000);  // 1000 boundaries, 10 clock edges
  const PulseRegistry& reg = sim.pulse();
  EXPECT_EQ(reg.windows_total(), 1000u);
  EXPECT_GT(reg.windows_dropped_idle(), 0u);
  const PulseWindowRing& wr = reg.windows();
  ASSERT_EQ(wr.size(), 8u);  // ring keeps the newest `capacity`
  EXPECT_EQ(wr.at(7).index, 999u);
  EXPECT_EQ(wr.at(7).t_ps, 1'000'000u);
  // The fold keeps cumulative channel totals exact across the gap.
  const auto& ch = reg.channels().at("pair.ch");
  EXPECT_EQ(ch.dequeues.last(), 4u);
}

TEST(PulseReport, TimelineJsonHasSchemaAndReconciles) {
  Simulator sim;
  PulseConfig cfg;
  cfg.period_ps = 100'000;
  sim.pulse().Enable(cfg);
  Clock a(sim, "clk_a", 1000), b(sim, "clk_b", 1300), c(sim, "clk_c", 800);
  ChainTop top(sim, a, b, c);
  sim.RunUntil(1'000'000);
  const std::string json = pulse::FormatTimelineJson(sim);
  for (const char* key :
       {"\"schema\": \"craft-pulse-v1\"", "\"windows\"", "\"channels\"",
        "\"crossings\"", "\"kernel\"", "\"kernel_n_variant\"",
        "\"processes_n_variant\"", "\"alerts\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Boundary-aligned horizon: the newest cumulative sample equals the
  // end-of-run aggregate for every channel.
  for (const auto& [name, s] : sim.pulse().channels()) {
    EXPECT_EQ(s.dequeues.last(), sim.stats().channels().at(name).dequeues)
        << name;
  }
  const std::string om = pulse::FormatOpenMetrics(sim);
  EXPECT_NE(om.find("craft_pulse_windows_total"), std::string::npos);
  EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6);
}

#ifdef CRAFT_BIN
// Out-of-range --parallelism is a usage error (exit 2) in every verb that
// takes it: pulse, cover run and farm share one 1..64 range check.
TEST(PulseCli, ParallelismOutOfRangeIsUsageError) {
  for (const char* verb : {" pulse --quiet", " cover run", " farm --quiet"}) {
    for (const char* n : {"0", "65"}) {
      const int st = std::system((std::string(CRAFT_BIN) + verb +
                                  " --parallelism " + n + " 2>/dev/null")
                                     .c_str());
      ASSERT_TRUE(WIFEXITED(st)) << verb << " " << n;
      EXPECT_EQ(WEXITSTATUS(st), 2) << verb << " " << n;
    }
  }
}

// The bounded LI pipeline drains well inside the default 1 us window: a run
// that samples no window has reconciled nothing and fails; a shorter period
// samples it.
TEST(PulseCli, RunWithoutAWindowFails) {
  const std::string base = std::string(CRAFT_BIN) + " pulse --quiet --design li_pipeline";
  int st = std::system((base + " 2>/dev/null").c_str());
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 1);
  st = std::system((base + " --period 10000").c_str());
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 0);
}
#endif

}  // namespace
}  // namespace craft
