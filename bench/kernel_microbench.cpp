// google-benchmark microbenchmarks of the simulation substrate: raw kernel
// event throughput, channel transfer rates in both Connections models, and
// MatchLib component hot paths. These quantify the mechanisms behind the
// Fig. 6 wall-clock gap.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "connections/connections.hpp"
#include "kernel/kernel.hpp"
#include "matchlib/arbiter.hpp"
#include "matchlib/arbitrated_crossbar.hpp"
#include "matchlib/fifo.hpp"
#include "matchlib/float.hpp"

namespace craft {
namespace {

using namespace craft::literals;

// The overhead comparisons below difference pairs of registrations that run
// minutes apart, so single-shot timings confound instrumentation cost with
// host load drift. Each compared benchmark runs 3 repetitions and reports
// through its minimum: noise only ever adds time, so the min is the robust
// estimator of the true cost on a loaded host.
void RepeatedMin(benchmark::internal::Benchmark* b) {
  b->Repetitions(3)->ReportAggregatesOnly(true)->ComputeStatistics(
      "min", [](const std::vector<double>& v) {
        return *std::min_element(v.begin(), v.end());
      });
}

void BM_FiberSwitch(benchmark::State& state) {
  Fiber f([] {
    for (;;) Fiber::Suspend();
  });
  for (auto _ : state) f.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_ClockOnlySimulation(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    state.ResumeTiming();
    sim.Run(10_us);  // 10k cycles
  }
}
BENCHMARK(BM_ClockOnlySimulation);

// A thread blocked in wait_until for 10k edges of an otherwise idle clock:
// every edge dispatches it for one failed try of its condition. Per edge,
// this is the cost of one blocked retry plus one clock edge
// (BM_ClockOnlySimulation / 10k is the edge alone).
void BM_BlockedRetry(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    struct Tb : Module {
      Tb(Module& p, Clock& clk) : Module(p, "tb") {
        Thread("blocked", clk,
               [&clk] { wait_until([&clk] { return clk.cycle() > 10'000; }); });
      }
    } tb(top, clk);
    state.ResumeTiming();
    sim.Run(10_us);  // 10k cycles
  }
}
BENCHMARK(BM_BlockedRetry)->Apply(RepeatedMin);

// A Buffer pop blocked for 10k edges of an otherwise idle clock. The edge
// tries the pop's readiness test in place of a dispatch, so a blocked edge
// costs one test plus the edge; the bench JSON reports it per edge
// (blocked_pop_ns_per_edge), next to BM_BlockedRetry's. BM_BlockedPopStats
// is the same pop with the stats registry on, whose probe counts each
// failed test as a stall cycle (blocked_pop_stats_ns_per_edge).
void BlockedPop(benchmark::State& state, bool stats) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    if (stats) sim.stats().Enable();
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    connections::Buffer<int> ch(top, "ch", clk, 2);
    struct Tb : Module {
      Tb(Module& p, Clock& clk, connections::Buffer<int>& ch) : Module(p, "tb") {
        Thread("blocked", clk, [&ch] { benchmark::DoNotOptimize(ch.Pop()); });
      }
    } tb(top, clk, ch);
    state.ResumeTiming();
    sim.Run(10_us);  // 10k cycles
  }
}
void BM_BlockedPop(benchmark::State& state) { BlockedPop(state, false); }
BENCHMARK(BM_BlockedPop)->Apply(RepeatedMin);
void BM_BlockedPopStats(benchmark::State& state) { BlockedPop(state, true); }
BENCHMARK(BM_BlockedPopStats)->Apply(RepeatedMin);

// kStats / kTrace compare the instrumentation overhead: the disabled
// configuration must stay within noise (<5%) of the uninstrumented baseline
// — both registries hand out nullptr and every site is one never-taken
// branch — while the enabled configurations pay for counter updates,
// per-dispatch wall clocks, and span-event recording respectively. The
// "rerun" registration repeats the disabled configuration verbatim so the
// report can show what a 0% overhead actually measures as on this host
// (run-to-run noise), which is the honest bound on the disabled cost.
// kPulsePeriodPs > 0 additionally enables the craft-pulse sampler at that
// period; with it at 0 (every other configuration) the pulse registry stays
// disabled, so the rerun noise floor also bounds pulse's disabled cost (its
// scheduler hook is one never-taken compare, baked into the baseline).
template <SimMode kMode, bool kStats = false, bool kTrace = false,
          std::uint64_t kPulsePeriodPs = 0, bool kCover = false>
void BM_ChannelTransfers(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    sim.set_mode(kMode);
    if (kStats) sim.stats().Enable();
    if (kTrace) sim.trace_events().Enable();
    if constexpr (kCover) sim.cover().Enable();
    if constexpr (kPulsePeriodPs > 0) {
      PulseConfig pcfg;
      pcfg.period_ps = kPulsePeriodPs;
      pcfg.throughput_windows = 0;
      sim.pulse().Enable(pcfg);
    }
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    connections::Buffer<int> ch(top, "ch", clk, 4);
    struct Tb : Module {
      Tb(Module& p, Clock& clk, connections::Buffer<int>& ch) : Module(p, "tb") {
        Thread("prod", clk, [&ch] {
          for (int i = 0; i < 2000; ++i) ch.Push(i);
        });
        Thread("cons", clk, [&ch] {
          for (int i = 0; i < 2000; ++i) benchmark::DoNotOptimize(ch.Pop());
          Simulator::Current().Stop();
        });
      }
    } tb(top, clk, ch);
    state.ResumeTiming();
    sim.Run(100_us);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate>)->Name("BM_ChannelTransfers/sim_accurate")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSignalAccurate>)
    ->Name("BM_ChannelTransfers/signal_accurate")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate, true>)
    ->Name("BM_ChannelTransfers/sim_accurate_stats")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSignalAccurate, true>)
    ->Name("BM_ChannelTransfers/signal_accurate_stats")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate, false, true>)
    ->Name("BM_ChannelTransfers/sim_accurate_trace")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSignalAccurate, false, true>)
    ->Name("BM_ChannelTransfers/signal_accurate_trace")->Apply(RepeatedMin);
// craft-pulse sampling cost at a 1k-cycle and a 10k-cycle period (1 ns
// clock). The 10k-cycle figure is the deployment guidance in README.md and
// must stay under 2% (pulse samples piggyback on stats, so these enable
// both registries; overhead is reported relative to stats-only).
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate, true, false, 1'000'000>)
    ->Name("BM_ChannelTransfers/sim_accurate_pulse1k")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate, true, false, 10'000'000>)
    ->Name("BM_ChannelTransfers/sim_accurate_pulse10k")->Apply(RepeatedMin);
// craft-cover occupancy-band / framing bin cost. Cover piggybacks on stats
// (Enable() implies the stats registry), so its marginal overhead is
// measured against the stats-enabled configuration of the same mode.
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate, true, false, 0, true>)
    ->Name("BM_ChannelTransfers/sim_accurate_cover")->Apply(RepeatedMin);
BENCHMARK(BM_ChannelTransfers<SimMode::kSignalAccurate, true, false, 0, true>)
    ->Name("BM_ChannelTransfers/signal_accurate_cover")->Apply(RepeatedMin);
// Identical to the baseline registration: with every registry disabled the
// channel's probe registration returns nullptr, so this delta is the direct
// measurement of cover's disabled cost (a never-taken branch per hook).
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate>)
    ->Name("BM_ChannelTransfers/sim_accurate_cover_disabled")->Apply(RepeatedMin);
// Identical to the baseline registration: its delta against the baseline is
// pure run-to-run noise, which bounds the cost of the disabled registries.
BENCHMARK(BM_ChannelTransfers<SimMode::kSimAccurate>)
    ->Name("BM_ChannelTransfers/sim_accurate_rerun")->Apply(RepeatedMin);

void BM_ArbiterPick(benchmark::State& state) {
  matchlib::Arbiter arb(16);
  Rng rng(3);
  std::uint64_t req = rng.Next() & 0xFFFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Pick(req | 1));
    req = (req * 2862933555777941757ull) + 3037000493ull;
    req &= 0xFFFF;
  }
}
BENCHMARK(BM_ArbiterPick);

void BM_ArbitratedCrossbarCycle(benchmark::State& state) {
  matchlib::ArbitratedCrossbar<std::uint32_t, 8, 8, 4> xbar;
  Rng rng(5);
  std::uint32_t v = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < 8; ++i) {
      if (xbar.CanAccept(i)) xbar.Push(i, v++, rng.NextBelow(8));
    }
    benchmark::DoNotOptimize(xbar.Arbitrate());
  }
}
BENCHMARK(BM_ArbitratedCrossbarCycle);

void BM_SoftFloatMulAdd(benchmark::State& state) {
  using matchlib::Float32;
  Float32 a = Float32::FromFloat(1.25f);
  Float32 b = Float32::FromFloat(0.75f);
  Float32 c = Float32::FromFloat(0.001f);
  for (auto _ : state) {
    c = FpMulAdd(a, b, c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SoftFloatMulAdd);

// Captures per-benchmark real time so main() can derive instrumentation
// overhead percentages after the normal console report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      if (r.run_type == Run::RT_Aggregate) {
        // Repeated benchmarks report through their min (see RepeatedMin): it
        // is stored under the base name so the overhead math below is
        // insensitive to scheduling spikes on a loaded host.
        if (r.aggregate_name == "min") {
          std::string name = r.run_name.str();
          const auto reps = name.find("/repeats:");
          if (reps != std::string::npos) name.erase(reps);
          ns_per_iter_[name] = r.GetAdjustedRealTime();
        }
      } else {
        ns_per_iter_[r.benchmark_name()] = r.GetAdjustedRealTime();
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double Get(const std::string& name) const {
    auto it = ns_per_iter_.find(name);
    return it == ns_per_iter_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> ns_per_iter_;
};

}  // namespace
}  // namespace craft

int main(int argc, char** argv) {
  // Random interleaving shuffles repetitions across the whole suite, so the
  // min-of-3 aggregates differenced below sample the same load epochs;
  // without it each compared pair runs minutes apart and the delta confounds
  // instrumentation cost with host load drift.
  std::vector<char*> args;
  args.push_back(argv[0]);
  static char kInterleave[] = "--benchmark_enable_random_interleaving=true";
  args.push_back(kInterleave);
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int eff_argc = static_cast<int>(args.size());
  benchmark::Initialize(&eff_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(eff_argc, args.data())) return 1;
  craft::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Overhead report for the channel-transfer benchmark, the one path where
  // every instrumentation hook (channel stats + trace spans) is on the
  // critical loop. Percentages are relative to the uninstrumented baseline
  // of the same Connections mode; the rerun delta shows the measurement
  // noise floor that the "disabled" configurations must stay inside. A
  // ratio whose two sides did not both run (a --benchmark_filter run) is
  // unmeasured: it prints NOT RUN, its gate is not judged, and its JSON
  // keys are left out.
  const auto pct = [&](const std::string& num,
                       const std::string& den) -> std::optional<double> {
    const double b = reporter.Get(den), v = reporter.Get(num);
    if (b <= 0.0 || v <= 0.0) return std::nullopt;
    return (v - b) / b * 100.0;
  };
  const auto noise = pct("BM_ChannelTransfers/sim_accurate_rerun",
                         "BM_ChannelTransfers/sim_accurate");
  const auto sim_stats = pct("BM_ChannelTransfers/sim_accurate_stats",
                             "BM_ChannelTransfers/sim_accurate");
  const auto sig_stats = pct("BM_ChannelTransfers/signal_accurate_stats",
                             "BM_ChannelTransfers/signal_accurate");
  const auto sim_trace = pct("BM_ChannelTransfers/sim_accurate_trace",
                             "BM_ChannelTransfers/sim_accurate");
  const auto sig_trace = pct("BM_ChannelTransfers/signal_accurate_trace",
                             "BM_ChannelTransfers/signal_accurate");
  // Pulse sampling rides on top of stats, so its marginal cost is measured
  // against the stats-enabled configuration.
  const auto pulse_1k = pct("BM_ChannelTransfers/sim_accurate_pulse1k",
                            "BM_ChannelTransfers/sim_accurate_stats");
  const auto pulse_10k = pct("BM_ChannelTransfers/sim_accurate_pulse10k",
                             "BM_ChannelTransfers/sim_accurate_stats");
  // craft-cover: marginal cost over stats (enabled) and the direct
  // disabled-cost measurement against the baseline.
  const auto sim_cover = pct("BM_ChannelTransfers/sim_accurate_cover",
                             "BM_ChannelTransfers/sim_accurate_stats");
  const auto sig_cover = pct("BM_ChannelTransfers/signal_accurate_cover",
                             "BM_ChannelTransfers/signal_accurate_stats");
  const auto cover_disabled = pct("BM_ChannelTransfers/sim_accurate_cover_disabled",
                                  "BM_ChannelTransfers/sim_accurate");

  // A gate is judged only when every ratio it reads was measured; the
  // noise-widened bounds also need the noise floor.
  struct Gate {
    const char* json_key;
    std::optional<bool> ok;  // nullopt: NOT RUN
  };
  const auto judge = [](std::initializer_list<std::optional<double>> in,
                        auto pass) -> std::optional<bool> {
    for (const auto& v : in) {
      if (!v) return std::nullopt;
    }
    return pass();
  };
  // With all registries disabled this binary IS the baseline, so the
  // disabled overhead (stats, trace, and pulse's scheduler compare alike)
  // manifests as the rerun delta (pure noise). |noise| <= 5% is the
  // acceptance bound for instrumentation-disabled overhead.
  const Gate disabled{"disabled_overhead_within_5pct",
                      judge({noise}, [&] { return std::fabs(*noise) <= 5.0; })};
  // Deployment guidance bound: sampling every >= 10k cycles must stay under
  // 2% (widened to the measured noise floor when a noisy host exceeds it).
  const Gate pulse_gate{"pulse_10k_within_2pct", judge({pulse_10k, noise}, [&] {
                          return *pulse_10k <= std::max(2.0, std::fabs(*noise) + 1.0);
                        })};
  // Cover bounds: disabled must stay within 0.5% (widened to the measured
  // noise floor on noisy hosts — the honest lower limit of what this harness
  // can resolve); enabled must stay within 5% of the stats configuration.
  const Gate cover_disabled_gate{
      "cover_disabled_within_half_pct", judge({cover_disabled, noise}, [&] {
        return std::fabs(*cover_disabled) <= std::max(0.5, std::fabs(*noise) + 0.5);
      })};
  const Gate cover_enabled_gate{"cover_enabled_within_5pct", judge({sim_cover, noise}, [&] {
                                  return *sim_cover <= std::max(5.0, std::fabs(*noise) + 1.0);
                                })};

  const auto value = [](const std::optional<double>& v) {
    char buf[32];
    if (v) {
      std::snprintf(buf, sizeof buf, "%+6.2f%%", *v);
    } else {
      std::snprintf(buf, sizeof buf, "NOT RUN");
    }
    return std::string(buf);
  };
  const auto verdict = [](const Gate& g) {
    return !g.ok ? "NOT RUN" : *g.ok ? "PASS" : "FAIL";
  };
  std::printf("\n--- instrumentation overhead (BM_ChannelTransfers) ---\n");
  std::printf("disabled rerun delta (noise floor):      %s  [tracing/stats/pulse"
              " disabled overhead, bound <= 5%%: %s]\n",
              value(noise).c_str(), verdict(disabled));
  std::printf("stats enabled, sim-accurate:             %s\n", value(sim_stats).c_str());
  std::printf("stats enabled, signal-accurate:          %s\n", value(sig_stats).c_str());
  std::printf("trace enabled, sim-accurate:             %s\n", value(sim_trace).c_str());
  std::printf("trace enabled, signal-accurate:          %s\n", value(sig_trace).c_str());
  std::printf("pulse @ 1k-cycle period (vs stats):      %s\n", value(pulse_1k).c_str());
  std::printf("pulse @ 10k-cycle period (vs stats):     %s  [bound <= 2%%: %s]\n",
              value(pulse_10k).c_str(), verdict(pulse_gate));
  std::printf("cover disabled (vs baseline):            %s  [bound <= 0.5%%: %s]\n",
              value(cover_disabled).c_str(), verdict(cover_disabled_gate));
  std::printf("cover enabled, sim-accurate (vs stats):  %s  [bound <= 5%%: %s]\n",
              value(sim_cover).c_str(), verdict(cover_enabled_gate));
  std::printf("cover enabled, signal-accurate (vs stats): %s\n", value(sig_cover).c_str());

  namespace bj = craft::bench;
  std::vector<bj::Metric> metrics;
  const auto num = [&](const char* key, const std::optional<double>& v) {
    if (v) metrics.push_back(bj::Num(key, *v));
  };
  const auto gate = [&](const Gate& g) {
    if (g.ok) metrics.push_back(bj::Bool(g.json_key, *g.ok));
  };
  const double base_ns = reporter.Get("BM_ChannelTransfers/sim_accurate");
  metrics.push_back(bj::Num("channel_transfers_sim_accurate_ns_per_iter", base_ns));
  metrics.push_back(bj::Num("channel_transfers_signal_accurate_ns_per_iter",
                            reporter.Get("BM_ChannelTransfers/signal_accurate")));
  metrics.push_back(bj::Num("transfers_per_sec_sim_accurate",
                            base_ns > 0.0 ? 2000.0 / (base_ns * 1e-9) : 0.0));
  num("disabled_overhead_noise_pct", noise);
  gate(disabled);
  num("stats_enabled_overhead_pct_sim_accurate", sim_stats);
  num("stats_enabled_overhead_pct_signal_accurate", sig_stats);
  num("trace_enabled_overhead_pct_sim_accurate", sim_trace);
  num("trace_enabled_overhead_pct_signal_accurate", sig_trace);
  num("pulse_1k_cycle_overhead_pct", pulse_1k);
  num("pulse_10k_cycle_overhead_pct", pulse_10k);
  gate(pulse_gate);
  num("cover_disabled_overhead_pct", cover_disabled);
  gate(cover_disabled_gate);
  num("cover_enabled_overhead_pct_sim_accurate", sim_cover);
  num("cover_enabled_overhead_pct_signal_accurate", sig_cover);
  gate(cover_enabled_gate);
  metrics.push_back(bj::Num("fiber_switch_ns", reporter.Get("BM_FiberSwitch")));
  metrics.push_back(
      bj::Num("blocked_retry_ns_per_edge", reporter.Get("BM_BlockedRetry") / 10'000.0));
  metrics.push_back(
      bj::Num("blocked_pop_ns_per_edge", reporter.Get("BM_BlockedPop") / 10'000.0));
  metrics.push_back(bj::Num("blocked_pop_stats_ns_per_edge",
                            reporter.Get("BM_BlockedPopStats") / 10'000.0));
  metrics.push_back(bj::Num("softfloat_muladd_ns", reporter.Get("BM_SoftFloatMulAdd")));
  bj::EmitJson("kernel_microbench", metrics);
  benchmark::Shutdown();

  // Only judged gates decide the exit status; a NOT RUN gate is counted as
  // such, never as a pass.
  int pass = 0, fail = 0, not_run = 0;
  for (const Gate* g : {&disabled, &pulse_gate, &cover_disabled_gate, &cover_enabled_gate}) {
    ++(!g->ok ? not_run : *g->ok ? pass : fail);
  }
  std::printf("gates: %d PASS, %d FAIL, %d NOT RUN\n", pass, fail, not_run);
  return fail == 0 ? 0 : 1;
}
