// Figure 6: "Performance accuracy of SoC-level tests" — for six SoC-level
// workloads on the prototype SoC, the wall-clock speedup of the sim-accurate
// SystemC model over RTL simulation (Y axis, paper: 20-30x) against the
// relative elapsed-cycle error (X axis, paper: < 3%).
//
// "RTL" here is the RTL-cosim emulation mode: the same SoC with (a) the
// per-cycle signal-evaluation load of a netlist simulator and (b) the
// pipeline-drain latencies HLS inserts (the cycle-error source the paper
// identifies: "unit pipeline latencies not included in the SystemC models").
//
// Besides the table, writes BENCH_fig6_perf_accuracy.json (craft-bench-v1):
// per test the fast and RTL cycles, walls and speedup, the fast run's
// process dispatches per cycle, and the worst |cycle error| over all tests.
// The dispatch count is deterministic and does not depend on which
// registries are on, so CI gates it.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "soc/workloads.hpp"

namespace craft::soc {
namespace {

using namespace craft::literals;
using Clk = std::chrono::steady_clock;

struct Measurement {
  std::uint64_t cycles = 0;
  double wall_seconds = 0.0;
  std::uint64_t dispatches = 0;
};

Measurement Measure(const Workload& w, bool rtl_cosim) {
  Simulator sim;
  SocConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.gals = true;
  cfg.rtl_cosim = rtl_cosim;
  SocTop soc(sim, cfg);
  const auto t0 = Clk::now();
  const WorkloadRun r = RunWorkload(soc, w, 500_ms);
  const auto t1 = Clk::now();
  CRAFT_ASSERT(r.ok, "fig6 workload " << r.name << " failed: " << r.error);
  return {r.cycles, std::chrono::duration<double>(t1 - t0).count(), sim.dispatch_count()};
}

}  // namespace
}  // namespace craft::soc

int main() {
  using namespace craft::soc;
  namespace bj = craft::bench;
  std::printf("Figure 6: performance accuracy of SoC-level tests\n");
  std::printf("(paper: 20-30x wall-clock speedup at < 3%% elapsed-cycle error)\n\n");
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "test", "fast cycles", "rtl cycles",
              "fast wall s", "rtl wall s", "speedup");
  double worst_err = 0.0, min_speedup = 1e9, max_speedup = 0.0;
  std::vector<bj::Metric> metrics{bj::Num("hw_threads", std::thread::hardware_concurrency())};
  for (const Workload& w : SixSocTests()) {
    const Measurement fast = Measure(w, /*rtl_cosim=*/false);
    const Measurement rtl = Measure(w, /*rtl_cosim=*/true);
    const double speedup = rtl.wall_seconds / fast.wall_seconds;
    const double err = 100.0 *
                       (static_cast<double>(rtl.cycles) - static_cast<double>(fast.cycles)) /
                       static_cast<double>(rtl.cycles);
    std::printf("%-10s %12llu %12llu %12.4f %12.4f %9.1fx  cycle err %+.2f%%\n",
                w.name.c_str(), static_cast<unsigned long long>(fast.cycles),
                static_cast<unsigned long long>(rtl.cycles), fast.wall_seconds,
                rtl.wall_seconds, speedup, err);
    worst_err = std::max(worst_err, std::abs(err));
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
    metrics.push_back(bj::Num(w.name + ".fast_cycles", fast.cycles));
    metrics.push_back(bj::Num(w.name + ".rtl_cycles", rtl.cycles));
    metrics.push_back(bj::Num(w.name + ".fast_wall_s", fast.wall_seconds));
    metrics.push_back(bj::Num(w.name + ".rtl_wall_s", rtl.wall_seconds));
    metrics.push_back(bj::Num(w.name + ".speedup", speedup));
    metrics.push_back(bj::Num(w.name + ".fast_dispatches_per_cycle",
                              static_cast<double>(fast.dispatches) /
                                  static_cast<double>(fast.cycles)));
  }
  std::printf("\nspeedup range: %.1fx .. %.1fx   worst |cycle error|: %.2f%%\n",
              min_speedup, max_speedup, worst_err);
  metrics.push_back(bj::Num("worst_cycle_err_pct", worst_err));
  bj::EmitJson("fig6_perf_accuracy", metrics);
  return 0;
}
