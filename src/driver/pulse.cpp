// craft pulse: live time-series telemetry over one registry scenario. Runs
// the scenario with the craft-pulse sampler enabled, arms the throughput
// watchdog with craft-prove's static channel bounds, and emits the sampled
// timeline as craft-pulse-v1 JSON and/or OpenMetrics text — the dynamic
// counterpart to craft prove's static report and craft stats' end-of-run
// aggregates.
//
// Exits 1 when the built-in cross-check fails: windowed series must
// reconcile exactly with the craft-stats end-of-run aggregates (base +
// deltas == aggregate at a boundary-aligned horizon; mean windowed rate
// within 1% of the aggregate rate), saturating fault-free runs must keep
// every watchdog silent, and --chaos runs must fire the throughput watchdog.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "analyze/analyze.hpp"
#include "driver/driver.hpp"
#include "kernel/kernel.hpp"
#include "lint/ref_designs.hpp"
#include "pulse/report.hpp"

namespace craft::driver {

namespace {

constexpr const char* kTool = "craft pulse";

constexpr const char kUsage[] =
    "usage: craft pulse [--design NAME] [--workload NAME] [--period PS]\n"
    "                   [--windows N] [--capacity N] [--parallelism N]\n"
    "                   [--progress-windows N] [--chaos] [--seed S]\n"
    "                   [--json[=FILE]] [--openmetrics[=FILE]]\n"
    "                   [--heartbeat[=FILE]] [--list] [--quiet]\n"
    "\n"
    "  --design NAME       noc_chain (default), gals_pipeline, or any SoC\n"
    "                      reference design (soc_gals_2x2, ...)\n"
    "  --workload NAME     SoC designs only: drive the named SoC workload\n"
    "                      (default: first of the six) instead of idling\n"
    "  --period PS         sampling period in picoseconds (default 1000000)\n"
    "  --windows N         run for N whole windows (default 50)\n"
    "  --capacity N        series ring capacity (default 512)\n"
    "  --parallelism N     run under craft-par with N workers (1..64)\n"
    "  --progress-windows N arm the progress watchdog (default: off)\n"
    "  --chaos             inject a seeded latency stall storm; the run\n"
    "                      then MUST trip the throughput watchdog\n"
    "  --seed S            chaos seed (default 1)\n"
    "  --json[=FILE]       emit the craft-pulse-v1 timeline\n"
    "  --openmetrics[=FILE] emit the OpenMetrics exposition\n"
    "  --heartbeat[=FILE]  one liveness line per window (default stderr)\n"
    "  --list              list available designs and exit\n"
    "  --quiet             suppress the human-readable summary\n";

/// Static throughput bounds for the watchdog: one tokens/ps bound per
/// channel, plus the text naming the limiting structure in alerts — the
/// slowest positive-rate cycle when the graph has one, else the tightest
/// channel bound (straight pipelines have no cycles to blame).
std::string ArmFromAnalysis(Simulator& sim, const analyze::Analysis& a) {
  std::map<std::string, double> bounds;
  for (const analyze::ChannelBound& cb : a.channels) {
    if (cb.tokens_per_ps > 0.0) bounds[cb.channel] = cb.tokens_per_ps;
  }
  std::string critical;
  const analyze::CycleBound* worst = nullptr;
  for (const analyze::CycleBound& c : a.cycles) {
    if (c.tokens_per_ps <= 0.0) continue;
    if (worst == nullptr || c.tokens_per_ps < worst->tokens_per_ps) worst = &c;
  }
  if (worst != nullptr) {
    for (std::size_t i = 0; i < worst->nodes.size(); ++i) {
      critical += (i ? " -> " : "") + worst->nodes[i];
    }
  } else {
    const analyze::ChannelBound* tight = nullptr;
    for (const analyze::ChannelBound& cb : a.channels) {
      if (cb.tokens_per_ps <= 0.0) continue;
      if (tight == nullptr || cb.tokens_per_ps < tight->tokens_per_ps)
        tight = &cb;
    }
    if (tight != nullptr) {
      critical = tight->channel + " (" + tight->limited_by + ")";
    }
  }
  sim.pulse().ArmThroughput(bounds, critical);
  return critical;
}

/// Reconciles the sampled series against the end-of-run aggregates. At a
/// boundary-aligned horizon with no Stop() the newest cumulative sample IS
/// the aggregate (exact_expected); a run that Stop()s mid-window may leave
/// unsampled tail events, so only <= is enforced there.
bool CrossCheck(const Simulator& sim, bool exact_expected, bool quiet,
                double* max_rel_err) {
  const PulseRegistry& reg = sim.pulse();
  const double elapsed = static_cast<double>(sim.now());
  const double span = static_cast<double>(reg.windows_total()) *
                      static_cast<double>(reg.config().period_ps);
  *max_rel_err = 0.0;
  bool ok = true;
  for (const auto& [name, s] : reg.channels()) {
    const ChannelStats& agg = sim.stats().channels().at(name);
    const std::uint64_t sampled = s.dequeues.last();
    if (sampled > agg.dequeues || (exact_expected && sampled != agg.dequeues)) {
      std::fprintf(stderr,
                   "%s: channel %s: sampled dequeues %" PRIu64
                   " disagree with aggregate %" PRIu64 "\n",
                   kTool, name.c_str(), sampled, agg.dequeues);
      ok = false;
    }
    // Mean windowed rate (base + all in-window deltas over the sampled span)
    // vs the aggregate end-of-run rate. Only meaningful when the run ended on
    // a boundary: a Stop() mid-window leaves a tail the sampler never saw.
    if (!exact_expected || agg.dequeues == 0 || elapsed <= 0.0 || span <= 0.0)
      continue;
    const double windowed = static_cast<double>(sampled) / span;
    const double aggregate = static_cast<double>(agg.dequeues) / elapsed;
    const double rel = std::abs(windowed - aggregate) / aggregate;
    if (rel > *max_rel_err) *max_rel_err = rel;
    if (rel > 0.01) {
      std::fprintf(stderr,
                   "%s: channel %s: mean windowed rate %.6g deviates "
                   "%.2f%% from aggregate rate %.6g\n",
                   kTool, name.c_str(), windowed, rel * 100.0, aggregate);
      ok = false;
    }
  }
  if (!quiet && ok) {
    std::fprintf(stderr,
                 "%s: cross-check ok: %zu channel series reconcile "
                 "with aggregates (max rate deviation %.4f%%)\n",
                 kTool, reg.channels().size(), *max_rel_err * 100.0);
  }
  return ok;
}

}  // namespace

int Pulse(int argc, char** argv) {
  std::string design_name = "noc_chain";
  std::string workload_name;
  std::uint64_t period_ps = 1'000'000;  // 1 us
  std::uint64_t windows = 50;
  std::uint64_t capacity = 512;
  std::string parallelism_text;
  unsigned progress_windows = 0;
  bool chaos = false;
  std::uint64_t seed = 1;
  bool json = false, openmetrics = false, heartbeat = false, quiet = false;
  std::string json_path, om_path, heartbeat_path;

  cli::Parser p(kTool, kUsage);
  p.Action("--list", [] {
    for (const auto& d : lint::Scenarios()) std::printf("%s\n", d.name.c_str());
  });
  p.Str("--design", &design_name);
  p.Str("--workload", &workload_name);
  p.U64("--period", &period_ps);
  p.U64("--windows", &windows);
  p.U64("--capacity", &capacity);
  p.Str("--parallelism", &parallelism_text);
  p.U32("--progress-windows", &progress_windows);
  p.Flag("--chaos", &chaos);
  p.U64("--seed", &seed);
  p.OptStr("--json", &json, &json_path);
  p.OptStr("--openmetrics", &openmetrics, &om_path);
  p.OptStr("--heartbeat", &heartbeat, &heartbeat_path);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  lint::RunSpec spec;
  if (!parallelism_text.empty() &&
      !ParseParallelism(p, parallelism_text, &spec.parallelism))
    return 2;
  if (period_ps == 0 || windows == 0 || capacity == 0) {
    std::fprintf(stderr, "%s: --period/--windows/--capacity must be positive\n", kTool);
    return 2;
  }

  lint::RefDesign design;
  if (const std::string err = lint::Resolve(design_name, &design, &spec.workload);
      !err.empty()) {
    std::fprintf(stderr, "%s: %s (see --list)\n", kTool, err.c_str());
    return 2;
  }
  const bool soc_run = design.kind == lint::RefDesign::Kind::kSoc;
  if (!workload_name.empty()) {
    if (!soc_run) {
      std::fprintf(stderr, "%s: --workload requires a SoC design\n", kTool);
      return 2;
    }
    if (const std::string err = lint::Resolve(design_name + ":" + workload_name,
                                              &design, &spec.workload);
        !err.empty()) {
      std::fprintf(stderr, "%s: %s\n", kTool, err.c_str());
      return 2;
    }
  }

  std::FILE* hb_file =
      heartbeat ? OpenLog(kTool, heartbeat_path, "w", "heartbeat") : nullptr;
  if (heartbeat && hb_file == nullptr) return 2;

  // Latency-only stall storm: LI-safe (no corruption), but aggressive enough
  // to collapse every saturating channel far below half its static bound,
  // so the throughput watchdog MUST fire.
  FaultPlan storm;
  storm.seed = seed;
  storm.channel_valid_stall_prob = 0.45;
  storm.channel_ready_stall_prob = 0.45;
  storm.crossing_pause_prob = 0.60;
  storm.crossing_pause_max_cycles = 12;
  storm.retimer_delay_prob = 0.20;
  storm.retimer_delay_max_cycles = 4;
  if (chaos) spec.plan = &storm;
  PulseConfig pcfg;
  pcfg.period_ps = period_ps;
  pcfg.capacity = static_cast<std::size_t>(capacity);
  pcfg.progress_windows = progress_windows;
  pcfg.heartbeat = hb_file;
  pcfg.heartbeat_label = design_name;
  spec.arm = [&](Simulator& sim) { sim.pulse().Enable(pcfg); };
  spec.horizon = period_ps * windows;

  // Only the endless streams run at saturation until a boundary-aligned
  // horizon: there the rate watchdog is armed and the series must reconcile
  // exactly. SoC workloads (request/response traffic with idle phases) and
  // the bounded LI pipeline Stop() mid-window and leave the bounds unarmed.
  const bool saturating = design.kind == lint::RefDesign::Kind::kStream;
  std::string critical;
  spec.elaborated = [&](Simulator& sim) {
    if (saturating) critical = ArmFromAnalysis(sim, analyze::Analyze(sim.design_graph()));
  };
  bool ok = true;
  std::string json_doc, om_doc;
  spec.finished = [&](Simulator& sim, soc::SocTop*, const lint::ScenarioRun& run) {
    const PulseRegistry& reg = sim.pulse();
    double max_rel = 0.0;
    ok = CrossCheck(sim, /*exact_expected=*/saturating, quiet, &max_rel);
    // A run that ends before its first window boundary reconciled nothing.
    if (reg.windows_total() == 0) {
      std::fprintf(stderr,
                   "%s: the run ended before the first window; use a shorter "
                   "--period\n",
                   kTool);
      ok = false;
    }
    const std::string workload_note =
        soc_run ? run.name + (run.ok ? " ok" : " FAILED: " + run.error) : "";
    if (!run.ok) {
      std::fprintf(stderr, "%s: workload failed: %s\n", kTool,
                   soc_run ? workload_note.c_str() : run.error.c_str());
      ok = false;
    }
    std::size_t throughput_alerts = 0;
    for (const PulseAlert& a : reg.alerts()) {
      if (a.watchdog == "throughput") ++throughput_alerts;
    }
    if (chaos && saturating && throughput_alerts == 0) {
      std::fprintf(stderr,
                   "%s: chaos stall storm did not trip the throughput "
                   "watchdog (expected a collapse below the static bound)\n",
                   kTool);
      ok = false;
    }
    if (!chaos && !reg.alerts().empty()) {
      std::fprintf(stderr, "%s: %zu watchdog alert(s) on a fault-free run:\n",
                   kTool, reg.alerts().size());
      for (const PulseAlert& a : reg.alerts()) {
        std::fprintf(stderr, "  %s\n", a.message.c_str());
      }
      ok = false;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "%s: design=%s%s%s windows=%" PRIu64 " (dropped %" PRIu64
                   ") period=%" PRIu64 " ps parallelism=%u commits=%" PRIu64
                   " stall_cycles=%" PRIu64 " alerts=%zu\n",
                   kTool, design_name.c_str(), workload_note.empty() ? "" : " workload=",
                   workload_note.c_str(), reg.windows_total(),
                   reg.windows_dropped_idle(), period_ps, sim.parallelism(),
                   reg.kernel().commits.last(), reg.kernel().stall_cycles.last(),
                   reg.alerts().size());
      if (saturating && !critical.empty()) {
        std::fprintf(stderr, "%s: throughput watchdog armed; critical: %s\n",
                     kTool, critical.c_str());
      }
      for (const PulseAlert& a : reg.alerts()) {
        std::fprintf(stderr, "%s: ALERT %s\n", kTool, a.message.c_str());
      }
    }
    if (json) json_doc = pulse::FormatTimelineJson(sim);
    if (openmetrics) om_doc = pulse::FormatOpenMetrics(sim);
  };
  lint::RunScenario(design, spec);

  bool io_ok = true;
  if (json && !WriteDoc(kTool, json_path, json_doc)) io_ok = false;
  if (openmetrics && !WriteDoc(kTool, om_path, om_doc)) io_ok = false;
  if (hb_file != nullptr && hb_file != stderr) std::fclose(hb_file);
  if (!io_ok) return 2;
  return ok ? 0 : 1;
}

}  // namespace craft::driver
