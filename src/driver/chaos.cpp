// craft chaos: deterministic fault-injection campaigns over the LI pipeline
// and the reference designs (DESIGN.md §11) — the dynamic counterpart to
// craft lint / craft prove's static checks. Latency-only campaigns must
// leave outputs bit-identical (LI-invariance); corruption campaigns must be
// detected, never silent.
//
// Exits 1 on any oracle failure (LI-invariance break, nondeterminism,
// undetected corruption), 2 on usage and I/O errors, so a plain ctest
// invocation doubles as the fault-injection regression suite.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "cover/cover.hpp"
#include "driver/driver.hpp"
#include "kernel/simulator.hpp"
#include "lint/ref_designs.hpp"

namespace craft::driver {

namespace {

constexpr const char* kTool = "craft chaos";

constexpr const char kUsage[] =
    "usage: craft chaos [--seed N] [--quick|--full] [--trials N] "
    "[--messages N] [--workload NAME]... [--json[=FILE]] "
    "[--heartbeat[=FILE]] [--cover=FILE] [--pulse-period PS] "
    "[--progress-windows N] [--quiet]\n"
    "\n"
    "  --seed N          campaign seed (default 1); same seed => same report\n"
    "  --quick           smoke scale (CI): pipeline + one SoC workload\n"
    "  --full            nightly scale: more trials, designs and workloads\n"
    "  --trials N        corruption trial count override\n"
    "  --messages N      pipeline harness traffic per run (default 64)\n"
    "  --workload NAME   SoC workload(s) to campaign over (default vecmul,\n"
    "                    +dot and dma_copy at --full)\n"
    "  --json            print the craft-chaos-v1 report to stdout\n"
    "  --json=FILE       ... or write it to FILE\n"
    "  --heartbeat       craft-pulse liveness line per window, to stderr\n"
    "  --heartbeat=FILE  ... or appended to FILE (the nightly campaign log)\n"
    "  --cover=FILE      collect functional coverage across every campaign\n"
    "                    run and write one craft-cover-v1 database to FILE\n"
    "  --pulse-period PS heartbeat sampling period (default 10000000 = 10us)\n"
    "  --progress-windows N\n"
    "                    arm the progress watchdog: a run with no channel\n"
    "                    commits but growing stall counts for N consecutive\n"
    "                    windows faults with a craft-trace blame chain\n"
    "  --quiet           suppress the human-readable report\n";

}  // namespace

int Chaos(int argc, char** argv) {
  using chaos::CampaignConfig;
  CampaignConfig config;
  bool json = false, quiet = false, heartbeat = false, quick = false, full = false;
  std::string json_path, heartbeat_path, cover_path;

  cli::Parser p(kTool, kUsage);
  p.U64("--seed", &config.seed);
  p.Flag("--quick", &quick);
  p.Flag("--full", &full);
  p.U32("--trials", &config.trials);
  p.U32("--messages", &config.messages);
  p.StrList("--workload", &config.workloads);
  p.OptStr("--json", &json, &json_path);
  p.OptStr("--heartbeat", &heartbeat, &heartbeat_path);
  p.Str("--cover", &cover_path);
  p.U64("--pulse-period", &config.pulse.period_ps);
  p.U32("--progress-windows", &config.pulse.progress_windows);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (quick) config.scale = CampaignConfig::Scale::kQuick;
  if (full) config.scale = CampaignConfig::Scale::kFull;
  for (const std::string& w : config.workloads) {
    std::vector<soc::Workload> found;
    if (w == "all" || !lint::SelectWorkloads({w}, &found).empty())
      return cli::ExitCode(p.UsageError("unknown workload '" + w + "'"));
  }

  std::FILE* hb_file = nullptr;
  if (heartbeat) {
    hb_file = OpenLog(kTool, heartbeat_path, "a", "heartbeat");
    if (hb_file == nullptr) return 2;
    config.pulse.heartbeat = hb_file;
  }
  // A heartbeat or a watchdog without a period samples every 10 us.
  if ((heartbeat || config.pulse.progress_windows > 0) && config.pulse.period_ps == 0)
    config.pulse.period_ps = 10'000'000;

  // Coverage piggy-backs on the campaign via the observer hooks: the cover
  // registry is armed before each run's elaboration and harvested after it,
  // one run-id per design-qualified campaign label.
  cover::Database cover_db;
  if (!cover_path.empty()) {
    config.hooks.pre_elaborate = [](Simulator& sim) { sim.cover().Enable(); };
    config.hooks.post_run = [&config, &cover_db](Simulator& sim,
                                                 const std::string& label) {
      cover::RunInfo r;
      r.id = "chaos/s" + std::to_string(config.seed) + "/" + label;
      r.design = label;
      r.seed = config.seed;
      r.chaos = "campaign";
      r.horizon_ps = sim.now();
      // Campaign labels encode the parallelism level ("latency-n4").
      if (const auto pos = label.rfind("-n"); pos != std::string::npos) {
        const unsigned long v = std::strtoul(label.c_str() + pos + 2, nullptr, 10);
        if (v >= 1 && v <= 64) r.parallelism = static_cast<unsigned>(v);
      }
      cover::Collect(sim, r, &cover_db);
    };
  }

  const auto results = chaos::RunCampaigns(config);
  const unsigned failures = chaos::FailureCount(results);
  if (hb_file != nullptr && hb_file != stderr) std::fclose(hb_file);

  if (!cover_path.empty() && !WriteDoc(kTool, cover_path, cover::FormatJson(cover_db)))
    return 2;

  // With --json to stdout, the JSON document must be the only thing there.
  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  if (!quiet) {
    std::fputs(chaos::FormatText(config, results).c_str(), text_out);
  } else if (failures > 0) {
    for (const auto& c : results)
      for (const auto& f : c.failures)
        std::fprintf(text_out, "%s: %s/%s: %s\n", kTool, c.design.c_str(),
                     c.mode.c_str(), f.c_str());
  }
  if (json && !WriteDoc(kTool, json_path, chaos::FormatJson(config, results)))
    return 2;
  return failures > 0 ? 1 : 0;
}

}  // namespace craft::driver
