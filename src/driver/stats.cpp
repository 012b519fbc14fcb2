// craft stats: run SoC workloads (paper Fig. 6) with the craft-stats
// telemetry registry enabled and report per-channel, per-GALS-crossing,
// per-process and per-PE utilization metrics — the observability
// counterpart to craft lint's static checks.
//
// Exits 1 if any workload fails its golden check or the emitted metrics
// fail the built-in sanity validation (missing sections, a failed or empty
// run), so a plain ctest invocation doubles as an end-to-end telemetry
// smoke test.
#include <cstdio>
#include <string>
#include <vector>

#include "driver/driver.hpp"
#include "kernel/kernel.hpp"
#include "lint/ref_designs.hpp"

namespace craft::driver {

namespace {

constexpr const char* kTool = "craft stats";

constexpr const char kUsage[] =
    "usage: craft stats [--format text|json|openmetrics] [--json[=FILE]] "
    "[--out=FILE] [--workload NAME]... [--sync] [--quiet]\n"
    "\n"
    "  --format NAME     output format: text (default, human tables), json\n"
    "                    (craft-stats-run-v1), or openmetrics (exposition\n"
    "                    text; runs one workload at a time)\n"
    "  --json            shorthand for --format json to stdout\n"
    "  --json=FILE       ... or to FILE\n"
    "  --out=FILE        write the formatted document to FILE\n"
    "  --workload NAME   run only the named workload(s); default: all six\n"
    "  --sync            single-clock mesh instead of the default GALS mesh\n"
    "  --quiet           suppress the per-workload human-readable tables\n";

/// Minimal structural validation of the emitted metrics document. Not a
/// JSON parser: checks that the required keys exist and that the run
/// completed.
bool Validate(const std::string& metrics_json, const lint::ScenarioRun& run,
              std::string* why) {
  for (const char* key :
       {"\"schema\": \"craft-soc-metrics-v1\"", "\"workload\"", "\"pes\"", "\"noc\"",
        "\"stats\"", "\"schema\": \"craft-stats-v1\"", "\"channels\"", "\"processes\"",
        "\"utilization\""}) {
    if (metrics_json.find(key) == std::string::npos) {
      *why = std::string("missing key ") + key;
      return false;
    }
  }
  if (!run.ok) {
    *why = "workload failed: " + run.error;
    return false;
  }
  if (run.cycles == 0) {
    *why = "workload reported zero cycles";
    return false;
  }
  return true;
}

}  // namespace

int Stats(int argc, char** argv) {
  bool quiet = false;
  bool sync = false;
  bool json = false;
  std::string format = "text";
  std::string json_path;
  std::string out_path;
  std::vector<std::string> names;

  cli::Parser p(kTool, kUsage);
  p.Choice("--format", &format, {"text", "json", "openmetrics"});
  p.OptStr("--json", &json, &json_path);
  p.Str("--out", &out_path);
  p.StrList("--workload", &names);
  p.Flag("--sync", &sync);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (json) {
    format = "json";
    if (!json_path.empty()) out_path = json_path;
  }

  std::vector<soc::Workload> selected;
  if (names.empty()) {
    selected = soc::SixSocTests();
  } else if (const std::string err = lint::SelectWorkloads(names, &selected);
             !err.empty()) {
    return cli::ExitCode(p.UsageError(err));
  }
  // One exposition per scrape: concatenated documents would repeat metric
  // families, which the format forbids.
  if (format == "openmetrics" && selected.size() != 1) {
    std::fprintf(stderr,
                 "%s: --format openmetrics runs one workload at a time (pass "
                 "a single --workload NAME)\n",
                 kTool);
    return 2;
  }

  // With a document on stdout, it must be the only thing there.
  std::FILE* text_out = format != "text" && out_path.empty() ? stderr : stdout;
  lint::RefDesign design;
  std::string unused;
  lint::Resolve(sync ? "soc_sync_2x2" : "soc_gals_2x2", &design, &unused);

  std::string doc = format == "json"
                        ? "{\n  \"schema\": \"craft-stats-run-v1\",\n  \"workloads\": [\n"
                        : "";
  int failures = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    // Each workload gets its own Simulator: the registry is snapshot at
    // elaboration, and per-run isolation keeps the counters attributable.
    std::string metrics_json, table;
    lint::RunSpec spec;
    spec.workload = selected[i].name;
    spec.finished = [&](Simulator& sim, soc::SocTop* soc, const lint::ScenarioRun& run) {
      metrics_json = soc::SocMetricsJson(*soc, run);
      table = stats::FormatTable(sim);
      if (format == "openmetrics") doc = stats::FormatOpenMetrics(sim);
    };
    const lint::ScenarioRun run = lint::RunScenario(design, spec);
    std::string why;
    const bool valid = Validate(metrics_json, run, &why);
    if (!valid) ++failures;
    if (!quiet) {
      std::fprintf(text_out, "==== workload %s: %s (%llu cycles) ====\n%s\n",
                   run.name.c_str(), valid ? "ok" : why.c_str(),
                   static_cast<unsigned long long>(run.cycles), table.c_str());
    } else if (!valid) {
      std::fprintf(text_out, "%s: %s: %s\n", kTool, run.name.c_str(), why.c_str());
    }
    if (format == "json")
      doc += metrics_json + (i + 1 < selected.size() ? ",\n" : "\n");
  }
  std::fprintf(text_out, "%s: %zu workloads, %d failures\n", kTool,
               selected.size(), failures);

  if (format == "json") doc += "  ]\n}\n";
  if (!doc.empty() && !WriteDoc(kTool, out_path, doc)) return 2;
  return failures > 0 ? 1 : 0;
}

}  // namespace craft::driver
