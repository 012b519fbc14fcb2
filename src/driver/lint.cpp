// craft lint / craft prove: the elaboration-time verbs. Both elaborate the
// reference designs into fresh simulators (never Run()) and report:
//
//  * lint runs the full design-rule suite over each design and every HLS
//    reference design, and exits 1 on findings at or above --fail-on
//    (default: error), so it can gate CI while still publishing warnings;
//  * prove runs the quantitative static analyses (capacity-aware deadlock
//    feasibility, cycle-ratio throughput bounds, buffer-sizing and GALS
//    rate-matching diagnostics) and exits 1 on a provable deadlock.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "driver/driver.hpp"
#include "hls/designs.hpp"
#include "hls/scheduler.hpp"
#include "kernel/kernel.hpp"
#include "lint/lint.hpp"
#include "lint/ref_designs.hpp"

namespace craft::driver {

namespace {

constexpr const char kLintUsage[] =
    "usage: craft lint [--json[=FILE]] [--sarif=FILE] "
    "[--suppress RULE[@GLOB]]... [--fail-on SEV] [--quiet]\n"
    "\n"
    "  --json            print the machine-readable report to stdout\n"
    "  --json=FILE       ... or write it to FILE\n"
    "  --sarif=FILE      write findings as SARIF 2.1.0 for code-scanning upload\n"
    "  --suppress SPEC   drop findings matching \"rule@path-glob\" (glob: * ?)\n"
    "  --fail-on SEV     exit non-zero on findings at SEV or worse:\n"
    "                    error (default), warning, info, or none\n"
    "  --quiet           suppress per-design text blocks for clean designs\n";

constexpr const char kProveUsage[] =
    "usage: craft prove [--json[=FILE]] [--sarif=FILE] [--quiet]\n"
    "\n"
    "  --json            print the craft-prove-v1 JSON report to stdout\n"
    "  --json=FILE       ... or write it to FILE\n"
    "  --sarif=FILE      write findings as SARIF 2.1.0 for code-scanning upload\n"
    "  --quiet           suppress per-design text blocks for clean designs\n";

using lint::Finding;
using Report = std::pair<std::string, std::vector<Finding>>;

void OrUsed(std::vector<bool>& acc, const std::vector<bool>& used) {
  if (acc.size() < used.size()) acc.resize(used.size(), false);
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i]) acc[i] = true;
  }
}

}  // namespace

int Lint(int argc, char** argv) {
  constexpr const char* kTool = "craft lint";
  lint::LintOptions opts;
  bool json = false;
  bool quiet = false;
  std::string json_path;
  std::string sarif_path;
  lint::Severity fail_on = lint::Severity::kError;
  bool fail_none = false;
  std::vector<std::string> suppress_specs;
  std::string fail_on_text;

  cli::Parser p(kTool, kLintUsage);
  p.OptStr("--json", &json, &json_path);
  p.Str("--sarif", &sarif_path);
  p.StrList("--suppress", &suppress_specs);
  p.Str("--fail-on", &fail_on_text);
  p.Flag("--quiet", &quiet);
  if (auto s = p.Parse(argc, argv); s != cli::Status::kContinue)
    return cli::ExitCode(s);
  for (const std::string& spec : suppress_specs)
    opts.suppressions.push_back(lint::ParseSuppression(spec));
  if (!fail_on_text.empty() &&
      !lint::ParseFailOn(fail_on_text, &fail_on, &fail_none))
    return cli::ExitCode(
        p.UsageError("--fail-on wants error|warning|info|none"));

  std::vector<Report> reports;
  std::vector<bool> used_any(opts.suppressions.size(), false);
  for (const lint::RefDesign& d : lint::ReferenceDesigns()) {
    Simulator sim;
    const auto handle = d.build(sim);
    std::vector<bool> used;
    reports.emplace_back(d.name,
                         lint::CheckDesignGraph(sim.design_graph(), opts, &used));
    OrUsed(used_any, used);
  }

  // Every HLS reference design, scheduled under representative constraints.
  {
    const hls::ScheduleConstraints free_c;
    hls::ScheduleConstraints shared_c;
    shared_c.max_multipliers = 2;
    shared_c.max_adders = 4;
    auto hls_one = [&](hls::DataflowGraph g, const hls::ScheduleConstraints& c) {
      const hls::ScheduleResult r = hls::Schedule(g, hls::AreaModel{}, c);
      std::vector<bool> used;
      reports.emplace_back("hls:" + g.name(),
                           lint::ApplyOptions(lint::CheckSchedule(g, r, c), opts, &used));
      OrUsed(used_any, used);
    };
    hls_one(hls::BuildDstLoopCrossbar(8, 32), free_c);
    hls_one(hls::BuildSrcLoopCrossbar(8, 32), free_c);
    hls_one(hls::BuildAdder(32), free_c);
    hls_one(hls::BuildMac(16), shared_c);
    hls_one(hls::BuildFir(8, 16), shared_c);
    hls_one(hls::BuildDotProduct(8, 16), shared_c);
    hls_one(hls::BuildAlu(32), free_c);
    hls_one(hls::BuildOneHotEncoder(16), free_c);
    hls_one(hls::BuildRoundRobinArbiter(8), free_c);
    hls_one(hls::BuildReductionTree(16, 16), shared_c);
    hls_one(hls::BuildVectorScale(8, 16), shared_c);
    hls_one(hls::BuildFpMulUnit(11), free_c);
  }

  // A suppression that matched nothing in ANY design is stale or a typo;
  // surface it as a warning report of its own rather than silently honoring.
  const std::vector<Finding> unused =
      lint::UnusedSuppressionFindings(opts.suppressions, used_any);
  if (!unused.empty()) reports.emplace_back("suppressions", unused);

  // With --json to stdout, the JSON document must be the only thing there;
  // the human-readable report moves to stderr.
  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  int errors = 0;
  int warnings = 0;
  int gating = 0;
  for (const auto& [design, findings] : reports) {
    errors += lint::ErrorCount(findings);
    if (!fail_none) gating += lint::CountAtOrAbove(findings, fail_on);
    for (const Finding& f : findings) {
      if (f.severity == lint::Severity::kWarning) ++warnings;
    }
    if (!quiet || !findings.empty()) {
      std::fputs(lint::FormatText(design, findings).c_str(), text_out);
    }
  }
  std::fprintf(text_out, "%s: %zu designs, %d errors, %d warnings\n", kTool,
               reports.size(), errors, warnings);

  if (json && !WriteDoc(kTool, json_path, lint::FormatJson(reports))) return 2;
  if (!sarif_path.empty() &&
      !WriteDoc(kTool, sarif_path,
                lint::FormatSarif("craft-lint", cli::kToolVersion, reports)))
    return 2;
  return gating > 0 ? 1 : 0;
}

int Prove(int argc, char** argv) {
  constexpr const char* kTool = "craft prove";
  bool json = false;
  bool quiet = false;
  std::string json_path;
  std::string sarif_path;

  cli::Parser p(kTool, kProveUsage);
  p.OptStr("--json", &json, &json_path);
  p.Str("--sarif", &sarif_path);
  p.Flag("--quiet", &quiet);
  if (auto s = p.Parse(argc, argv); s != cli::Status::kContinue)
    return cli::ExitCode(s);

  std::vector<std::pair<std::string, analyze::Analysis>> reports;
  std::vector<Report> sarif_in;
  for (const lint::RefDesign& d : lint::ReferenceDesigns()) {
    Simulator sim;
    const auto handle = d.build(sim);
    reports.emplace_back(d.name, analyze::Analyze(sim.design_graph()));
    sarif_in.emplace_back(d.name, reports.back().second.findings);
  }

  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  int errors = 0;
  int warnings = 0;
  for (const auto& [design, a] : reports) {
    errors += lint::ErrorCount(a.findings);
    warnings += lint::CountAtOrAbove(a.findings, lint::Severity::kWarning) -
                lint::ErrorCount(a.findings);
    if (!quiet || lint::ErrorCount(a.findings) > 0) {
      std::fputs(analyze::FormatText(design, a).c_str(), text_out);
    }
  }
  std::fprintf(text_out, "%s: %zu designs, %d errors, %d warnings\n", kTool,
               reports.size(), errors, warnings);

  if (json && !WriteDoc(kTool, json_path, analyze::FormatJson(reports))) return 2;
  if (!sarif_path.empty() &&
      !WriteDoc(kTool, sarif_path,
                lint::FormatSarif("craft-prove", cli::kToolVersion, sarif_in)))
    return 2;
  return errors > 0 ? 1 : 0;
}

}  // namespace craft::driver
