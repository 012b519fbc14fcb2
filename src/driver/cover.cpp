// craft cover: functional-coverage collection, merge and gating over the
// registry scenarios (DESIGN.md §13).
//
//   run     executes the selected scenarios with the cover registry armed
//           (default: li_pipeline + gals_pipeline + soc_gals_2x2; --all runs
//           every scenario) and writes one craft-cover-v1 document. With
//           several scenarios the emitter self-checks merge order: forward
//           and reverse merges must be byte-identical.
//   merge   unions craft-cover-v1 shards. Two shards that disagree about the
//           same run id are a determinism violation and fail the merge.
//   report  merges its inputs in memory and renders them (default: text).
//   diff    compares hit/unhit bins: any bin hit in BASELINE but unhit in
//           CURRENT (or a vanished group) exits 1 — the CI coverage gate.
//
// Exit codes: 0 success, 1 coverage regression (diff only), 2 usage / IO /
// merge-conflict errors.
#include <cstdio>
#include <string>
#include <vector>

#include "cover/cover.hpp"
#include "cover/runner.hpp"
#include "driver/driver.hpp"
#include "lint/ref_designs.hpp"

namespace craft::driver {

namespace {

constexpr const char* kTool = "craft cover";

constexpr const char kUsage[] =
    "usage: craft cover run [--design NAME]... [--all] [--list] [--seed N]\n"
    "                       [--parallelism N] [--chaos latency|corrupt]\n"
    "                       [--messages N] [-o FILE]\n"
    "       craft cover merge -o FILE IN...\n"
    "       craft cover report [--format text|json|markdown] FILE...\n"
    "       craft cover diff [--markdown] BASELINE CURRENT\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> out;
  for (const auto& d : lint::Scenarios()) out.push_back(d.name);
  return out;
}

/// Loads, parses and merges craft-cover-v1 files into *merged; false (with
/// a message on stderr) on failure.
bool LoadMerged(const std::vector<std::string>& paths, cover::Database* merged) {
  for (const auto& path : paths) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "%s: cannot read %s\n", kTool, path.c_str());
      return false;
    }
    cover::Database db;
    std::string err = cover::Parse(text, &db);
    if (err.empty()) err = cover::Merge(db, merged);
    if (!err.empty()) {
      std::fprintf(stderr, "%s: %s: %s\n", kTool, path.c_str(), err.c_str());
      return false;
    }
  }
  return true;
}

int CmdRun(int argc, char** argv) {
  cover::RunOptions opt;
  std::vector<std::string> designs;
  std::string out_path;
  std::string parallelism_text;
  bool all = false;

  cli::Parser p(kTool, kUsage);
  p.StrList("--design", &designs);
  p.Flag("--all", &all);
  p.Action("--list", [] {
    for (const auto& d : ScenarioNames()) std::printf("%s\n", d.c_str());
  });
  p.U64("--seed", &opt.seed);
  p.Str("--parallelism", &parallelism_text);
  p.Choice("--chaos", &opt.chaos, {"latency", "corrupt"});
  p.U32("--messages", &opt.messages);
  p.Str("--output", &out_path);
  p.Alias("-o", "--output");
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (!parallelism_text.empty() && !ParseParallelism(p, parallelism_text, &opt.parallelism))
    return 2;
  if (designs.empty())
    designs = all ? ScenarioNames()
                  : std::vector<std::string>{"li_pipeline", "gals_pipeline",
                                             "soc_gals_2x2"};

  // One database per scenario, so the emitter can self-check that merge
  // order cannot matter before anything is written.
  std::vector<cover::Database> shards;
  for (const auto& d : designs) {
    cover::Database shard;
    if (const std::string err = cover::RunDesign(d, opt, &shard); !err.empty()) {
      std::fprintf(stderr, "%s: %s: %s\n", kTool, d.c_str(), err.c_str());
      return 2;
    }
    shards.push_back(std::move(shard));
  }
  cover::Database forward, reverse;
  for (auto it = shards.begin(); it != shards.end(); ++it)
    if (const std::string err = cover::Merge(*it, &forward); !err.empty()) {
      std::fprintf(stderr, "%s: merge: %s\n", kTool, err.c_str());
      return 2;
    }
  for (auto it = shards.rbegin(); it != shards.rend(); ++it)
    if (const std::string err = cover::Merge(*it, &reverse); !err.empty()) {
      std::fprintf(stderr, "%s: merge: %s\n", kTool, err.c_str());
      return 2;
    }
  const std::string doc = cover::FormatJson(forward);
  if (doc != cover::FormatJson(reverse)) {
    std::fprintf(stderr,
                 "%s: internal error: merge order changed the report "
                 "(commutativity self-check failed)\n",
                 kTool);
    return 2;
  }
  if (!WriteDoc(kTool, out_path, doc)) return 2;
  std::fputs(cover::FormatText(forward).c_str(), stderr);
  return 0;
}

int CmdMerge(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;

  cli::Parser p(kTool, kUsage);
  p.Str("--output", &out_path);
  p.Alias("-o", "--output");
  p.Positionals(&inputs);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (out_path.empty() || inputs.empty()) return Usage();
  cover::Database merged;
  if (!LoadMerged(inputs, &merged)) return 2;
  return WriteDoc(kTool, out_path, cover::FormatJson(merged)) ? 0 : 2;
}

int CmdReport(int argc, char** argv) {
  std::string format = "text";
  std::vector<std::string> inputs;

  cli::Parser p(kTool, kUsage);
  p.Choice("--format", &format, {"text", "json", "markdown"});
  p.Positionals(&inputs);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (inputs.empty()) return Usage();
  cover::Database merged;
  if (!LoadMerged(inputs, &merged)) return 2;
  std::string out;
  if (format == "json") out = cover::FormatJson(merged);
  else if (format == "markdown") out = cover::FormatMarkdown(merged);
  else out = cover::FormatText(merged);
  return WriteDoc(kTool, "", out) ? 0 : 2;
}

int CmdDiff(int argc, char** argv) {
  bool markdown = false;
  std::vector<std::string> inputs;

  cli::Parser p(kTool, kUsage);
  p.Flag("--markdown", &markdown);
  p.Positionals(&inputs);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (inputs.size() != 2) return Usage();
  cover::Database baseline, current;
  if (!LoadMerged({inputs[0]}, &baseline) || !LoadMerged({inputs[1]}, &current))
    return 2;
  const cover::DiffResult d = cover::Diff(baseline, current);
  if (!WriteDoc(kTool, "", cover::FormatDiff(d, markdown))) return 2;
  return d.regressed() ? 1 : 0;
}

}  // namespace

int Cover(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // Each subcommand gets argv[1] as its argv[0]; the shared parser skips it.
  if (cmd == "run") return CmdRun(argc - 1, argv + 1);
  if (cmd == "merge") return CmdMerge(argc - 1, argv + 1);
  if (cmd == "report") return CmdReport(argc - 1, argv + 1);
  if (cmd == "diff") return CmdDiff(argc - 1, argv + 1);
  if (cmd == "--help" || cmd == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (cmd == "--version") {
    std::printf("%s %s\n", kTool, cli::kToolVersion);
    return 0;
  }
  return Usage();
}

}  // namespace craft::driver
