// craft: the one driver over the flow's tools. `craft <verb> [flags]` runs
// one verb; every verb shares the scenario registry (lint/ref_designs.hpp),
// the flag grammar (support/cli.hpp) and the exit-code convention: 0
// success, 1 a gated finding, 2 a usage or I/O error (README "Exit codes").
#include <cstdio>
#include <string>

#include "driver/driver.hpp"
#include "support/cli.hpp"

namespace {

using namespace craft::driver;

struct Verb {
  const char* name;
  int (*run)(int, char**);
  const char* summary;
};

constexpr Verb kVerbs[] = {
    {"lint", Lint, "design-rule checks over the reference designs"},
    {"prove", Prove, "static deadlock and throughput analysis"},
    {"stats", Stats, "SoC workloads with telemetry: channel, process, PE metrics"},
    {"trace", Trace, "Chrome trace export and backpressure blame chains"},
    {"pulse", Pulse, "live time-series telemetry and watchdogs"},
    {"chaos", Chaos, "seeded fault-injection campaigns and LI-invariance oracles"},
    {"cover", Cover, "functional coverage: run, merge, report, diff"},
    {"farm", Farm, "multi-process campaign orchestration"},
};

void PrintUsage(std::FILE* out) {
  std::fputs("usage: craft <verb> [flags]   (craft <verb> --help lists its flags)\n"
             "\nverbs:\n",
             out);
  for (const Verb& v : kVerbs) std::fprintf(out, "  %-6s %s\n", v.name, v.summary);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string verb = argv[1];
    // Each verb gets argv[1] as its argv[0]; the shared parser skips it.
    for (const Verb& v : kVerbs)
      if (verb == v.name) return v.run(argc - 1, argv + 1);
    if (verb == "--help" || verb == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (verb == "--version") {
      std::printf("craft %s\n", craft::cli::kToolVersion);
      return 0;
    }
    std::fprintf(stderr, "craft: unknown verb '%s'\n", verb.c_str());
  }
  PrintUsage(stderr);
  return 2;
}
