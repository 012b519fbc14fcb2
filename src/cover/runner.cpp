#include "cover/runner.hpp"

#include <algorithm>

#include "chaos/campaign.hpp"
#include "kernel/kernel.hpp"
#include "kernel/rng.hpp"
#include "lint/ref_designs.hpp"

namespace craft::cover {

namespace {

/// The corruption plan `craft cover run --chaos=corrupt` arms for the LI
/// pipeline: one fault of each kind along the flit link, spaced through the
/// steady stream, so the depacketizer's discard / orphan / head-resync bins
/// are reachable in a single run.
FaultPlan PipelineCorruptPlan(std::uint64_t seed, unsigned messages) {
  FaultPlan plan;
  plan.seed = seed;
  Rng r(seed * 1000003ull + 7);
  const std::uint64_t flits = 2ull * messages;
  const CorruptionFault::Kind kinds[] = {CorruptionFault::Kind::kBitFlip,
                                         CorruptionFault::Kind::kDrop,
                                         CorruptionFault::Kind::kDuplicate};
  std::uint64_t index = 4;
  for (const auto kind : kinds) {
    CorruptionFault f;
    f.channel = lint::kPipelineLinkChannel;
    f.kind = kind;
    // Spaced appointments in increasing commit order, well inside the stream.
    index += 2 + r.NextBelow(std::max<std::uint64_t>(flits / 4, 2));
    f.commit_index = std::min<std::uint64_t>(index, flits - 4);
    f.bit = static_cast<unsigned>(r.NextBelow(lint::kPipelineFlitBits));
    plan.corruptions.push_back(f);
  }
  return plan;
}

}  // namespace

std::string RunDesign(const std::string& design, const RunOptions& opt,
                      Database* db) {
  if (opt.parallelism < 1) return "parallelism must be >= 1";
  if (!opt.chaos.empty() && opt.chaos != "latency" && opt.chaos != "corrupt")
    return "unknown chaos mode '" + opt.chaos + "' (want latency or corrupt)";
  lint::RefDesign scenario;
  lint::RunSpec spec;
  if (std::string err = lint::Resolve(design, &scenario, &spec.workload); !err.empty())
    return err;
  const bool pipeline = scenario.kind == lint::RefDesign::Kind::kPipeline;
  if (opt.chaos == "corrupt" && !pipeline)
    return "chaos mode 'corrupt' is only supported for li_pipeline";
  spec.messages = std::max(16u, opt.messages);
  FaultPlan plan;
  if (opt.chaos == "latency")
    plan = pipeline ? chaos::PipelineLatencyPlan(opt.seed) : chaos::SocLatencyPlan(opt.seed);
  else if (opt.chaos == "corrupt")
    plan = PipelineCorruptPlan(opt.seed, spec.messages);
  if (!opt.chaos.empty()) spec.plan = &plan;
  spec.parallelism = opt.parallelism;

  RunInfo info;
  info.design = design;
  info.seed = opt.seed;
  info.parallelism = opt.parallelism;
  info.chaos = opt.chaos;
  info.id = MakeRunId(design, opt.seed, opt.parallelism, opt.chaos);
  if (db->runs.find(info.id) != db->runs.end())
    return "run '" + info.id + "' already present in database";
  spec.arm = [](Simulator& sim) { sim.cover().Enable(); };
  spec.finished = [&](Simulator& sim, soc::SocTop*, const lint::ScenarioRun&) {
    info.horizon_ps = sim.now();
    Collect(sim, info, db);
  };
  const lint::ScenarioRun run = lint::RunScenario(scenario, spec);
  // A corruption run legitimately ends in a detection, not a clean sink;
  // every other run must complete.
  if (opt.chaos != "corrupt" && !run.ok)
    return design + " run failed: " +
           (run.error.empty() ? "workload did not complete" : run.error);
  return "";
}

}  // namespace craft::cover
