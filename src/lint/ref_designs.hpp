// The one registry of runnable scenarios and the one run path behind every
// `craft` verb. The five reference designs — four configurations of the
// prototype SoC (paper Fig. 5) and the fine-grained GALS pipeline of
// examples/gals_multiclock — are what the static verbs (lint, prove) check;
// the registry adds the two harnesses the dynamic verbs drive: the bounded
// LI pipeline (every fault-hosting component in one design, the craft-chaos
// and craft-cover workhorse) and the saturating 4-hop NoC chain (the
// craft-pulse cross-check workload).
//
// RunScenario is the one "make a Simulator -> enable registries -> arm the
// fault plan -> set parallelism -> elaborate -> run to completion or to a
// horizon" sequence; callers hook in to enable further registries and to
// harvest results while the design is still alive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/chaos.hpp"
#include "kernel/time.hpp"
#include "soc/soc.hpp"
#include "soc/workloads.hpp"

namespace craft {
class Simulator;
}  // namespace craft

namespace craft::lint {

struct RefDesign {
  enum class Kind {
    kSoc,       ///< a SocTop configuration driven by one SoC workload
    kPipeline,  ///< the bounded LI pipeline: runs until its sink drains
    kStream,    ///< an endless stream, run to a fixed sim-time horizon
  };
  std::string name;
  Kind kind = Kind::kStream;
  /// Elaborates the design into `sim`; the handle owns the module tree and
  /// must outlive every use of the simulator's DesignGraph.
  std::function<std::shared_ptr<void>(Simulator&)> build;
  /// The configuration of a kSoc entry: the run path rebuilds from it so it
  /// can drive SoC workloads, which `build`'s type-erased handle cannot.
  std::optional<soc::SocConfig> soc_cfg;
};

/// The five reference designs the static verbs check: soc_gals_2x2,
/// soc_sync_2x2, soc_gals_io_2x2, soc_gals_3x3, gals_pipeline.
std::vector<RefDesign> ReferenceDesigns();

/// Every runnable scenario: li_pipeline, the five reference designs, and
/// noc_chain.
std::vector<RefDesign> Scenarios();

/// The LI pipeline's flit link and flit width (2 flits per 32-bit message),
/// for fault plans that aim corruptions at it.
inline constexpr const char* kPipelineLinkChannel = "li.link";
inline constexpr unsigned kPipelineFlitBits = 16;

/// The workload a SoC scenario runs when none is named.
inline constexpr const char* kDefaultWorkload = "vecmul";

/// The SoC workloads `names` selects, in soc::AllWorkloads() order; "all"
/// selects every one. Returns "" or an error naming an unknown workload.
std::string SelectWorkloads(const std::vector<std::string>& names,
                            std::vector<soc::Workload>* out);

/// The one scenario lookup: "name", or "name:workload" for SoC entries.
/// Fills *design and *workload (kDefaultWorkload for a bare SoC name, ""
/// otherwise) and returns "", or returns an error for an unknown name.
std::string Resolve(const std::string& spec, RefDesign* design,
                    std::string* workload);

/// What one run produced. `name` is the workload for SoC runs and the
/// scenario name otherwise; `cycles` counts controller cycles (SoC) or sink
/// cycles (LI pipeline), 0 for streams; `digest` is FNV-1a over the outputs
/// (global-memory image or sink stream), 0 for streams.
struct ScenarioRun : soc::WorkloadRun {
  std::uint64_t digest = 0;
};

struct RunSpec {
  std::string workload = kDefaultWorkload;  ///< kSoc only
  const FaultPlan* plan = nullptr;  ///< armed before elaboration; null = fault-free
  unsigned parallelism = 0;  ///< 0 keeps the simulator's (CRAFT_PARALLELISM or 1)
  Time horizon = 0;          ///< kSoc deadline / kStream window; 0 = 50 ms / 300 us
  unsigned messages = 64;    ///< kPipeline traffic
  /// Before elaboration, after stats and the fault plan: enable registries.
  std::function<void(Simulator&)> arm;
  /// After elaboration, before the run.
  std::function<void(Simulator&)> elaborated;
  /// After the run, while the design is alive; `soc` is null unless kSoc.
  std::function<void(Simulator&, soc::SocTop* soc, const ScenarioRun&)> finished;
};

/// Runs `design` once under `spec` with the stats registry on. A SimError
/// ends the run as a failure; under a corrupting plan a failed run is
/// reported to the chaos engine as a detection.
ScenarioRun RunScenario(const RefDesign& design, const RunSpec& spec);

}  // namespace craft::lint
