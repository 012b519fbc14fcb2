#include "chaos/campaign.hpp"

#include "support/json.hpp"

#include <algorithm>
#include <sstream>

#include "kernel/kernel.hpp"
#include "lint/ref_designs.hpp"
#include "trace/trace.hpp"

namespace craft::chaos {

namespace {

void HarvestTransfers(const Simulator& sim, Fingerprint* fp) {
  for (const auto& [name, c] : sim.stats().channels()) fp->transfers[name] = c.dequeues;
  for (const auto& [name, x] : sim.stats().crossings())
    fp->transfers[name + "#crossing"] = x.transfers;
}

void HarvestChaos(Simulator& sim, RunRecord* rec) {
  rec->latency = sim.chaos().latency_totals();
  rec->injections = sim.chaos().Injections();
  rec->detections = sim.chaos().Detections();
  rec->warnings = sim.chaos().config_warnings();
}

/// Hooks craft-pulse into a campaign simulator (pre-elaboration): heartbeat
/// line per window, and — when the progress watchdog is armed — craft-trace
/// events so a firing can dump the backpressure blame chain.
void EnableCampaignPulse(Simulator& sim, const CampaignPulse* pulse,
                         const std::string& label) {
  if (pulse == nullptr || pulse->period_ps == 0) return;
  PulseConfig cfg;
  cfg.period_ps = pulse->period_ps;
  cfg.progress_windows = pulse->progress_windows;
  cfg.throughput_windows = 0;  // campaigns stall on purpose; rate alerts off
  cfg.heartbeat = pulse->heartbeat;
  cfg.heartbeat_label = label;
  sim.pulse().Enable(cfg);
  if (pulse->progress_windows > 0) {
    sim.trace_events().Enable();
    sim.pulse().set_blame_provider([](Simulator& s) {
      return trace::FormatTable(trace::AttributeBackpressure(s, 5));
    });
  }
}

/// One campaign run of `design` through the shared scenario run path, with
/// the campaign's registries armed and its fingerprint and fault record
/// harvested. A corrupting plan also turns craft-trace on for blame.
RunRecord RunOne(const lint::RefDesign& design, const std::string& workload,
                 const FaultPlan* plan, unsigned parallelism, unsigned messages,
                 const std::string& label, const CampaignPulse* pulse,
                 const CampaignHooks* hooks) {
  RunRecord rec;
  rec.label = label;
  const bool corrupting = plan != nullptr && !plan->latency_only();
  lint::RunSpec spec;
  spec.workload = workload;
  spec.plan = plan;
  spec.parallelism = parallelism;
  spec.messages = messages;
  spec.arm = [&](Simulator& sim) {
    const bool soc = design.kind == lint::RefDesign::Kind::kSoc;
    EnableCampaignPulse(sim, pulse, (soc ? workload : design.name) + "/" + label);
    if (corrupting) sim.trace_events().Enable();
    if (hooks != nullptr && hooks->pre_elaborate) hooks->pre_elaborate(sim);
  };
  spec.finished = [&](Simulator& sim, soc::SocTop*, const lint::ScenarioRun&) {
    HarvestTransfers(sim, &rec.fp);
    if (plan != nullptr) HarvestChaos(sim, &rec);
    if (corrupting)
      rec.blame = trace::FormatTable(trace::AttributeBackpressure(sim, 5));
    if (hooks != nullptr && hooks->post_run) hooks->post_run(sim, label);
  };
  const lint::ScenarioRun run = lint::RunScenario(design, spec);
  rec.fp.ok = run.ok;
  rec.fp.cycles = run.cycles;
  rec.fp.digest = run.digest;
  rec.error = run.error;
  return rec;
}

}  // namespace

FaultPlan PipelineLatencyPlan(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  p.channel_valid_stall_prob = 0.15;
  p.channel_ready_stall_prob = 0.10;
  p.crossing_pause_prob = 0.25;
  p.crossing_pause_max_cycles = 6;
  p.retimer_delay_prob = 0.30;
  p.retimer_delay_max_cycles = 4;
  p.wakeup_delay_prob = 0.05;
  return p;
}

FaultPlan SocLatencyPlan(std::uint64_t seed) {
  // Milder rates than the pipeline plan: the SoC runs real workloads with a
  // deadline, and every channel of the NoC rolls independently, so even a
  // few percent per cycle yields thousands of injected stall cycles per run.
  FaultPlan p;
  p.seed = seed;
  p.channel_valid_stall_prob = 0.04;
  p.channel_ready_stall_prob = 0.03;
  p.crossing_pause_prob = 0.10;
  p.crossing_pause_max_cycles = 4;
  p.retimer_delay_prob = 0.20;
  p.retimer_delay_max_cycles = 3;
  p.wakeup_delay_prob = 0.02;
  return p;
}

RunRecord RunLiPipeline(const FaultPlan* plan, unsigned parallelism,
                        unsigned messages, const std::string& label,
                        const CampaignPulse* pulse, const CampaignHooks* hooks) {
  lint::RefDesign design;
  std::string workload;
  lint::Resolve("li_pipeline", &design, &workload);
  return RunOne(design, workload, plan, parallelism, messages, label, pulse, hooks);
}

RunRecord RunSocWorkload(const soc::SocConfig& cfg, const std::string& workload,
                         const FaultPlan* plan, unsigned parallelism,
                         const std::string& label, const CampaignPulse* pulse,
                         const CampaignHooks* hooks) {
  const lint::RefDesign design{workload, lint::RefDesign::Kind::kSoc, nullptr, cfg};
  return RunOne(design, workload, plan, parallelism, 0, label, pulse, hooks);
}

namespace {

void Fail(CampaignResult* c, const std::string& why) { c->failures.push_back(why); }

/// The latency-mode oracle: golden vs faulted (LI-invariance), repeat
/// (determinism), n=1 vs n=4 (parallel invariance). `compare_transfers`
/// extends LI-invariance to the full message set — valid for the pipeline
/// harness (fixed traffic); the SoC controller polls, so its per-channel
/// counts are schedule-dependent and only the output digest is invariant.
void JudgeLatency(CampaignResult* c, const RunRecord* golden, const RunRecord& f1,
                  const RunRecord& f1r, const RunRecord* f4, bool compare_transfers) {
  if (golden != nullptr) {
    if (!golden->fp.ok) Fail(c, "golden run failed: " + golden->error);
    if (!f1.fp.ok) Fail(c, "latency-fault run failed: " + f1.error);
    if (golden->fp.ok && f1.fp.ok) {
      if (f1.fp.digest != golden->fp.digest)
        Fail(c, "LI-invariance: output digest diverged under latency-only faults");
      if (compare_transfers && f1.fp.transfers != golden->fp.transfers)
        Fail(c, "LI-invariance: per-channel message set changed under latency-only faults");
    }
  }
  if (!(f1.fp == f1r.fp)) Fail(c, "determinism: repeat run fingerprint differs");
  if (f4 != nullptr && !(f1.fp == f4->fp))
    Fail(c, "n-invariance: SetParallelism(1) vs (4) fingerprint differs");
  c->passed = c->failures.empty();
}

}  // namespace

std::vector<CampaignResult> RunCampaigns(const CampaignConfig& config) {
  std::vector<CampaignResult> out;
  const unsigned msgs = std::max(16u, config.messages);
  const bool quick = config.scale == CampaignConfig::Scale::kQuick;
  const bool full = config.scale == CampaignConfig::Scale::kFull;
  const CampaignPulse* hb =
      config.pulse.period_ps > 0 ? &config.pulse : nullptr;

  // Observer hooks, re-labelled per campaign so a post_run consumer (the
  // craft-cover collector) sees globally unique "design/label" run names.
  const bool hooked = static_cast<bool>(config.hooks.pre_elaborate) ||
                      static_cast<bool>(config.hooks.post_run);
  const auto qualify = [&config](const std::string& design) {
    CampaignHooks h;
    h.pre_elaborate = config.hooks.pre_elaborate;
    if (config.hooks.post_run) {
      h.post_run = [&config, design](Simulator& s, const std::string& label) {
        config.hooks.post_run(s, design + "/" + label);
      };
    }
    return h;
  };

  // One latency campaign over a registry scenario: the fault-free golden
  // run (not for endless streams, whose fixed window has no outputs to
  // compare), the faulted run, its repeat and its SetParallelism(4) twin
  // (not for the single-clock SoC, which has one domain to shard). The
  // pipeline harness gets the aggressive plan and the message-set oracle.
  const auto latency = [&](const std::string& name) {
    CampaignResult c{name, "latency"};
    lint::RefDesign d;
    std::string w;
    if (const std::string err = lint::Resolve(name, &d, &w); !err.empty()) {
      Fail(&c, err);
      c.passed = false;
      out.push_back(std::move(c));
      return;
    }
    using Kind = lint::RefDesign::Kind;
    const CampaignHooks hk = qualify(name);
    const CampaignHooks* hkp = hooked ? &hk : nullptr;
    const FaultPlan plan = d.kind == Kind::kPipeline ? PipelineLatencyPlan(config.seed)
                                                     : SocLatencyPlan(config.seed);
    const bool golden = d.kind != Kind::kStream;
    const bool n4 = d.kind != Kind::kSoc || d.soc_cfg->gals;
    if (golden) c.runs.push_back(RunOne(d, w, nullptr, 1, msgs, "golden-n1", hb, hkp));
    c.runs.push_back(RunOne(d, w, &plan, 1, msgs, "latency-n1", hb, hkp));
    c.runs.push_back(RunOne(d, w, &plan, 1, msgs, "latency-n1-repeat", hb, hkp));
    if (n4) c.runs.push_back(RunOne(d, w, &plan, 4, msgs, "latency-n4", hb, hkp));
    const std::size_t f = golden ? 1 : 0;
    JudgeLatency(&c, golden ? &c.runs[0] : nullptr, c.runs[f], c.runs[f + 1],
                 n4 ? &c.runs[f + 2] : nullptr, d.kind == Kind::kPipeline);
    out.push_back(std::move(c));
  };

  latency("li_pipeline");

  {
    // Corruption mode: one scheduled fault per trial, cycling through the
    // three kinds along the flit link. The oracle per trial: the fault was
    // applied (one injection) and something downstream caught it (at least
    // one detection) — silent propagation is the only failure.
    CampaignResult c{"li_pipeline", "corruption"};
    const CampaignHooks hk = qualify("li_pipeline_corrupt");
    const CampaignHooks* hkp = hooked ? &hk : nullptr;
    const unsigned trials =
        config.trials != 0 ? config.trials : (quick ? 6u : full ? 18u : 9u);
    for (unsigned k = 0; k < trials; ++k) {
      Rng r(config.seed * 1000003ull + k);
      CorruptionFault f;
      f.channel = lint::kPipelineLinkChannel;
      f.kind = k % 3 == 0   ? CorruptionFault::Kind::kBitFlip
               : k % 3 == 1 ? CorruptionFault::Kind::kDrop
                            : CorruptionFault::Kind::kDuplicate;
      // The link carries 2 flits per message; aim inside the steady stream.
      f.commit_index = 4 + r.NextBelow(2ull * msgs - 12);
      f.bit = static_cast<unsigned>(r.NextBelow(lint::kPipelineFlitBits));
      FaultPlan plan;
      plan.seed = config.seed;
      plan.corruptions = {f};
      const std::string label =
          "trial-" + std::to_string(k) + "-" + ToString(f.kind);
      RunRecord rec = RunLiPipeline(&plan, 1, msgs, label, hb, hkp);
      if (rec.injections.empty())
        Fail(&c, label + ": scheduled corruption was never applied");
      if (rec.detections.empty())
        Fail(&c, label + ": corruption propagated silently (no detection)");
      c.runs.push_back(std::move(rec));
    }
    c.passed = c.failures.empty();
    out.push_back(std::move(c));
  }

  // SoC reference designs x workloads, plus the GALS pipeline window.
  std::vector<std::pair<std::string, std::string>> soc_sel;
  const std::vector<std::string> full_workloads =
      config.workloads.empty()
          ? std::vector<std::string>{"vecmul", "dot", "dma_copy"}
          : config.workloads;
  const std::string base_workload =
      config.workloads.empty() ? "vecmul" : config.workloads.front();
  soc_sel.emplace_back("soc_gals_2x2", base_workload);
  if (!quick) soc_sel.emplace_back("soc_sync_2x2", base_workload);
  if (full) {
    for (const auto& w : full_workloads)
      if (w != base_workload) soc_sel.emplace_back("soc_gals_2x2", w);
    soc_sel.emplace_back("soc_gals_io_2x2", base_workload);
    soc_sel.emplace_back("soc_gals_3x3", base_workload);
  }
  for (const auto& [dname, wname] : soc_sel) latency(dname + ":" + wname);
  if (!quick) latency("gals_pipeline");
  return out;
}

unsigned FailureCount(const std::vector<CampaignResult>& results) {
  unsigned n = 0;
  for (const auto& c : results) n += static_cast<unsigned>(c.failures.size());
  return n;
}

namespace {

const char* ScaleName(CampaignConfig::Scale s) {
  switch (s) {
    case CampaignConfig::Scale::kQuick: return "quick";
    case CampaignConfig::Scale::kDefault: return "default";
    case CampaignConfig::Scale::kFull: return "full";
  }
  return "?";
}

std::uint64_t TransfersTotal(const Fingerprint& fp) {
  std::uint64_t t = 0;
  for (const auto& [name, n] : fp.transfers) t += n;
  return t;
}

std::uint64_t LatencyEventTotal(const ChaosEngine::LatencyTotals& t) {
  return t.channel_stall_cycles + t.crossing_holds + t.retimer_delays +
         t.wakeup_deferrals;
}

}  // namespace

std::string FormatText(const CampaignConfig& config,
                       const std::vector<CampaignResult>& results) {
  std::ostringstream os;
  os << "craft-chaos campaign report (seed " << config.seed << ", scale "
     << ScaleName(config.scale) << ")\n\n";
  for (const auto& c : results) {
    os << "  [" << (c.passed ? "PASS" : "FAIL") << "] " << c.design << "/"
       << c.mode << "  runs=" << c.runs.size();
    if (c.mode == "corruption") {
      std::size_t injected = 0, detected = 0;
      for (const auto& r : c.runs) {
        injected += r.injections.size();
        if (!r.detections.empty()) ++detected;
      }
      os << " injected=" << injected << " detected=" << detected << "/"
         << c.runs.size();
    } else {
      ChaosEngine::LatencyTotals sum;
      for (const auto& r : c.runs) {
        sum.channel_stall_cycles += r.latency.channel_stall_cycles;
        sum.crossing_holds += r.latency.crossing_holds;
        sum.retimer_delays += r.latency.retimer_delays;
        sum.wakeup_deferrals += r.latency.wakeup_deferrals;
      }
      os << " stall_cycles=" << sum.channel_stall_cycles
         << " crossing_holds=" << sum.crossing_holds
         << " retimer_delays=" << sum.retimer_delays
         << " wakeup_deferrals=" << sum.wakeup_deferrals;
    }
    os << "\n";
    for (const auto& r : c.runs) {
      os << "      " << r.label << ": " << (r.fp.ok ? "ok" : "stopped")
         << " cycles=" << r.fp.cycles << " digest=0x" << std::hex << r.fp.digest
         << std::dec << " transfers=" << TransfersTotal(r.fp);
      if (c.mode == "corruption") {
        os << " detections=";
        if (r.detections.empty()) {
          os << "NONE";
        } else {
          for (std::size_t i = 0; i < r.detections.size() && i < 3; ++i)
            os << (i ? "," : "") << r.detections[i].kind;
          if (r.detections.size() > 3) os << ",+" << (r.detections.size() - 3);
        }
      }
      if (!r.error.empty() && c.mode != "corruption") os << "  (" << r.error << ")";
      os << "\n";
      for (const auto& w : r.warnings) os << "      warning: " << w << "\n";
    }
    for (const auto& f : c.failures) os << "      FAILURE: " << f << "\n";
    if (!c.passed) {
      for (const auto& r : c.runs) {
        if (!r.blame.empty()) {
          os << "      blame (" << r.label << "):\n";
          std::istringstream lines(r.blame);
          for (std::string line; std::getline(lines, line);)
            os << "        " << line << "\n";
          break;
        }
      }
    }
  }
  os << "\ncampaigns: " << results.size() << "  failures: " << FailureCount(results)
     << "\n";
  return os.str();
}

std::string FormatJson(const CampaignConfig& config,
                       const std::vector<CampaignResult>& results) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"craft-chaos-v1\",\n";
  os << "  \"seed\": " << config.seed << ",\n";
  os << "  \"scale\": \"" << ScaleName(config.scale) << "\",\n";
  os << "  \"messages\": " << std::max(16u, config.messages) << ",\n";
  os << "  \"campaigns\": [\n";
  for (std::size_t ci = 0; ci < results.size(); ++ci) {
    const auto& c = results[ci];
    os << "    {\"design\": \"" << json::Escape(c.design) << "\", \"mode\": \""
       << c.mode << "\", \"passed\": " << (c.passed ? "true" : "false") << ",\n";
    os << "     \"failures\": [";
    for (std::size_t i = 0; i < c.failures.size(); ++i)
      os << (i ? ", " : "") << "\"" << json::Escape(c.failures[i]) << "\"";
    os << "],\n     \"runs\": [\n";
    for (std::size_t ri = 0; ri < c.runs.size(); ++ri) {
      const auto& r = c.runs[ri];
      os << "      {\"label\": \"" << json::Escape(r.label) << "\", \"ok\": "
         << (r.fp.ok ? "true" : "false") << ", \"cycles\": " << r.fp.cycles
         << ", \"digest\": \"0x" << std::hex << r.fp.digest << std::dec
         << "\", \"transfers_total\": " << TransfersTotal(r.fp) << ",\n";
      os << "       \"latency_faults\": {\"channel_stall_cycles\": "
         << r.latency.channel_stall_cycles
         << ", \"crossing_holds\": " << r.latency.crossing_holds
         << ", \"retimer_delays\": " << r.latency.retimer_delays
         << ", \"wakeup_deferrals\": " << r.latency.wakeup_deferrals
         << ", \"total\": " << LatencyEventTotal(r.latency) << "},\n";
      const auto emit_events = [&os](const char* key, const auto& events) {
        os << "       \"" << key << "\": [";
        for (std::size_t i = 0; i < events.size(); ++i) {
          os << (i ? ", " : "") << "{\"t\": " << events[i].t << ", \"site\": \""
             << json::Escape(events[i].site) << "\", \"kind\": \""
             << json::Escape(events[i].kind) << "\", \"detail\": \""
             << json::Escape(events[i].detail) << "\"}";
        }
        os << "]";
      };
      emit_events("injections", r.injections);
      os << ",\n";
      emit_events("detections", r.detections);
      os << ",\n       \"warnings\": [";
      for (std::size_t i = 0; i < r.warnings.size(); ++i)
        os << (i ? ", " : "") << "\"" << json::Escape(r.warnings[i]) << "\"";
      os << "], \"error\": \"" << json::Escape(r.error) << "\"";
      if (!r.blame.empty())
        os << ", \"blame\": \"" << json::Escape(r.blame) << "\"";
      os << "}" << (ri + 1 < c.runs.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (ci + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"failures\": " << FailureCount(results) << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace craft::chaos
