// socbench: the repository benchmark. Drives the 2x2 GALS prototype SoC
// (paper Fig. 5) through its public API on three workloads and prints one
// JSON result line. See socbench/README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
//   socbench --workload soc_fast --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run
// that enables the stats registry, adds a craft-par twin of every test on
// soc_rtl (with pulse on), records benchmark-side spans around every call
// into a layer, and reports the per-layer ledger. Every test runs on a
// freshly elaborated SoC with cold memories. Simulated time is in
// controller-clock cycles, host time in seconds.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "cover/cover.hpp"
#include "kernel/fiber.hpp"
#include "kernel/process.hpp"
#include "soc/workloads.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "trace/trace.hpp"

#ifndef SOCBENCH_COMPILER
#define SOCBENCH_COMPILER "unknown"
#endif
#ifndef SOCBENCH_BUILD_TYPE
#define SOCBENCH_BUILD_TYPE "unknown"
#endif

namespace craft::socbench {
namespace {

using namespace craft::literals;
using Clk = std::chrono::steady_clock;

enum class Kind { kFast, kRtl, kCampaign };

/// How one test runs: untraced (registries as the workload defines them),
/// traced (stats registry on, ledger harvested), or the traced run's
/// craft-par twin (soc_rtl only: SetParallelism(4) with pulse on).
enum class Twin { kPlain, kTraced, kParallel };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"soc_fast", Kind::kFast},
    {"soc_rtl", Kind::kRtl},
    {"soc_campaign", Kind::kCampaign},
};

constexpr unsigned kParWorkers = 4;
constexpr Time kPulsePeriod = 100'000;  // 100 ns: ~100 controller cycles

soc::SocConfig ConfigFor(Kind k, Twin t = Twin::kPlain) {
  soc::SocConfig cfg;  // 2x2 GALS mesh, the Fig. 5 prototype
  cfg.rtl_cosim = k == Kind::kRtl;
  if (t == Twin::kParallel) cfg.parallelism = kParWorkers;
  return cfg;
}

/// Expectation mode. The craft-par twin must match soc_rtl (n-invariance);
/// the campaign's fault-free run must match soc_fast.
const char* ExpectMode(Kind k) { return k == Kind::kRtl ? "rtl" : "fast"; }

/// soc_fast and soc_campaign run all seven SoC tests; the RTL workloads run
/// the six Fig. 6 tests.
std::vector<soc::Workload> TestsFor(Kind k) {
  return k == Kind::kFast || k == Kind::kCampaign ? soc::AllWorkloads()
                                                  : soc::SixSocTests();
}

// ---------------------------------------------------------------- helpers

double Seconds(Clk::time_point a, Clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Inter-quartile range over the median, with quartiles computed exactly as
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
/// Returns -1 when fewer than two values exist.
double QuartileSpread(std::vector<double> v) {
  if (v.size() < 2) return -1.0;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4;
  }
  return q[1] == 0.0 ? -1.0 : (q[2] - q[0]) / q[1];
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over the whole global-memory image; the same digest
/// chaos::RunSocWorkload reports, so the campaign compares against it.
std::uint64_t GmDigest(soc::SocTop& soc) {
  std::uint64_t d = kFnvOffset;
  for (std::uint32_t w = 0; w < soc::SocTop::Gm::SizeWords(); ++w)
    d = (d ^ soc.PeekGm(w)) * kFnvPrime;
  return d;
}

/// Per-channel dequeues and per-crossing transfers, keyed like
/// chaos::Fingerprint::transfers. Empty while the stats registry is off.
std::map<std::string, std::uint64_t> Transfers(const Simulator& sim) {
  std::map<std::string, std::uint64_t> t;
  for (const auto& [name, c] : sim.stats().channels()) t[name] = c.dequeues;
  for (const auto& [name, x] : sim.stats().crossings()) t[name + "#crossing"] = x.transfers;
  return t;
}

std::uint64_t SplitMix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Test order of pass `pass`: a seeded Fisher-Yates shuffle.
std::vector<std::size_t> PassOrder(std::size_t n, std::uint64_t seed, unsigned pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t s = seed * 0x100000001b3ull + pass;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[SplitMix(s) % i]);
  return order;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------------ spans

/// Benchmark-side spans around each call into a layer, kept in memory and
/// written out when the run ends. Off in untraced runs (one branch each).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t test_run = 0;  ///< shared by every span of one test run
    int parent = -1;
    double start_s = 0, end_s = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.on_) return;
      idx_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, log_.test_run_, log_.open_, log_.Now(), 0});
      log_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      log_.spans_[idx_].end_s = log_.Now();
      log_.open_ = log_.spans_[idx_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int idx_ = -1;
  };

  explicit SpanLog(bool on) : on_(on) {}

  void BeginTestRun() { ++test_run_; }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (s.name == name) d.push_back(s.end_s - s.start_s);
    return d;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ChromeJson() const {
    json::Writer w;
    w.Raw("{\"traceEvents\": [");
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.Sep(&first, "\n", ",\n").Raw("{").Key("name").String(s.name);
      w.Raw(", ").Key("ph").String("X").Raw(", ").Key("pid").U64(1).Raw(", ");
      w.Key("tid").U64(1).Raw(", ").Key("ts").Double(s.start_s * 1e6).Raw(", ");
      w.Key("dur").Double((s.end_s - s.start_s) * 1e6).Raw(", ").Key("args").Raw("{");
      w.Key("span").U64(i).Raw(", ").Key("parent").I64(s.parent).Raw(", ");
      w.Key("test_run").U64(s.test_run).Raw("}}");
    }
    w.Raw("\n]}\n");
    return w.Take();
  }

 private:
  double Now() const { return Seconds(t0_, Clk::now()); }

  bool on_;
  Clk::time_point t0_ = Clk::now();
  std::vector<Span> spans_;
  std::uint64_t test_run_ = 0;
  int open_ = -1;
};

// ----------------------------------------------------------- expectations

/// The committed simulated statistics of one test in one mode. Host-side
/// work counts (dispatches, deltas, windows) are deliberately absent: a
/// simulator optimisation may change them.
struct Expect {
  std::uint64_t cycles = 0;
  std::uint64_t gm_digest = 0;
  std::uint64_t instret = 0;
  std::uint64_t noc_flits = 0;
  std::map<std::string, std::uint64_t> transfers;
};

using ExpectTable = std::map<std::string, std::map<std::string, Expect>>;  // mode -> test

std::string LoadExpect(const std::string& path, ExpectTable* out) {
  std::ifstream in(path);
  if (!in) return "cannot read " + path;
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value doc;
  if (std::string err = json::Parse(ss.str(), &doc); !err.empty()) return path + ": " + err;
  for (const char* mode : {"fast", "rtl"}) {
    const json::Value* m = doc.Find(mode);
    if (m == nullptr) return path + ": missing mode " + mode;
    for (const auto& [test, v] : m->fields) {
      Expect e;
      const json::Value* f = nullptr;
      if ((f = v.Find("cycles")) != nullptr) e.cycles = f->AsU64();
      if ((f = v.Find("gm_digest")) != nullptr) {
        char* end = nullptr;
        e.gm_digest = std::strtoull(f->text.c_str(), &end, 16);
        if (f->text.empty() || *end != '\0') return path + ": bad gm_digest for " + test;
      }
      if ((f = v.Find("instret")) != nullptr) e.instret = f->AsU64();
      if ((f = v.Find("noc_flits")) != nullptr) e.noc_flits = f->AsU64();
      if ((f = v.Find("transfers")) != nullptr)
        for (const auto& [ch, n] : f->fields) e.transfers[ch] = n.AsU64();
      (*out)[mode][test] = std::move(e);
    }
  }
  return "";
}

// ------------------------------------------------------------ the ledger

/// Per-layer counters accumulated over the traced test runs.
struct Ledger {
  double cycles = 0;      ///< controller cycles of the traced runs
  double run_wall_s = 0;  ///< their simulation wall time
  double workers = 1;     ///< engine workers (1 off the parallel engine)
  double dispatches = 0, thread_dispatches = 0, method_dispatches = 0;
  double deltas = 0, timed = 0;
  double proc_wall_ns = 0;
  std::map<std::string, double> group_wall_ns;  ///< by partition subtree
  double pe_busy = 0, pe_cycles = 0;
  double instret = 0, instret_cycles = 0, instret_wall_s = 0;
  double ch_transfers = 0, ch_stalls = 0, ch_rejects = 0, ch_ops = 0;
  double x_transfers = 0, x_sync_wait = 0, x_latency_ps = 0;
  double fifo_pushes = 0;
  double par_windows = 0, par_cycles = 0, par_window_wall_ns = 0;
  std::vector<double> par_worker_busy_ns;
  double chaos_events = 0, chaos_cycles = 0;
  double trace_spans = 0, trace_cycles = 0;
};

/// Partition subtree a process belongs to (its hierarchical name prefix).
const char* SubtreeOf(const std::string& process) {
  for (const char* g : {"soc.noc", "soc.pe", "soc.gm", "soc.ctrl", "soc.rtl_load"})
    if (process.rfind(g, 0) == 0) return g + 4;
  return "other";
}

/// Kernel counters at one instant; a test's share is after minus before.
struct KernelSnap {
  double dispatches = 0, thread_dispatches = 0, method_dispatches = 0;
  double deltas = 0, timed = 0;
  std::map<std::string, double> wall_ns;  ///< by subtree, plus "all"
};

KernelSnap Snap(const Simulator& sim) {
  KernelSnap k;
  k.dispatches = static_cast<double>(sim.dispatch_count());
  k.deltas = static_cast<double>(sim.delta_count());
  k.timed = static_cast<double>(sim.timed_fired());
  for (const auto& p : sim.processes()) {
    const double d = static_cast<double>(p->stat_dispatches);
    if (dynamic_cast<const ThreadProcess*>(p.get()) != nullptr) k.thread_dispatches += d;
    if (dynamic_cast<const MethodProcess*>(p.get()) != nullptr) k.method_dispatches += d;
    const double w = static_cast<double>(p->stat_wall_ns);
    k.wall_ns[SubtreeOf(p->name())] += w;
    k.wall_ns["all"] += w;
  }
  return k;
}

/// Adds one traced run's counters to the ledger. `before` is the snapshot
/// taken after elaboration, so only the test's own work counts.
void Harvest(const Simulator& sim, const KernelSnap& before, double cycles, double wall_s,
             Ledger* l) {
  const KernelSnap after = Snap(sim);
  l->cycles += cycles;
  l->run_wall_s += wall_s;
  l->workers = sim.parallel_shape().first;
  l->dispatches += after.dispatches - before.dispatches;
  l->thread_dispatches += after.thread_dispatches - before.thread_dispatches;
  l->method_dispatches += after.method_dispatches - before.method_dispatches;
  l->deltas += after.deltas - before.deltas;
  l->timed += after.timed - before.timed;
  for (const auto& [g, w] : after.wall_ns) {
    const auto it = before.wall_ns.find(g);
    const double d = w - (it == before.wall_ns.end() ? 0.0 : it->second);
    if (g == "all") {
      l->proc_wall_ns += d;
    } else {
      l->group_wall_ns[g] += d;
    }
  }
  const StatsRegistry& st = sim.stats();
  for (const auto& [name, c] : st.channels()) {
    l->ch_transfers += static_cast<double>(c.dequeues);
    l->ch_stalls += static_cast<double>(c.full_stall_cycles + c.empty_stall_cycles);
    l->ch_rejects += static_cast<double>(c.push_rejects + c.pop_rejects);
    l->ch_ops += static_cast<double>(c.push_rejects + c.pop_rejects + c.enqueues + c.dequeues);
  }
  for (const auto& [name, x] : st.crossings()) {
    l->x_transfers += static_cast<double>(x.transfers);
    l->x_sync_wait += static_cast<double>(x.enq_sync_wait_cycles + x.deq_sync_wait_cycles);
    l->x_latency_ps += static_cast<double>(x.total_latency_ps);
  }
  for (const auto& [name, f] : st.fifos()) l->fifo_pushes += static_cast<double>(f.pushes);

  // craft-par engine telemetry, as pulse exposes it. Pulse samples at
  // period boundaries, so windows are normalised by the sampled horizon.
  const PulseRegistry& pulse = sim.pulse();
  const PulseEngineSeries& es = pulse.engine_series();
  if (pulse.enabled() && !es.worker_busy_ns.empty() && pulse.windows().size() > 0) {
    const Time horizon = pulse.windows().at(pulse.windows().size() - 1).t_ps;
    l->par_windows += static_cast<double>(es.windows_run.last());
    l->par_cycles += static_cast<double>(horizon) / static_cast<double>(soc::SocConfig{}.nominal_period);
    l->par_window_wall_ns += static_cast<double>(es.window_wall_ns.last());
    l->par_worker_busy_ns.resize(es.worker_busy_ns.size(), 0.0);
    for (std::size_t w = 0; w < es.worker_busy_ns.size(); ++w)
      l->par_worker_busy_ns[w] += static_cast<double>(es.worker_busy_ns[w].last());
  }
}

// ---------------------------------------------------------------- the run

/// Time to elaborate one campaign SoC, up to and including a zero-length
/// Run, with the registries and chaos plan armed as RunSocWorkload arms
/// them. (The other workloads time the elaboration each test does anyway.)
double TimeCampaignSetup(std::uint64_t seed) {
  const auto t0 = Clk::now();
  Simulator sim;
  sim.stats().Enable();
  sim.cover().Enable();
  sim.trace_events().Enable();
  sim.chaos().Enable(chaos::SocLatencyPlan(seed));
  soc::SocTop soc(sim, ConfigFor(Kind::kCampaign));
  sim.Run(0);
  return Seconds(t0, Clk::now());
}

struct TestResult {
  std::string test;
  bool ok = false;  ///< golden GM compare and every expectation matched
  std::string error;
  std::uint64_t cycles = 0;        ///< simulated cycles this test contributes
  std::uint64_t clean_cycles = 0;  ///< fault-free cycles in the workload's mode
  std::uint64_t digest = 0, instret = 0, noc_flits = 0;
  double setup_s = 0;  ///< elaborating the SoC, up to and including Run(0)
  double wall_s = 0, cpu_s = 0;
};

class Bench {
 public:
  Bench(Kind kind, std::uint64_t seed, const ExpectTable& expect, bool traced)
      : kind_(kind), seed_(seed), expect_(expect), spans_(traced) {}

  SpanLog& spans() { return spans_; }
  const Ledger& ledger() const { return ledger_; }
  const Ledger& par_ledger() const { return par_ledger_; }
  const cover::Database& cover_db() const { return cover_db_; }

  /// One test on a fresh SoC.
  TestResult Run(const soc::Workload& w, Twin twin) {
    return kind_ == Kind::kCampaign ? RunCampaign(w, twin == Twin::kTraced) : RunSoc(w, twin);
  }

  /// Starts a pass: the campaign harvests each pass into one merged cover
  /// database.
  void BeginPass() { cover_db_ = cover::Database{}; }

  /// The campaign's cover check: the merged database survives a
  /// format/parse round trip unchanged. "" when it does.
  std::string CheckCoverRoundTrip() {
    SpanLog::Scope sp(spans_, "cover_roundtrip");
    const std::string text = cover::FormatJson(cover_db_);
    cover::Database back;
    if (std::string err = cover::Parse(text, &back); !err.empty()) return "cover parse: " + err;
    if (cover::FormatJson(back) != text || cover::Fingerprint(back) != cover::Fingerprint(cover_db_))
      return "cover database changed across a format/parse round trip";
    return "";
  }

 private:
  const Expect* Expected(const std::string& test) const {
    const auto m = expect_.find(ExpectMode(kind_));
    if (m == expect_.end()) return nullptr;
    const auto t = m->second.find(test);
    return t == m->second.end() ? nullptr : &t->second;
  }

  /// Compares simulated statistics with the committed expectation.
  void Check(const std::string& test, const Expect* e, std::uint64_t cycles,
             std::uint64_t digest, const std::uint64_t* instret, const std::uint64_t* flits,
             const std::map<std::string, std::uint64_t>& transfers, TestResult* r) const {
    std::ostringstream os;
    if (e == nullptr) {
      os << "no expectation for " << ExpectMode(kind_) << "/" << test;
    } else if (cycles != e->cycles) {
      os << "cycles " << cycles << " != expected " << e->cycles;
    } else if (digest != e->gm_digest) {
      os << "gm digest " << Hex(digest) << " != expected " << Hex(e->gm_digest);
    } else if (instret != nullptr && *instret != e->instret) {
      os << "instret " << *instret << " != expected " << e->instret;
    } else if (flits != nullptr && *flits != e->noc_flits) {
      os << "noc flits " << *flits << " != expected " << e->noc_flits;
    } else if (!transfers.empty() && transfers != e->transfers) {
      os << "per-channel transfer totals differ from the expectation";
    }
    if (!os.str().empty() && r->error.empty()) {
      r->ok = false;
      r->error = test + ": " + os.str();
    }
  }

  TestResult RunSoc(const soc::Workload& w, Twin twin) {
    TestResult r;
    r.test = w.name;
    spans_.BeginTestRun();
    const bool traced = twin != Twin::kPlain;
    const auto e0 = Clk::now();
    Simulator sim;
    if (traced) sim.stats().Enable();
    if (twin == Twin::kParallel) sim.pulse().Enable(PulseConfig{kPulsePeriod});
    std::optional<soc::SocTop> soc;
    {
      SpanLog::Scope sp(spans_, "elaborate");
      soc.emplace(sim, ConfigFor(kind_, twin));
      sim.Run(0);
    }
    r.setup_s = Seconds(e0, Clk::now());
    const KernelSnap before = traced ? Snap(sim) : KernelSnap{};
    const double cpu0 = CpuSeconds();
    const auto t0 = Clk::now();
    try {
      {
        SpanLog::Scope sp(spans_, "run");
        w.setup(*soc);
        r.cycles = soc->RunCommands(w.commands(*soc), 500_ms);
      }
      SpanLog::Scope sp(spans_, "check");
      r.ok = w.check(*soc, &r.error);
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = w.name + ": " + e.what();
    }
    const auto t1 = Clk::now();
    r.wall_s = Seconds(t0, t1);
    r.cpu_s = CpuSeconds() - cpu0;
    if (!r.ok) return r;
    r.clean_cycles = r.cycles;
    r.digest = GmDigest(*soc);
    r.instret = soc->controller().cpu().instret();
    r.noc_flits = soc->noc().total_flits_forwarded();
    Check(w.name, Expected(w.name), r.cycles, r.digest, &r.instret, &r.noc_flits,
          Transfers(sim), &r);
    if (twin == Twin::kParallel) {
      Harvest(sim, before, static_cast<double>(r.cycles), r.wall_s, &par_ledger_);
    } else if (traced) {
      Harvest(sim, before, static_cast<double>(r.cycles), r.wall_s, &ledger_);
      for (unsigned node : soc->pe_nodes()) {
        ledger_.pe_busy += static_cast<double>(soc->pe(node).busy_cycles());
        ledger_.pe_cycles += static_cast<double>(soc->pe(node).clk().cycle());
      }
      ledger_.instret += static_cast<double>(r.instret);
      ledger_.instret_cycles += static_cast<double>(r.cycles);
      ledger_.instret_wall_s += r.wall_s;
    }
    return r;
  }

  /// One campaign test: a fault-free run and a run under the seeded latency
  /// plan, both with stats, cover and trace on, each harvested into the
  /// pass's merged cover database.
  TestResult RunCampaign(const soc::Workload& w, bool traced) {
    TestResult r;
    r.test = w.name;
    spans_.BeginTestRun();
    r.setup_s = TimeCampaignSetup(seed_);
    const FaultPlan plan = chaos::SocLatencyPlan(seed_);
    std::string merge_error;
    double hooks_s = 0;
    chaos::CampaignHooks hooks;
    hooks.pre_elaborate = [](Simulator& sim) {
      sim.cover().Enable();
      sim.trace_events().Enable();
    };
    hooks.post_run = [&](Simulator& sim, const std::string& label) {
      const auto h0 = Clk::now();
      {
        SpanLog::Scope sp(spans_, "collect");
        cover::Database run_db;
        const std::string chaos_tag = label == "golden" ? "" : "latency";
        cover::Collect(sim,
                       {cover::MakeRunId("soc_gals_2x2:" + w.name, seed_, 1, chaos_tag),
                        "soc_gals_2x2:" + w.name, seed_, 1, chaos_tag, sim.now()},
                       &run_db);
        if (std::string err = cover::Merge(run_db, &cover_db_); !err.empty())
          merge_error = err;
      }
      {
        SpanLog::Scope sp(spans_, "format");
        stats::FormatJson(sim);
      }
      {
        SpanLog::Scope sp(spans_, "export");
        trace::FormatChromeJson(sim);
      }
      hooks_s += Seconds(h0, Clk::now());
      if (traced) {
        const ChaosEngine::LatencyTotals t = sim.chaos().latency_totals();
        ledger_.chaos_events += static_cast<double>(t.channel_stall_cycles + t.crossing_holds +
                                                    t.retimer_delays + t.wakeup_deferrals);
        ledger_.trace_spans += static_cast<double>(sim.trace_events().spans_allocated());
        Harvest(sim, KernelSnap{}, 0, 0, &ledger_);
      }
    };
    const soc::SocConfig cfg = ConfigFor(kind_);
    const double cpu0 = CpuSeconds();
    const auto t0 = Clk::now();
    chaos::RunRecord golden, faulted;
    {
      SpanLog::Scope sp(spans_, "campaign_run");
      golden = chaos::RunSocWorkload(cfg, w.name, nullptr, 0, "golden", nullptr, &hooks);
    }
    {
      SpanLog::Scope sp(spans_, "campaign_run");
      faulted = chaos::RunSocWorkload(cfg, w.name, &plan, 0, "latency", nullptr, &hooks);
    }
    const auto t1 = Clk::now();
    r.wall_s = Seconds(t0, t1);
    r.cpu_s = CpuSeconds() - cpu0;
    r.cycles = golden.fp.cycles + faulted.fp.cycles;
    r.clean_cycles = golden.fp.cycles;
    r.digest = golden.fp.digest;
    r.ok = golden.fp.ok && faulted.fp.ok;
    if (!golden.fp.ok) r.error = w.name + " (fault-free): " + golden.error;
    if (golden.fp.ok && !faulted.fp.ok) r.error = w.name + " (latency plan): " + faulted.error;
    if (r.ok && !merge_error.empty()) {
      r.ok = false;
      r.error = w.name + ": cover merge: " + merge_error;
    }
    if (r.ok && faulted.fp.digest != golden.fp.digest) {
      r.ok = false;
      r.error = w.name + ": latency plan changed the GM image (LI invariance)";
    }
    if (r.ok)
      Check(w.name, Expected(w.name), golden.fp.cycles, golden.fp.digest, nullptr, nullptr,
            golden.fp.transfers, &r);
    if (traced) {
      ledger_.cycles += static_cast<double>(r.cycles);
      // The simulation's wall is not separable from elaboration inside
      // RunSocWorkload: the ledger takes the campaign_run time minus the
      // reporters' (the spans' self time).
      ledger_.run_wall_s += r.wall_s - hooks_s;
      ledger_.chaos_cycles += static_cast<double>(faulted.fp.cycles);
      ledger_.trace_cycles += static_cast<double>(r.cycles);
    }
    return r;
  }

  Kind kind_;
  std::uint64_t seed_;
  const ExpectTable& expect_;
  SpanLog spans_;
  Ledger ledger_;
  Ledger par_ledger_;  ///< the craft-par twins' counters
  cover::Database cover_db_;
};

/// Resume/suspend round trip of one fiber, through the public Fiber API.
double FiberRoundtripNs() {
  Fiber f([] {
    for (;;) Fiber::Suspend();
  });
  constexpr int kN = 20000;
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clk::now();
    for (int i = 0; i < kN; ++i) f.resume();
    batches.push_back(Seconds(t0, Clk::now()) * 1e9 / kN);
  }
  return Median(batches);
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  json::Writer w;
  w.Raw("{").Key("correct").Bool(correct).Raw(", ").Key("attempted").U64(attempted);
  w.Raw(", ").Key("failed").U64(failed).Raw(", ").Key("metrics").Raw("{");
  bool first = true;
  for (const Metric& m : metrics) {
    char num[32];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    w.Sep(&first, "", ", ").Key(m.name).Raw("{").Key("value").Raw(num);
    w.Raw(", ").Key("unit").String(m.unit).Raw("}");
  }
  w.Raw("}}");
  return w.Take();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::vector<double> LoadAvg() {
  std::vector<double> v(3, 0.0);
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf %lf %lf", &v[0], &v[1], &v[2]) != 3) v.assign(3, 0.0);
    std::fclose(f);
  }
  return v;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Sum of cycles over per-test median walls / CPU times: robust to one
/// slow repetition of one test.
struct Rates {
  double kcycles_per_s = 0;
  double cpu_ms_per_kcycle = 0;
};

Rates RatesOf(const std::vector<TestResult>& results) {
  std::map<std::string, std::vector<double>> wall, cpu;
  std::map<std::string, std::uint64_t> cycles;
  for (const TestResult& r : results) {
    wall[r.test].push_back(r.wall_s);
    cpu[r.test].push_back(r.cpu_s);
    cycles[r.test] = r.cycles;
  }
  double kc = 0, w = 0, c = 0;
  for (const auto& [test, n] : cycles) {
    kc += static_cast<double>(n) / 1000.0;
    w += Median(wall[test]);
    c += Median(cpu[test]);
  }
  return {Ratio(kc, w), Ratio(c * 1000.0, kc)};
}

/// Writes the committed expectation file: every test once per mode with
/// the stats registry on, so per-channel transfer totals are included.
int WriteExpect(const std::string& path) {
  json::Writer w;
  w.Raw("{\n  ").Key("schema").String("socbench-expect-v1");
  for (const char* mode : {"fast", "rtl"}) {
    const bool rtl = std::string(mode) == "rtl";
    w.Raw(",\n  ").Key(mode).Raw("{");
    bool first = true;
    for (const soc::Workload& t : TestsFor(rtl ? Kind::kRtl : Kind::kFast)) {
      Simulator sim;
      sim.stats().Enable();
      soc::SocTop soc(sim, ConfigFor(rtl ? Kind::kRtl : Kind::kFast));
      const soc::WorkloadRun run = soc::RunWorkload(soc, t, 500_ms);
      if (!run.ok) {
        std::fprintf(stderr, "socbench: %s/%s failed: %s\n", mode, t.name.c_str(),
                     run.error.c_str());
        return 1;
      }
      w.Sep(&first, "\n    ", ",\n    ").Key(t.name).Raw("{").Key("cycles").U64(run.cycles);
      w.Raw(", ").Key("gm_digest").String(Hex(GmDigest(soc)));
      w.Raw(", ").Key("instret").U64(soc.controller().cpu().instret());
      w.Raw(", ").Key("noc_flits").U64(soc.noc().total_flits_forwarded());
      w.Raw(",\n      ").Key("transfers").Raw("{");
      bool first_ch = true;
      for (const auto& [ch, n] : Transfers(sim))
        w.Sep(&first_ch, "\n        ", ",\n        ").Key(ch).U64(n);
      w.Raw("}}");
    }
    w.Raw("\n  }");
  }
  w.Raw("\n}\n");
  std::ofstream out(path);
  out << w.str();
  return out ? 0 : 2;
}

constexpr const char* kUsage =
    "usage: socbench --workload soc_fast|soc_rtl|soc_campaign\n"
    "                [--seed N] [--seconds S] [--trace 0|1] [--expect FILE]\n"
    "                [--spans FILE]\n"
    "       socbench --write-expect FILE\n";

int Main(int argc, char** argv) {
  std::string workload, trace_flag = "0", expect_path = "socbench/expect.json";
  std::string spans_path, write_expect;
  std::uint64_t seed = 1;
  double seconds = 30;
  cli::Parser p("socbench", kUsage);
  std::vector<std::string> names;
  for (const WorkloadSpec& s : kWorkloads) names.push_back(s.name);
  p.Choice("--workload", &workload, names);
  p.U64("--seed", &seed);
  p.F64("--seconds", &seconds);
  p.Choice("--trace", &trace_flag, {"0", "1"});
  p.Str("--expect", &expect_path);
  p.Str("--spans", &spans_path);
  p.Str("--write-expect", &write_expect);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue) return cli::ExitCode(st);
  if (!write_expect.empty()) return WriteExpect(write_expect);
  if (workload.empty()) return cli::ExitCode(p.UsageError("--workload is required"));
  if (!(seconds > 0)) return cli::ExitCode(p.UsageError("--seconds must be positive"));

  const Kind kind =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const WorkloadSpec& s) { return workload == s.name; })->kind;
  const bool traced = trace_flag == "1";
  ExpectTable expect;
  if (std::string err = LoadExpect(expect_path, &expect); !err.empty()) {
    std::fprintf(stderr, "socbench: %s\n", err.c_str());
    return 2;
  }

  const std::vector<double> load_before = LoadAvg();
  const double fiber_ns = traced ? FiberRoundtripNs() : 0.0;

  Bench bench(kind, seed, expect, traced);
  const std::vector<soc::Workload> tests = TestsFor(kind);
  std::vector<Twin> twins = {Twin::kPlain};
  if (traced) twins.push_back(Twin::kTraced);
  if (traced && kind == Kind::kRtl) twins.push_back(Twin::kParallel);
  std::map<Twin, std::vector<TestResult>> runs;
  std::vector<double> pass_rates, pass_cpu;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, TestResult> per_test;  // simulated stats, for the record
  std::vector<std::string> first_order;         // test order of the first pass
  auto note = [&](const TestResult& r) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(r.error);
    }
    per_test[r.test] = r;
  };

  const auto start = Clk::now();
  std::map<std::string, double> slot_s;  // wall of a test's last slot, twins included
  unsigned full_passes = 0;
  for (unsigned pass = 0, done = 0; !done; ++pass) {
    bench.BeginPass();
    const std::size_t first = runs[Twin::kPlain].size();
    const std::vector<std::size_t> order = PassOrder(tests.size(), seed, pass);
    if (pass == 0)
      for (std::size_t i : order) first_order.push_back(tests[i].name);
    std::size_t ran = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const soc::Workload& w = tests[order[i]];
      // After one full pass, no test starts that would end past the budget.
      // Each test keeps its own median, so a partial pass adds samples
      // without changing the mix of tests.
      if (full_passes > 0 && Seconds(start, Clk::now()) + slot_s[w.name] > seconds) {
        done = 1;
        break;
      }
      // Twins rotate which goes first, so the tracing overhead and the
      // craft-par speedup compare runs made under the same host load.
      const auto s0 = Clk::now();
      for (std::size_t k = 0; k < twins.size(); ++k) {
        const Twin t = twins[(k + pass + i) % twins.size()];
        TestResult r = bench.Run(w, t);
        note(r);
        runs[t].push_back(std::move(r));
      }
      slot_s[w.name] = Seconds(s0, Clk::now());
      ++ran;
    }
    if (kind == Kind::kCampaign && ran > 0) {
      ++attempted;
      if (std::string err = bench.CheckCoverRoundTrip(); !err.empty()) {
        ++failed;
        failures.push_back(err);
      }
    }
    if (ran == order.size()) {
      ++full_passes;
      const std::vector<TestResult>& plain = runs[Twin::kPlain];
      const Rates pr = RatesOf({plain.begin() + static_cast<long>(first), plain.end()});
      pass_rates.push_back(pr.kcycles_per_s);
      pass_cpu.push_back(pr.cpu_ms_per_kcycle);
    }
  }
  const std::vector<TestResult>& plain = runs[Twin::kPlain];
  // Set-up is sampled once per test run, spread over the whole run, so a
  // short burst of host noise cannot cover every sample.
  std::vector<double> setup;
  for (const TestResult& r : plain) setup.push_back(r.setup_s);
  const double measured_s = Seconds(start, Clk::now());
  const std::vector<double> load_after = LoadAvg();

  std::vector<Metric> metrics;
  if (!traced) {
    const Rates rates = RatesOf(plain);
    std::uint64_t passed_tests = 0, tests_run = 0;
    for (const TestResult& r : plain) {
      ++tests_run;
      if (r.ok) ++passed_tests;
    }
    // Fig. 6 accuracy: |rtl - fast| / rtl over the six Fig. 6 tests. The
    // mode the workload runs is measured; the other side is the committed
    // expectation of the fault-free model.
    double err_sum = 0;
    unsigned err_n = 0;
    for (const soc::Workload& t : soc::SixSocTests()) {
      const auto it = per_test.find(t.name);
      if (it == per_test.end()) continue;
      const bool rtl_side = kind == Kind::kRtl;
      const double measured = static_cast<double>(it->second.clean_cycles);
      const auto& other = expect[rtl_side ? "fast" : "rtl"];
      const auto e = other.find(t.name);
      if (e == other.end() || measured == 0) continue;
      const double rtl = rtl_side ? measured : static_cast<double>(e->second.cycles);
      const double fast = rtl_side ? static_cast<double>(e->second.cycles) : measured;
      err_sum += std::abs(rtl - fast) / rtl;
      ++err_n;
    }
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"sim_kcycles_per_s", rates.kcycles_per_s, "kcycles/s"},
        {"cpu_ms_per_kcycle", rates.cpu_ms_per_kcycle, "ms/kcycle"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"test_pass_frac", Ratio(static_cast<double>(passed_tests), static_cast<double>(tests_run)),
         "fraction"},
        {"fig6_cycle_err_pct", err_n == 0 ? 0.0 : 100.0 * err_sum / err_n, "%"},
    };
  } else {
    const Ledger& l = bench.ledger();
    const Ledger& pl = bench.par_ledger();
    double busy_sum = 0, busy_max = 0;
    for (double b : pl.par_worker_busy_ns) {
      busy_sum += b;
      busy_max = std::max(busy_max, b);
    }
    const double nw = static_cast<double>(pl.par_worker_busy_ns.size());
    auto group = [&](const char* g) {
      const auto it = l.group_wall_ns.find(g);
      return Ratio(it == l.group_wall_ns.end() ? 0.0 : it->second, l.proc_wall_ns);
    };
    auto median_span = [&](const char* name) { return Median(bench.spans().Durations(name)); };
    const double untraced_rate = RatesOf(plain).kcycles_per_s;
    const double traced_rate = RatesOf(runs[Twin::kTraced]).kcycles_per_s;
    const double par_rate = RatesOf(runs[Twin::kParallel]).kcycles_per_s;
    metrics = {
        {"kernel.fiber_roundtrip_ns", fiber_ns, "ns"},
        {"kernel.dispatches_per_cycle", Ratio(l.dispatches, l.cycles), "1/cycle"},
        {"kernel.thread_dispatches_per_cycle", Ratio(l.thread_dispatches, l.cycles), "1/cycle"},
        {"kernel.method_dispatches_per_cycle", Ratio(l.method_dispatches, l.cycles), "1/cycle"},
        {"kernel.deltas_per_cycle", Ratio(l.deltas, l.cycles), "1/cycle"},
        {"kernel.timed_events_per_cycle", Ratio(l.timed, l.cycles), "1/cycle"},
        {"kernel.ns_per_dispatch", Ratio(l.run_wall_s * 1e9, l.dispatches), "ns"},
        {"kernel.self_s_share",
         1.0 - Ratio(l.proc_wall_ns * 1e-9, l.run_wall_s * l.workers), "fraction"},
        {"par.windows_per_cycle", Ratio(pl.par_windows, pl.par_cycles), "1/cycle"},
        {"par.barrier_wait_share", nw == 0 ? 0.0 : 1.0 - Ratio(busy_sum, nw * pl.par_window_wall_ns),
         "fraction"},
        {"par.worker_busy_imbalance", nw == 0 ? 0.0 : Ratio(busy_max, busy_sum / nw), "ratio"},
        {"par.speedup_vs_n1", Ratio(par_rate, traced_rate), "ratio"},
        {"connections.transfers_per_cycle", Ratio(l.ch_transfers, l.cycles), "1/cycle"},
        {"connections.stall_cycles_per_transfer", Ratio(l.ch_stalls, l.ch_transfers), "cycles"},
        {"connections.nb_reject_ratio", Ratio(l.ch_rejects, l.ch_ops), "fraction"},
        {"gals.crossing_transfers_per_cycle", Ratio(l.x_transfers, l.cycles), "1/cycle"},
        {"gals.sync_wait_cycles_per_transfer", Ratio(l.x_sync_wait, l.x_transfers), "cycles"},
        {"gals.crossing_latency_ps_mean", Ratio(l.x_latency_ps, l.x_transfers), "ps"},
        {"matchlib.vc_fifo_pushes_per_cycle", Ratio(l.fifo_pushes, l.cycles), "1/cycle"},
        {"soc.noc_s_share", group("noc"), "fraction"},
        {"soc.pe_s_share", group("pe"), "fraction"},
        {"soc.gm_s_share", group("gm"), "fraction"},
        {"soc.ctrl_s_share", group("ctrl"), "fraction"},
        {"soc.rtl_load_s_share", group("rtl_load"), "fraction"},
        {"soc.pe_utilization", Ratio(l.pe_busy, l.pe_cycles), "fraction"},
        {"riscv.ipc", Ratio(l.instret, l.instret_cycles), "instr/cycle"},
        {"riscv.instret_per_host_s", Ratio(l.instret, l.instret_wall_s), "instr/s"},
        {"chaos.injections_per_kcycle", Ratio(l.chaos_events, l.chaos_cycles / 1000.0),
         "1/kcycle"},
        {"cover.hit_ratio",
         [&] {
           const cover::Summary s = cover::Summarize(bench.cover_db());
           return Ratio(static_cast<double>(s.bins_hit), static_cast<double>(s.bins));
         }(),
         "fraction"},
        {"cover.collect_s", median_span("collect"), "s"},
        {"stats.format_json_s", median_span("format"), "s"},
        {"trace.spans_per_kcycle", Ratio(l.trace_spans, l.trace_cycles / 1000.0), "1/kcycle"},
        {"trace.export_s", median_span("export"), "s"},
        {"bench.trace_overhead_pct", 100.0 * (1.0 - Ratio(traced_rate, untraced_rate)), "%"},
    };
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      out << bench.spans().ChromeJson();
      if (!out) std::fprintf(stderr, "socbench: cannot write %s\n", spans_path.c_str());
    }
  }

  // The record line: host shape, noise floor and per-test simulated stats.
  json::Writer rec;
  rec.Raw("{").Key("socbench").Raw("{").Key("workload").String(workload);
  rec.Raw(", ").Key("seed").U64(seed).Raw(", ").Key("trace").Bool(traced);
  rec.Raw(", ").Key("full_passes").U64(full_passes).Raw(", ").Key("tests_run").U64(plain.size());
  rec.Raw(", ").Key("measured_s").Double(measured_s);
  rec.Raw(", ").Key("host").Raw("{").Key("nproc").I64(sysconf(_SC_NPROCESSORS_ONLN));
  rec.Raw(", ").Key("cpu_model").String(CpuModel());
  rec.Raw(", ").Key("compiler").String(SOCBENCH_COMPILER);
  rec.Raw(", ").Key("build_type").String(SOCBENCH_BUILD_TYPE);
  for (const auto& [key, la] : {std::pair{"loadavg_before", load_before},
                                std::pair{"loadavg_after", load_after}}) {
    rec.Raw(", ").Key(key).Raw("[");
    for (std::size_t i = 0; i < la.size(); ++i) rec.Raw(i ? ", " : "").Double(la[i]);
    rec.Raw("]");
  }
  rec.Raw("}, ").Key("noise").Raw("{");
  // Spread within this run, as IQR over median across passes (setup: across
  // its samples); -1 where fewer than two samples exist.
  rec.Key("sim_kcycles_per_s").Double(QuartileSpread(pass_rates)).Raw(", ");
  rec.Key("cpu_ms_per_kcycle").Double(QuartileSpread(pass_cpu)).Raw(", ");
  rec.Key("setup_s").Double(QuartileSpread(setup)).Raw("}, ").Key("tests").Raw("{");
  bool first = true;
  for (const auto& [name, r] : per_test) {
    rec.Sep(&first, "", ", ").Key(name).Raw("{").Key("cycles").U64(r.clean_cycles);
    rec.Raw(", ").Key("gm_digest").String(Hex(r.digest)).Raw(", ").Key("instret").U64(r.instret);
    rec.Raw(", ").Key("noc_flits").U64(r.noc_flits).Raw("}");
  }
  rec.Raw("}, ").Key("order").Raw("[");
  for (std::size_t i = 0; i < first_order.size(); ++i)
    rec.Raw(i ? ", " : "").String(first_order[i]);
  rec.Raw("], ").Key("failures").Raw("[");
  for (std::size_t i = 0; i < failures.size(); ++i) rec.Raw(i ? ", " : "").String(failures[i]);
  rec.Raw("]}}");
  std::printf("%s\n%s\n", rec.str().c_str(),
              ResultLine(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace craft::socbench

int main(int argc, char** argv) { return craft::socbench::Main(argc, argv); }
