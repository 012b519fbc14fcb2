#include "lint/ref_designs.hpp"

#include <algorithm>
#include <sstream>

#include "connections/packetizer.hpp"
#include "connections/retimer.hpp"
#include "gals/gals.hpp"
#include "kernel/kernel.hpp"
#include "matchlib/routers.hpp"

namespace craft::lint {

using namespace craft::literals;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) { return (h ^ v) * kFnvPrime; }

/// The fine-grained GALS pipeline of examples/gals_multiclock: three
/// partitions, two pausible crossings, fully bound endpoints.
struct GalsPipeline {
  struct Stage : Module {
    connections::In<int> in;
    connections::Out<int> out;
    Stage(Module& parent, Clock& clk) : Module(parent, "stage") {
      Thread("run", clk, [this] {
        for (;;) out.Push(in.Pop() + 1);
      });
    }
  };
  struct Source : Module {
    connections::Out<int> out;
    Source(Module& parent, Clock& clk) : Module(parent, "feed") {
      Thread("run", clk, [this] {
        for (int i = 0;; ++i) out.Push(i);
      });
    }
  };
  struct Sink : Module {
    connections::In<int> in;
    Sink(Module& parent, Clock& clk) : Module(parent, "drain") {
      Thread("run", clk, [this] {
        for (;;) (void)in.Pop();
      });
    }
  };

  explicit GalsPipeline(Simulator& sim)
      : top(sim, "pipe"),
        p0(top, "src", {.nominal_period = 1000, .seed = 1}),
        p1(top, "mid", {.nominal_period = 1300, .seed = 2}),
        p2(top, "snk", {.nominal_period = 800, .seed = 3}),
        c01(top, "c01", p0.clk(), p1.clk()),
        c12(top, "c12", p1.clk(), p2.clk()),
        feed(p0, p0.clk()),
        mid(p1, p1.clk()),
        drain(p2, p2.clk()) {
    feed.out(c01.producer_end());
    mid.in(c01.consumer_end());
    mid.out(c12.producer_end());
    drain.in(c12.consumer_end());
  }

  Module top;
  gals::Partition p0, p1, p2;
  gals::AsyncChannel<int> c01, c12;
  Source feed;
  Stage mid;
  Sink drain;
};

/// The value the LI pipeline sends at position i: position-dependent with
/// bits spread over the whole word, so any flip, loss or reordering shows up
/// in both the payload oracle and the stream digest.
std::uint32_t Payload(unsigned i) {
  return (static_cast<std::uint32_t>(i) * 0x9E3779B9u) ^ 0xC3A5C85Cu;
}

/// The LI pipeline harness: every fault-hosting component in one bounded
/// design. Source and sink know the full expected stream, so the sink is
/// itself a detection site (payload oracle).
///
///   src -> src_q -> Retimer<2> -> rt_q -> Packetizer<u32,16> -> link(Flit)
///       -> DePacketizer -> AsyncChannel (1000ps -> 1300ps) -> snk
///
/// 16-bit flits give 2 flits per message, so the depacketizer's framing
/// checks see structure worth checking, and every payload bit of a flit
/// lands in the reassembled message (no silently-ignored flip targets).
struct LiHarness {
  struct Source : Module {
    connections::Out<std::uint32_t> out;
    Source(Module& parent, Clock& clk, unsigned n) : Module(parent, "src") {
      Thread("run", clk, [this, n] {
        for (unsigned i = 0; i < n; ++i) out.Push(Payload(i));
        for (;;) wait();
      });
    }
  };

  struct Sink : Module {
    connections::In<std::uint32_t> in;
    std::uint64_t digest = kFnvOffset;
    std::uint64_t received = 0;
    Sink(Module& parent, Clock& clk, unsigned n) : Module(parent, "snk") {
      Thread("run", clk, [this, n] {
        unsigned mismatches = 0;
        for (unsigned i = 0; i < n; ++i) {
          const std::uint32_t v = in.Pop();
          if (v != Payload(i) && ++mismatches <= 4) {
            sim().chaos().ReportDetection(
                full_name(), "payload-mismatch",
                "position " + std::to_string(i) + ": got 0x" + ToHex(v) +
                    ", expected 0x" + ToHex(Payload(i)));
          }
          digest = Mix(digest, v);
          ++received;
        }
        done_ = true;
        sim().Stop();
        for (;;) wait();
      });
    }
    bool done() const { return done_; }

   private:
    static std::string ToHex(std::uint32_t v) {
      std::ostringstream os;
      os << std::hex << v;
      return os.str();
    }
    bool done_ = false;
  };

  LiHarness(Simulator& sim, unsigned messages)
      : top(sim, "li"),
        clk_a(sim, "clk_a", 1000),
        clk_b(sim, "clk_b", 1300),
        src(top, clk_a, messages),
        src_q(top, "src_q", clk_a),
        rt(top, "rt", clk_a),
        rt_q(top, "rt_q", clk_a),
        pack(top, "pack", clk_a),
        link(top, "link", clk_a),
        depack(top, "depack", clk_a),
        cross(top, "cross", clk_a, clk_b),
        snk(top, clk_b, messages) {
    src.out(src_q);
    rt.in(src_q);
    rt.out(rt_q);
    pack.in(rt_q);
    pack.out(link);
    depack.in(link);
    depack.out(cross.producer_end());
    snk.in(cross.consumer_end());
  }

  Module top;
  Clock clk_a, clk_b;
  Source src;
  connections::Buffer<std::uint32_t> src_q;
  connections::Retimer<std::uint32_t, 2> rt;
  connections::Buffer<std::uint32_t> rt_q;
  connections::Packetizer<std::uint32_t, kPipelineFlitBits> pack;
  connections::Buffer<connections::Flit> link;
  connections::DePacketizer<std::uint32_t, kPipelineFlitBits> depack;
  gals::AsyncChannel<std::uint32_t> cross;
  Sink snk;
};

/// A saturating 4-hop wormhole NoC chain (the bench/noc_routers topology
/// with endless traffic): source floods 8-flit packets, sink drains, every
/// link runs near its structural 1-flit-per-cycle bound.
struct NocChain {
  static constexpr unsigned kHops = 4;
  static constexpr unsigned kFlitsPerPacket = 8;
  using Router = matchlib::WHVCRouter<2, 1>;

  struct Tb : Module {
    Tb(Module& parent, Clock& clk, connections::Buffer<connections::Flit>& inj,
       connections::Buffer<connections::Flit>& ej)
        : Module(parent, "tb") {
      Thread("src", clk, [&inj] {
        for (std::uint64_t pkt = 0;; ++pkt) {
          for (unsigned i = 0; i < kFlitsPerPacket; ++i) {
            connections::Flit f;
            f.payload = (pkt << 8) | i;
            f.first = (i == 0);
            f.last = (i + 1 == kFlitsPerPacket);
            f.dest = 0;
            inj.Push(f);
          }
        }
      });
      Thread("dst", clk, [&ej] {
        for (;;) (void)ej.Pop();
      });
    }
  };

  explicit NocChain(Simulator& sim)
      : clk(sim, "clk", 1_ns),
        top(sim, "top"),
        inj(top, "inj", clk, 4),
        ej(top, "ej", clk, 4) {
    for (unsigned h = 0; h < kHops; ++h) {
      const bool last = (h + 1 == kHops);
      routers.push_back(std::make_unique<Router>(
          top, "r" + std::to_string(h), clk,
          [last](std::uint8_t) { return last ? 0u : 1u; }));
    }
    routers[0]->in[0][0](inj);
    for (unsigned h = 0; h + 1 < kHops; ++h) {
      links.push_back(std::make_unique<connections::Buffer<connections::Flit>>(
          top, "l" + std::to_string(h), clk, 2));
      routers[h]->out[1][0](*links.back());
      routers[h + 1]->in[1][0](*links.back());
    }
    routers[kHops - 1]->out[0][0](ej);
    tb = std::make_unique<Tb>(top, clk, inj, ej);
  }

  Clock clk;
  Module top;
  connections::Buffer<connections::Flit> inj, ej;
  std::vector<std::unique_ptr<Router>> routers;
  std::vector<std::unique_ptr<connections::Buffer<connections::Flit>>> links;
  std::unique_ptr<Tb> tb;
};

template <typename T>
RefDesign MakeStream(std::string name) {
  return RefDesign{std::move(name), RefDesign::Kind::kStream,
                   [](Simulator& sim) -> std::shared_ptr<void> {
                     return std::make_shared<T>(sim);
                   },
                   std::nullopt};
}

RefDesign MakeSoc(std::string name, soc::SocConfig cfg) {
  return RefDesign{std::move(name), RefDesign::Kind::kSoc,
                   [cfg](Simulator& sim) -> std::shared_ptr<void> {
                     return std::make_shared<soc::SocTop>(sim, cfg);
                   },
                   cfg};
}

/// Runs `sim` until `done()` or until `progress()` has been flat for two
/// 20 us chunks (~40k producer cycles) — the bounded-hang driver a drop
/// fault needs: a lost token legitimately stalls the sink forever.
void RunQuiescent(Simulator& sim, const std::function<bool()>& done,
                  const std::function<std::uint64_t()>& progress) {
  std::uint64_t last = ~0ull;
  int idle = 0;
  while (!done() && idle < 2) {
    sim.Run(20_us);
    const std::uint64_t p = progress();
    if (p == last) {
      ++idle;
    } else {
      idle = 0;
      last = p;
    }
  }
}

std::string FindWorkload(const std::string& name, soc::Workload* out) {
  for (soc::Workload& w : soc::AllWorkloads()) {
    if (w.name == name) {
      *out = std::move(w);
      return "";
    }
  }
  return "unknown workload '" + name + "'";
}

}  // namespace

std::vector<RefDesign> ReferenceDesigns() {
  return {MakeSoc("soc_gals_2x2", {}),  // 2x2 GALS mesh: ctrl + gm + 2 PEs
          MakeSoc("soc_sync_2x2", {.gals = false}),
          MakeSoc("soc_gals_io_2x2", {.with_io = true}),
          MakeSoc("soc_gals_3x3", {.mesh_width = 3, .mesh_height = 3}),
          MakeStream<GalsPipeline>("gals_pipeline")};
}

std::vector<RefDesign> Scenarios() {
  std::vector<RefDesign> out{RefDesign{
      "li_pipeline", RefDesign::Kind::kPipeline,
      [](Simulator& sim) -> std::shared_ptr<void> {
        return std::make_shared<LiHarness>(sim, 64);
      },
      std::nullopt}};
  for (RefDesign& d : ReferenceDesigns()) out.push_back(std::move(d));
  out.push_back(MakeStream<NocChain>("noc_chain"));
  return out;
}

std::string SelectWorkloads(const std::vector<std::string>& names,
                            std::vector<soc::Workload>* out) {
  soc::Workload w;
  for (const std::string& n : names) {
    if (n == "all") continue;
    if (std::string err = FindWorkload(n, &w); !err.empty()) return err;
  }
  const bool all = std::find(names.begin(), names.end(), "all") != names.end();
  for (soc::Workload& cand : soc::AllWorkloads()) {
    if (all || std::find(names.begin(), names.end(), cand.name) != names.end())
      out->push_back(std::move(cand));
  }
  return "";
}

std::string Resolve(const std::string& spec, RefDesign* design,
                    std::string* workload) {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  for (RefDesign& d : Scenarios()) {
    if (d.name != name) continue;
    workload->clear();
    if (d.kind == RefDesign::Kind::kSoc) {
      *workload = colon == std::string::npos ? kDefaultWorkload : spec.substr(colon + 1);
      soc::Workload w;
      if (std::string err = FindWorkload(*workload, &w); !err.empty()) return err;
    } else if (colon != std::string::npos) {
      return "design '" + name + "' runs no SoC workload";
    }
    *design = std::move(d);
    return "";
  }
  return "unknown design '" + name + "'";
}

ScenarioRun RunScenario(const RefDesign& design, const RunSpec& spec) {
  using Kind = RefDesign::Kind;
  ScenarioRun r;
  r.name = design.kind == Kind::kSoc ? spec.workload : design.name;
  soc::Workload workload;
  if (design.kind == Kind::kSoc) {
    r.error = FindWorkload(spec.workload, &workload);
    if (!r.error.empty()) return r;
  }

  Simulator sim;
  sim.stats().Enable();
  if (spec.plan != nullptr) sim.chaos().Enable(*spec.plan);
  if (spec.arm) spec.arm(sim);
  if (spec.parallelism >= 1) sim.SetParallelism(spec.parallelism);
  std::unique_ptr<soc::SocTop> soc;
  std::unique_ptr<LiHarness> li;
  std::shared_ptr<void> handle;
  switch (design.kind) {
    case Kind::kSoc: {
      soc::SocConfig cfg = *design.soc_cfg;
      if (spec.parallelism >= 1) cfg.parallelism = spec.parallelism;
      soc = std::make_unique<soc::SocTop>(sim, cfg);
      break;
    }
    case Kind::kPipeline:
      li = std::make_unique<LiHarness>(sim, spec.messages);
      break;
    case Kind::kStream:
      handle = design.build(sim);
      break;
  }
  if (spec.elaborated) spec.elaborated(sim);

  bool sim_error = false;
  try {
    if (soc) {
      static_cast<soc::WorkloadRun&>(r) =
          soc::RunWorkload(*soc, workload, spec.horizon != 0 ? spec.horizon : 50_ms);
    } else if (li) {
      RunQuiescent(
          sim, [&] { return li->snk.done(); }, [&] { return li->snk.received; });
    } else {
      sim.RunUntil(spec.horizon != 0 ? spec.horizon : 300_us);
      r.ok = true;
    }
  } catch (const SimError& e) {
    r.ok = false;
    r.error = e.what();
    sim_error = true;
  }
  if (soc) {
    r.digest = kFnvOffset;
    for (std::uint32_t w = 0; w < soc::SocTop::Gm::SizeWords(); ++w)
      r.digest = Mix(r.digest, soc->PeekGm(w));
  }
  if (li) {
    r.ok = li->snk.done() && r.error.empty();
    r.cycles = li->clk_b.cycle();
    r.digest = li->snk.digest;
    if (!li->snk.done() && r.error.empty())
      r.error = "sink stalled at " + std::to_string(li->snk.received) + "/" +
                std::to_string(spec.messages) + " messages";
  }
  if (spec.plan != nullptr && !spec.plan->latency_only() && !r.ok) {
    sim.chaos().ReportDetection(
        "campaign", soc ? "golden-divergence" : sim_error ? "sim-error" : "shortfall",
        r.error);
  }
  if (spec.finished) spec.finished(sim, soc.get(), r);
  return r;
}

}  // namespace craft::lint
