// SocTop: the prototype ML SoC of paper Fig. 5 / §4.
//
// A W x H mesh of GALS partitions: node 0 is the RISC-V global controller,
// node 1 the banked Global Memory, and every remaining node a Processing
// Element. In GALS mode each node owns a LocalClockGenerator and all
// router-to-router links cross domains through pausible bisynchronous
// FIFOs; in single-clock mode the whole mesh shares one clock (the
// methodology comparison baseline). An optional RTL-cosim emulation mode
// adds the per-cycle signal-evaluation load and pipeline-drain latencies of
// HLS-generated RTL for the Fig. 6 experiment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gals/clock_gen.hpp"
#include "kernel/design_graph.hpp"
#include "soc/controller.hpp"
#include "soc/global_memory.hpp"
#include "soc/host_io.hpp"
#include "soc/noc.hpp"
#include "soc/pe.hpp"
#include "soc/rtl_load.hpp"

namespace craft::soc {

struct SocConfig {
  unsigned mesh_width = 2;
  unsigned mesh_height = 2;
  bool gals = true;                   ///< per-node clock generators vs one clock
  Time nominal_period = 1000;         ///< ps (~1 GHz, cf. 1.1 GHz signoff)
  double gals_noise_amplitude = 0.04; ///< supply-noise modulation depth
  bool rtl_cosim = false;             ///< emulate RTL simulation load (Fig. 6)
  unsigned rtl_signals_per_node = 10240;  ///< modeled netlist nets per partition
  unsigned rtl_pe_drain_cycles = 5;   ///< HLS pipeline drain per kernel
  bool with_io = false;               ///< instantiate the I/O partition (node 2)
  /// craft-par worker threads (0 = leave the simulator's setting untouched:
  /// CRAFT_PARALLELISM or 1; >= 1 calls SetParallelism). In GALS mode each
  /// node is its own clock-domain group, so the mesh partitions naturally.
  unsigned parallelism = 0;
};

class SocTop : public Module {
 public:
  static constexpr unsigned kControllerNode = 0;
  static constexpr unsigned kGlobalMemoryNode = 1;
  static constexpr unsigned kIoNode = 2;  ///< only when cfg.with_io

  using Gm = GlobalMemory<8, 4096>;

  SocTop(Simulator& sim, const SocConfig& cfg) : Module(sim, "soc"), cfg_(cfg) {
    const unsigned n = cfg.mesh_width * cfg.mesh_height;
    CRAFT_ASSERT(n >= 3, "SoC needs controller + global memory + >= 1 PE");
    if (cfg.parallelism >= 1) sim.SetParallelism(cfg.parallelism);
    // Clock domains: one generator per partition in GALS mode.
    if (cfg.gals) {
      for (unsigned i = 0; i < n; ++i) {
        gals::ClockGenConfig cg;
        cg.nominal_period = cfg.nominal_period;
        // Deterministic per-node process spread of a few percent.
        cg.static_offset = ((static_cast<int>((i * 7) % 11) - 5)) * 0.005;
        cg.noise_amplitude = cfg.gals_noise_amplitude;
        cg.seed = 1000 + i;
        clock_gens_.push_back(std::make_unique<gals::LocalClockGenerator>(
            sim, "clkgen" + std::to_string(i), cg));
        clocks_.push_back(clock_gens_.back().get());
      }
    } else {
      shared_clock_ = std::make_unique<Clock>(sim, "clk", cfg.nominal_period);
      clocks_.assign(n, shared_clock_.get());
    }

    noc_ = std::make_unique<MeshNoc>(*this, "noc", cfg.mesh_width, cfg.mesh_height,
                                     clocks_);

    controller_ = std::make_unique<ControllerNode>(*this, "ctrl", *clocks_[kControllerNode],
                                                   kControllerNode);
    BindNi(controller_->ni(), kControllerNode);

    gm_ = std::make_unique<Gm>(*this, "gm", *clocks_[kGlobalMemoryNode]);
    BindNi(gm_->ni(), kGlobalMemoryNode);

    unsigned first_pe = 2;
    if (cfg.with_io) {
      CRAFT_ASSERT(n >= 4, "I/O partition needs a >= 4-node mesh");
      io_ = std::make_unique<HostIoNode>(*this, "io", *clocks_[kIoNode],
                                         static_cast<std::uint8_t>(kIoNode));
      BindNi(io_->ni(), kIoNode);
      first_pe = 3;
    }

    for (unsigned i = first_pe; i < n; ++i) {
      pes_.push_back(std::make_unique<ProcessingElement>(
          *this, "pe" + std::to_string(i), *clocks_[i], static_cast<std::uint8_t>(i),
          kGlobalMemoryNode, cfg.rtl_cosim ? cfg.rtl_pe_drain_cycles : 0));
      BindNi(pes_.back()->ni(), i);
      pe_nodes_.push_back(i);
    }

    if (cfg.rtl_cosim) {
      for (unsigned i = 0; i < n; ++i) {
        rtl_load_.push_back(std::make_unique<RtlActivityEmulator>(
            *this, "rtl_load" + std::to_string(i), *clocks_[i],
            cfg.rtl_signals_per_node));
      }
    }

    // Tag each node's subtree with its clock domain so the CDC lint rules
    // can prove every cross-domain link goes through a pausible crossing.
    if (cfg.gals) {
      DesignGraph& dg = sim.design_graph();
      dg.AddDomainScope(controller_->full_name(), clocks_[kControllerNode],
                        clocks_[kControllerNode]->name());
      dg.AddDomainScope(gm_->full_name(), clocks_[kGlobalMemoryNode],
                        clocks_[kGlobalMemoryNode]->name());
      if (io_) dg.AddDomainScope(io_->full_name(), clocks_[kIoNode], clocks_[kIoNode]->name());
      for (std::size_t i = 0; i < pes_.size(); ++i) {
        Clock* c = clocks_[pe_nodes_[i]];
        dg.AddDomainScope(pes_[i]->full_name(), c, c->name());
      }
    }
  }

  const SocConfig& config() const { return cfg_; }
  ControllerNode& controller() { return *controller_; }
  Gm& gm() { return *gm_; }
  MeshNoc& noc() { return *noc_; }
  const std::vector<unsigned>& pe_nodes() const { return pe_nodes_; }
  ProcessingElement& pe(unsigned node) {
    return *pes_.at(node - (cfg_.with_io ? 3 : 2));
  }
  Clock& node_clock(unsigned node) { return *clocks_.at(node); }

  /// The I/O partition (host AXI bridge); only with cfg.with_io.
  HostIoNode& io() {
    CRAFT_ASSERT(io_ != nullptr, "SoC built without the I/O partition");
    return *io_;
  }

  /// Loads the command-processor program + command table and lets the
  /// RISC-V controller run the workload to completion (or `max_time`).
  /// Returns elapsed controller-clock cycles.
  std::uint64_t RunCommands(const std::vector<Command>& cmds, Time max_time) {
    static constexpr std::uint32_t kTableBase = 0x8000;
    controller_->LoadProgram(BuildCommandProcessorProgram(kTableBase));
    LoadCommandTable(*controller_, kTableBase, cmds);
    controller_->Restart();
    Simulator& s = sim();
    const std::uint64_t start_cycle = clocks_[kControllerNode]->cycle();
    const Time deadline = s.now() + max_time;
    while (!controller_->halted() && s.now() < deadline && !s.stopped()) {
      s.Run(std::min<Time>(cfg_.nominal_period * 64, deadline - s.now()));
    }
    CRAFT_ASSERT(controller_->halted(), "workload did not complete in time");
    return clocks_[kControllerNode]->cycle() - start_cycle;
  }

  // ---- testbench access to global memory ----

  void PreloadGm(std::uint32_t word_addr, std::uint64_t value) {
    gm_->mem().raw().at(word_addr) = value;
  }
  std::uint64_t PeekGm(std::uint32_t word_addr) { return gm_->mem().raw().at(word_addr); }

 private:
  void BindNi(NodeNI& ni, unsigned node) { ni.BindMesh(*noc_, node); }

  SocConfig cfg_;
  std::vector<std::unique_ptr<gals::LocalClockGenerator>> clock_gens_;
  std::unique_ptr<Clock> shared_clock_;
  std::vector<Clock*> clocks_;
  std::unique_ptr<MeshNoc> noc_;
  std::unique_ptr<ControllerNode> controller_;
  std::unique_ptr<Gm> gm_;
  std::unique_ptr<HostIoNode> io_;
  std::vector<std::unique_ptr<ProcessingElement>> pes_;
  std::vector<unsigned> pe_nodes_;
  std::vector<std::unique_ptr<RtlActivityEmulator>> rtl_load_;
};

}  // namespace craft::soc
