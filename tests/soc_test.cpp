// Integration tests for the prototype SoC: controller-to-node transactions
// over the NoC, PE kernels, global memory, GALS operation, and the six
// SoC-level workloads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "soc/workloads.hpp"

namespace craft::soc {
namespace {

using namespace craft::literals;

SocConfig SingleClock2x2() {
  SocConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.gals = false;
  return cfg;
}

TEST(SocTransactions, ControllerWritesAndPollsGlobalMemory) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  // Write a GM word over the NoC, then poll it back: the poll only succeeds
  // if the controller's remote read returns the written value.
  std::vector<Command> cmds = {
      Command::Write(RemoteDataAddr(SocTop::kGlobalMemoryNode, 10), 0xABCD),
      Command::PollEq(RemoteDataAddr(SocTop::kGlobalMemoryNode, 10), 0xABCD),
      Command::Halt(),
  };
  const std::uint64_t cycles = soc.RunCommands(cmds, 1_ms);
  EXPECT_EQ(soc.PeekGm(10), 0xABCDu);
  EXPECT_GT(cycles, 0u);
  EXPECT_LT(cycles, 2000u);
}

TEST(SocTransactions, ControllerAccessesPeCsrAndScratchpad) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  const unsigned pe = soc.pe_nodes().front();
  std::vector<Command> cmds = {
      // CSR space: set ARG0 and read it back via poll.
      Command::Write(RemoteCsrAddr(pe, kCsrArg0), 1234),
      Command::PollEq(RemoteCsrAddr(pe, kCsrArg0), 1234),
      // Data space: PE scratchpad word 7.
      Command::Write(RemoteDataAddr(pe, 7), 0x55AA),
      Command::PollEq(RemoteDataAddr(pe, 7), 0x55AA),
      Command::Halt(),
  };
  soc.RunCommands(cmds, 1_ms);
  EXPECT_EQ(soc.pe(pe).csr(kCsrArg0), 1234u);
}

TEST(SocTransactions, RemoteAccessRoundTripLatencyIsTensOfCycles) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  std::vector<Command> cmds = {
      Command::Write(RemoteDataAddr(SocTop::kGlobalMemoryNode, 0), 1),
      Command::Halt(),
  };
  const std::uint64_t cycles = soc.RunCommands(cmds, 1_ms);
  // A single write + program prologue: a NoC round trip is tens of cycles,
  // not hundreds (low-latency claim for the mesh + NI path).
  EXPECT_LT(cycles, 300u);
}

class SocWorkloadTest : public ::testing::TestWithParam<int> {};

TEST_P(SocWorkloadTest, WorkloadProducesGoldenResultsSingleClock) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  const Workload w = SixSocTests()[GetParam()];
  const WorkloadRun r = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_GT(r.cycles, 0u);
}

TEST_P(SocWorkloadTest, WorkloadProducesGoldenResultsGals) {
  Simulator sim;
  SocConfig cfg = SingleClock2x2();
  cfg.gals = true;
  SocTop soc(sim, cfg);
  const Workload w = SixSocTests()[GetParam()];
  const WorkloadRun r = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_GT(soc.noc().async_link_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(SixTests, SocWorkloadTest, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return SixSocTests()[info.param].name;
                         });

TEST(SocTransactions, PeToPeDmaMovesScratchpadData) {
  // Spatial-array halo exchange: PE B pulls a block directly from PE A's
  // scratchpad over the NoC (kCsrDmaNode selects the peer), no global
  // memory involved.
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  ASSERT_GE(soc.pe_nodes().size(), 2u);
  const unsigned pe_a = soc.pe_nodes()[0];
  const unsigned pe_b = soc.pe_nodes()[1];
  std::vector<Command> cmds;
  // Seed PE A's scratchpad words 0..7 via remote data-space writes.
  for (std::uint32_t i = 0; i < 8; ++i) {
    cmds.push_back(Command::Write(RemoteDataAddr(pe_a, i), 0x40 + i));
  }
  // PE B: DMA-in 8 words from PE A (addr 0) into its scratchpad at 32.
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrCmd),
                                static_cast<std::uint32_t>(PeOp::kDmaIn)));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrArg1), 0));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrArg2), 32));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrLen), 8));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrDmaNode), pe_a));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrStart), 1));
  cmds.push_back(Command::PollEq(RemoteCsrAddr(pe_b, kCsrStatus), 2));
  // Verify through the controller: poll PE B's scratchpad contents.
  for (std::uint32_t i = 0; i < 8; ++i) {
    cmds.push_back(Command::PollEq(RemoteDataAddr(pe_b, 32 + i), 0x40 + i));
  }
  cmds.push_back(Command::Halt());
  soc.RunCommands(cmds, 50_ms);  // PollEq hangs (and the assert fires) on mismatch
}

TEST(SocMesh, LargerMeshRunsWorkloadAcrossSevenPes) {
  Simulator sim;
  SocConfig cfg;
  cfg.mesh_width = 3;
  cfg.mesh_height = 3;
  cfg.gals = false;
  SocTop soc(sim, cfg);
  EXPECT_EQ(soc.pe_nodes().size(), 7u);
  const Workload w = SixSocTests()[5];  // dma_copy exercises all NoC paths
  const WorkloadRun r = RunWorkload(soc, w, 100_ms);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(soc.noc().total_flits_forwarded(), 0u);
}

TEST(SocDeterminism, SameConfigSameCycles) {
  auto run = [] {
    Simulator sim;
    SocConfig cfg = SingleClock2x2();
    cfg.gals = true;  // includes jittering clocks: still deterministic
    SocTop soc(sim, cfg);
    return RunWorkload(soc, SixSocTests()[0], 50_ms).cycles;
  };
  EXPECT_EQ(run(), run());
}

// What one run of a workload produced: everything that must not depend on
// how blocked threads are retried, or on the worker count.
struct SocOutcome {
  std::uint64_t cycles = 0;
  std::uint64_t gm_digest = 0;
  std::uint64_t instret = 0;
  std::uint64_t noc_flits = 0;
  std::map<std::string, std::uint64_t> transfers;  // every channel and crossing
  bool operator==(const SocOutcome&) const = default;
};

// The scheduler work of one run: every process's dispatches, in creation
// order, and the total.
struct SocDispatches {
  std::uint64_t total = 0;
  std::vector<std::pair<std::string, std::uint64_t>> per_process;
  bool operator==(const SocDispatches&) const = default;
};

// Runs `w` on the 2x2 GALS mesh; `probes` turns stats, trace and cover on,
// which gives every channel and crossing a probe.
SocOutcome RunOutcome(const Workload& w, bool probes, unsigned parallelism,
                      SocDispatches* dispatches = nullptr) {
  Simulator sim;
  if (probes) {
    sim.stats().Enable();
    sim.trace_events().Enable();
    sim.cover().Enable();
  }
  SocConfig cfg;  // the 2x2 GALS mesh
  cfg.parallelism = parallelism;
  SocTop soc(sim, cfg);
  const WorkloadRun r = RunWorkload(soc, w, 500_ms);
  EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  SocOutcome o;
  o.cycles = r.cycles;
  o.gm_digest = 0xcbf29ce484222325ull;  // FNV-1a over the global memory image
  for (std::uint32_t i = 0; i < SocTop::Gm::SizeWords(); ++i)
    o.gm_digest = (o.gm_digest ^ soc.PeekGm(i)) * 0x100000001b3ull;
  o.instret = soc.controller().cpu().instret();
  o.noc_flits = soc.noc().total_flits_forwarded();
  for (const auto& [name, ch] : sim.design_graph().channels()) o.transfers[name] = *ch.transfers;
  for (const auto& x : sim.design_graph().crossings())
    o.transfers[x.path + "#crossing"] = *x.transfers;
  if (dispatches != nullptr) {
    dispatches->total = sim.dispatch_count();
    for (const auto& p : sim.processes())
      dispatches->per_process.emplace_back(p->name(), p->stat_dispatches);
  }
  return o;
}

// Blocked pops and crossing slot waits are retried at the clock edge
// whether or not a probe covers them. With stats, trace and cover on, at
// one worker and at four, a run must give the same results and make the
// same dispatches, process by process, as the uninstrumented one.
TEST(SocRetryEquivalence, SevenWorkloadsMatchWithAndWithoutProbesAtN1AndN4) {
  for (const Workload& w : AllWorkloads()) {
    SocDispatches base_n1, base_n4, probed_n1, probed_n4;
    const SocOutcome base = RunOutcome(w, false, 1, &base_n1);
    EXPECT_GT(base.transfers.size(), 50u);
    EXPECT_LE(static_cast<double>(base_n1.total) / static_cast<double>(base.cycles), 15.0)
        << w.name;
    EXPECT_EQ(RunOutcome(w, false, 4, &base_n4), base) << w.name << " uninstrumented n=4";
    EXPECT_EQ(RunOutcome(w, true, 1, &probed_n1), base) << w.name << " probed n=1";
    EXPECT_EQ(RunOutcome(w, true, 4, &probed_n4), base) << w.name << " probed n=4";
    EXPECT_EQ(probed_n1.total, base_n1.total) << w.name << " n=1";
    EXPECT_EQ(probed_n4.total, base_n4.total) << w.name << " n=4";
    EXPECT_EQ(probed_n1.per_process, base_n1.per_process) << w.name << " n=1";
    EXPECT_EQ(probed_n4.per_process, base_n4.per_process) << w.name << " n=4";
  }
}

TEST(SocGals, AsyncLinksInstantiatedOnlyInGalsMode) {
  Simulator sim;
  {
    SocConfig cfg = SingleClock2x2();
    SocTop soc(sim, cfg);
    EXPECT_EQ(soc.noc().async_link_count(), 0u);
  }
}

TEST(SocRtlCosim, EmulationPreservesResultsAndKeepsCycleErrorSmall) {
  auto run = [](bool rtl, unsigned drain) {
    Simulator sim;
    SocConfig cfg = SingleClock2x2();
    cfg.rtl_cosim = rtl;
    cfg.rtl_signals_per_node = 32;  // keep the test quick
    cfg.rtl_pe_drain_cycles = drain;
    SocTop soc(sim, cfg);
    const WorkloadRun r = RunWorkload(soc, SixSocTests()[0], 50_ms);
    EXPECT_TRUE(r.ok) << r.error;
    return r.cycles;
  };
  const std::uint64_t fast = run(false, 0);
  const std::uint64_t rtl = run(true, 5);
  // Pipeline-drain latencies shift cycles only slightly (paper: < 3%); the
  // controller's poll quantization may absorb them entirely.
  EXPECT_GE(rtl, fast);
  EXPECT_LT(static_cast<double>(rtl - fast) / static_cast<double>(fast), 0.10);
  // A deliberately huge drain must become visible end-to-end, proving the
  // emulation actually runs.
  const std::uint64_t heavy = run(true, 300);
  EXPECT_GT(heavy, fast);
}

}  // namespace
}  // namespace craft::soc
