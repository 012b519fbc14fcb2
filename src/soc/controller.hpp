// The global controller node: the RISC-V core of the prototype SoC
// (Fig. 5). "The RISC-V processor acts as a global controller, initiating
// the execution by configuring the control registers in PE and global
// memory and orchestrating the data transfer across different levels in the
// memory hierarchy."
//
// The ISS executes one instruction per cycle from controller-local RAM;
// loads/stores above the remote window are turned into blocking NoC
// round trips through the node's NI.
//
// Address map (CPU byte addresses):
//   0x0000_0000 .. local_ram_bytes   controller-local RAM (program + data)
//   0x1000_0000 | (node << 20) | off remote window onto mesh node `node`:
//     off bit 19 = 1  -> CSR space  (CSR index = (off & 0x7FFFF) / 4)
//     off bit 19 = 0  -> data space (word address = (off & 0x7FFFF) / 4)
#pragma once

#include <string>
#include <vector>

#include "riscv/assembler.hpp"
#include "riscv/cpu.hpp"
#include "soc/ni.hpp"

namespace craft::soc {

inline constexpr std::uint32_t kRemoteBase = 0x1000'0000u;
inline constexpr std::uint32_t kRemoteCsrBit = 0x0008'0000u;

/// Builds the CPU byte address of a remote data word.
inline std::uint32_t RemoteDataAddr(unsigned node, std::uint32_t word) {
  return kRemoteBase | (node << 20) | (word * 4);
}
/// Builds the CPU byte address of a remote CSR.
inline std::uint32_t RemoteCsrAddr(unsigned node, std::uint32_t csr) {
  return kRemoteBase | (node << 20) | kRemoteCsrBit | (csr * 4);
}

class ControllerNode : public Module {
 public:
  ControllerNode(Module& parent, const std::string& name, Clock& clk,
                 std::uint8_t node_id, std::size_t local_ram_bytes = 1 << 20)
      : Module(parent, name),
        node_id_(node_id),
        ni_(*this, "ni", clk),
        ram_(local_ram_bytes / 4, 0),
        bus_(*this) {
    req_tx_(ni_.req_tx_channel());
    resp_rx_(ni_.resp_rx_channel());
    cpu_.Halt();  // parked until a program is loaded (Restart releases it)
    Thread("cpu", clk, [this] { RunCpu(); });
  }

  NodeNI& ni() { return ni_; }
  riscv::Cpu& cpu() { return cpu_; }
  bool halted() const { return cpu_.halted(); }

  /// Soft-restarts the core at address 0 (used to run successive command
  /// tables in one simulation).
  void Restart() { cpu_.Reset(0); }

  /// Loads instruction words at byte address `base` in local RAM.
  void LoadProgram(const std::vector<std::uint32_t>& words, std::uint32_t base = 0) {
    for (std::size_t i = 0; i < words.size(); ++i) ram_.at(base / 4 + i) = words[i];
  }
  /// Writes one 32-bit word of local RAM (testbench side).
  void PokeRam(std::uint32_t byte_addr, std::uint32_t value) {
    ram_.at(byte_addr / 4) = value;
  }
  std::uint32_t PeekRam(std::uint32_t byte_addr) const { return ram_.at(byte_addr / 4); }

 private:
  struct NocBus : riscv::Bus {
    explicit NocBus(ControllerNode& o) : owner(o) {}
    std::uint32_t Read32(std::uint32_t addr) override {
      if (addr < kRemoteBase) {
        CRAFT_ASSERT(addr / 4 < owner.ram_.size(),
                     "controller RAM read OOB @0x" << std::hex << addr);
        return owner.ram_[addr / 4];
      }
      return static_cast<std::uint32_t>(owner.RemoteAccess(addr, false, 0));
    }
    void Write32(std::uint32_t addr, std::uint32_t data) override {
      if (addr < kRemoteBase) {
        CRAFT_ASSERT(addr / 4 < owner.ram_.size(),
                     "controller RAM write OOB @0x" << std::hex << addr);
        owner.ram_[addr / 4] = data;
        return;
      }
      owner.RemoteAccess(addr, true, data);
    }
    ControllerNode& owner;
  };

  std::uint64_t RemoteAccess(std::uint32_t addr, bool is_write, std::uint32_t data) {
    const unsigned node = (addr >> 20) & 0xFF;
    const std::uint32_t off = addr & 0x7FFFFu;
    const bool is_csr = (addr & kRemoteCsrBit) != 0;
    NetReq r;
    r.req.is_write = is_write;
    r.req.addr = (off / 4) | (is_csr ? kCsrSpaceBit : 0);
    r.req.wdata = data;
    r.req.id = node_id_;
    r.src = node_id_;
    r.dest = static_cast<std::uint8_t>(node);
    req_tx_.Push(r);
    const NetResp resp = resp_rx_.Pop();
    return resp.resp.rdata;
  }

  void RunCpu() {
    for (;;) {
      wait_until([this] { return !cpu_.halted(); });
      cpu_.cycle_csr = ThreadProcess::Current()->clock().cycle();
      cpu_.Step(bus_);
      wait();  // one instruction per cycle (remote accesses add NoC time)
    }
  }

  std::uint8_t node_id_;
  NodeNI ni_;
  std::vector<std::uint32_t> ram_;
  riscv::Cpu cpu_;
  NocBus bus_;
  connections::Out<NetReq> req_tx_;
  connections::In<NetResp> resp_rx_;
};

/// The generic command-processor program the controller runs for every
/// workload: walks a table of {op, addr, value} entries in local RAM.
///   op 0 = halt (ebreak), 1 = write32 [addr] = value,
///   op 2 = poll: loop until [addr] == value.
inline std::vector<std::uint32_t> BuildCommandProcessorProgram(std::uint32_t table_base) {
  using namespace riscv;
  Assembler a;
  a.Li(s0, static_cast<std::int32_t>(table_base));
  a.Label("loop");
  a.Lw(t0, s0, 0);                 // op
  a.Beq(t0, zero, "halt");
  a.Lw(t1, s0, 4);                 // addr
  a.Lw(t2, s0, 8);                 // value
  a.Li(t3, 1);
  a.Beq(t0, t3, "do_write");
  a.Label("do_poll");              // op 2: poll until equal
  a.Lw(t4, t1, 0);
  a.Bne(t4, t2, "do_poll");
  a.J("next");
  a.Label("do_write");
  a.Sw(t2, t1, 0);
  a.Label("next");
  a.Addi(s0, s0, 16);
  a.J("loop");
  a.Label("halt");
  a.Ebreak();
  return a.Assemble();
}

/// One command-table entry (16 bytes in controller RAM).
struct Command {
  std::uint32_t op = 0;  // 0 halt, 1 write, 2 poll-eq
  std::uint32_t addr = 0;
  std::uint32_t value = 0;

  static Command Write(std::uint32_t addr, std::uint32_t value) {
    return {1, addr, value};
  }
  static Command PollEq(std::uint32_t addr, std::uint32_t value) {
    return {2, addr, value};
  }
  static Command Halt() { return {0, 0, 0}; }
};

/// Writes a command table into controller RAM at `base`.
inline void LoadCommandTable(ControllerNode& ctrl, std::uint32_t base,
                             const std::vector<Command>& cmds) {
  std::uint32_t a = base;
  for (const Command& c : cmds) {
    ctrl.PokeRam(a + 0, c.op);
    ctrl.PokeRam(a + 4, c.addr);
    ctrl.PokeRam(a + 8, c.value);
    ctrl.PokeRam(a + 12, 0);
    a += 16;
  }
}

}  // namespace craft::soc
