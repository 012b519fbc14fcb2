// Processing Element of the prototype SoC (paper Fig. 5): scratchpad,
// vector datapath, control unit, and router interface.
//
//  * Scratchpad: MatchLib ArbitratedScratchpad (banked, arbitrated), via the
//    Scratchpad module — port 0 serves the datapath, port 1 serves remote
//    accesses arriving over the NoC.
//  * Datapath: MatchLib Vector<Float32, 4> lanes with the MatchLib float
//    functions (mul / add / mul-add); kernels: vector add/multiply,
//    dot-product, reduction, scale, 1-D convolution, k-means distance/
//    argmin — "Each PE is programmed to support execution of different
//    compute kernels such as vector multiply, dot-product, and reduction."
//  * Control: a CSR block written by the global controller over the NoC; a
//    command FSM launches kernels and reports completion.
//  * Router interface: NodeNI (Packetizer/DePacketizer, VC0 requests / VC1
//    responses), also used by the PE's DMA engine to move data between
//    global memory and the scratchpad.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "kernel/event.hpp"
#include "matchlib/float.hpp"
#include "matchlib/scratchpad.hpp"
#include "matchlib/vector.hpp"
#include "soc/ni.hpp"

namespace craft::soc {

using matchlib::Float32;

/// PE kernel opcodes (CSR[0]).
enum class PeOp : std::uint32_t {
  kNop = 0,
  kVadd = 1,       // dst[i] = src0[i] + src1[i]
  kVmul = 2,       // dst[i] = src0[i] * src1[i]
  kDot = 3,        // dst[0] = sum(src0[i] * src1[i])
  kReduceSum = 4,  // dst[0] = sum(src0[i])
  kScale = 5,      // dst[i] = src0[i] * scalar
  kConv1d = 6,     // dst[i] = sum_k src0[i+k] * src1[k], k < aux
  kDistArgmin = 7, // k-means assign: aux = (k << 8) | dim
  kDmaIn = 8,      // scratchpad[dst..dst+len) = GM[src1..src1+len)
  kDmaOut = 9,     // GM[src1..src1+len) = scratchpad[src0..src0+len)
};

/// PE CSR word indices (CSR address space, addr bit 31 set on the NoC).
enum PeCsr : std::uint32_t {
  kCsrCmd = 0,
  kCsrArg0 = 1,     // src0 scratchpad word address
  kCsrArg1 = 2,     // src1 scratchpad word address / remote word address for DMA
  kCsrArg2 = 3,     // dst scratchpad word address
  kCsrLen = 4,
  kCsrScalar = 5,   // fp32 bits for kScale
  kCsrStatus = 6,   // 0 = idle, 1 = busy, 2 = done
  kCsrStart = 7,    // write 1 to launch
  kCsrAux = 8,      // kConv1d: kernel taps; kDistArgmin: (k << 8) | dim
  kCsrDmaNode = 9,  // DMA peer node; 0 = the global memory (default). Setting
                    // a PE node id makes kDmaIn/kDmaOut move data directly
                    // between PE scratchpads over the NoC (spatial-array halo
                    // exchange, producer/consumer pipelines between PEs).
  kCsrCount = 16
};

/// fp32 <-> 64-bit scratchpad word helpers (value lives in the low 32 bits).
inline Float32 F32FromWord(std::uint64_t w) {
  return Float32::FromBits(static_cast<std::uint32_t>(w));
}
inline std::uint64_t WordFromF32(Float32 f) { return f.bits(); }

/// Chunked dot product over 4-lane MatchLib vectors — exposed so golden
/// models reproduce the PE's exact FP summation order.
inline Float32 DotChunked(const std::vector<Float32>& a, const std::vector<Float32>& b) {
  Float32 acc = Float32::Zero();
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    matchlib::Vector<Float32, 4> va, vb;
    for (std::size_t l = 0; l < 4; ++l) {
      va[l] = a[i + l];
      vb[l] = b[i + l];
    }
    acc = FpAdd(acc, Dot(va, vb));
  }
  for (; i < a.size(); ++i) acc = FpMulAdd(a[i], b[i], acc);
  return acc;
}

/// Sequential sum — the PE's reduction order.
inline Float32 SumSequential(const std::vector<Float32>& a) {
  Float32 acc = Float32::Zero();
  for (const Float32& x : a) acc = FpAdd(acc, x);
  return acc;
}

class ProcessingElement : public Module {
 public:
  static constexpr unsigned kSpBanks = 4;
  static constexpr unsigned kSpWordsPerBank = 1024;
  static constexpr unsigned kDmaWindow = 4;

  ProcessingElement(Module& parent, const std::string& name, Clock& clk,
                    std::uint8_t node_id, std::uint8_t gm_node,
                    unsigned rtl_extra_latency = 0)
      : Module(parent, name),
        clk_(clk),
        node_id_(node_id),
        gm_node_(gm_node),
        rtl_extra_latency_(rtl_extra_latency),
        ni_(*this, "ni", clk),
        sp_(*this, "sp", clk),
        sp_req0_(*this, "sp_req0", clk, 2),
        sp_resp0_(*this, "sp_resp0", clk, 2),
        sp_req1_(*this, "sp_req1", clk, 2),
        sp_resp1_(*this, "sp_resp1", clk, 2),
        start_event_(sim()) {
    sp_.req_in[0](sp_req0_);
    sp_.resp_out[0](sp_resp0_);
    sp_.req_in[1](sp_req1_);
    sp_.resp_out[1](sp_resp1_);
    dp_sp_req_(sp_req0_);
    dp_sp_resp_(sp_resp0_);
    srv_sp_req_(sp_req1_);
    srv_sp_resp_(sp_resp1_);
    req_rx_(ni_.req_rx_channel());
    resp_tx_(ni_.resp_tx_channel());
    req_tx_(ni_.req_tx_channel());
    resp_rx_(ni_.resp_rx_channel());
    // craft-trace: an "activity" track whose slices are kernel executions
    // (begin at launch, end at drain; arg = opcode). Gives the Perfetto
    // timeline a per-PE busy/idle lane next to the channel residency lanes.
    trace_ = sim().trace_events().RegisterTrack(full_name() + ".exec",
                                                "activity", clk.name());
    Thread("server", clk, [this] { RunServer(); });
    Thread("control", clk, [this] { RunControl(); });
  }

  NodeNI& ni() { return ni_; }
  std::uint64_t csr(unsigned i) const { return csrs_[i]; }
  std::uint64_t kernels_executed() const { return kernels_executed_; }

  /// Cycles the command FSM spent executing kernels (busy status), the
  /// numerator of per-PE utilization in the craft-stats SoC report.
  std::uint64_t busy_cycles() const { return busy_cycles_; }
  Clock& clk() const { return clk_; }

 private:
  // ---- remote-access server: CSRs + scratchpad port 1 ----

  void RunServer() {
    for (;;) {
      const NetReq nr = req_rx_.Pop();
      NetResp out;
      out.dest = nr.src;
      out.resp.id = nr.req.id;
      if (nr.req.addr & kCsrSpaceBit) {
        const std::uint32_t idx = nr.req.addr & ~kCsrSpaceBit;
        CRAFT_ASSERT(idx < kCsrCount, full_name() << ": CSR index OOB " << idx);
        if (nr.req.is_write) {
          WriteCsr(idx, nr.req.wdata);
          out.resp.is_write_ack = true;
        } else {
          out.resp.rdata = csrs_[idx];
        }
      } else {
        matchlib::MemReq mr = nr.req;
        mr.id = 0;
        srv_sp_req_.Push(mr);
        const matchlib::MemResp sr = srv_sp_resp_.Pop();
        out.resp.is_write_ack = sr.is_write_ack;
        out.resp.rdata = sr.rdata;
      }
      resp_tx_.Push(out);
    }
  }

  void WriteCsr(std::uint32_t idx, std::uint64_t v) {
    csrs_[idx] = v;
    if (idx == kCsrStart && v != 0) {
      csrs_[kCsrStatus] = 1;  // busy
      start_event_.Notify();
    }
  }

  // ---- datapath scratchpad access helpers (port 0) ----

  std::uint64_t SpRead(std::uint32_t addr) {
    dp_sp_req_.Push({.is_write = false, .addr = addr, .wdata = 0, .id = 0});
    return dp_sp_resp_.Pop().rdata;
  }
  void SpWrite(std::uint32_t addr, std::uint64_t v) {
    dp_sp_req_.Push({.is_write = true, .addr = addr, .wdata = v, .id = 0});
    (void)dp_sp_resp_.Pop();
  }
  std::vector<Float32> SpReadF32(std::uint32_t addr, std::uint32_t n) {
    std::vector<Float32> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(F32FromWord(SpRead(addr + i)));
    return v;
  }

  // ---- the command FSM ----

  void RunControl() {
    for (;;) {
      wait_until([this](Event*& retry_on) {
        retry_on = &start_event_;
        return csrs_[kCsrStatus] == 1;
      });
      const std::uint64_t busy_from = clk_.cycle();
      const std::uint64_t exec_span =
          trace_ ? trace_->BeginActivity(csrs_[kCsrCmd]) : 0;
      Execute();
      // Model the pipeline drain of the HLS-generated RTL: in RTL-cosim
      // emulation runs a kernel's epilogue costs a few extra cycles that the
      // loosely-timed model does not carry (the paper's <3% source).
      if (rtl_extra_latency_ > 0) wait(rtl_extra_latency_);
      if (trace_) trace_->EndActivity(exec_span);
      busy_cycles_ += clk_.cycle() - busy_from;
      csrs_[kCsrStart] = 0;
      csrs_[kCsrStatus] = 2;  // done
      ++kernels_executed_;
    }
  }

  void Execute() {
    const auto op = static_cast<PeOp>(csrs_[kCsrCmd]);
    const auto src0 = static_cast<std::uint32_t>(csrs_[kCsrArg0]);
    const auto src1 = static_cast<std::uint32_t>(csrs_[kCsrArg1]);
    const auto dst = static_cast<std::uint32_t>(csrs_[kCsrArg2]);
    const auto len = static_cast<std::uint32_t>(csrs_[kCsrLen]);
    switch (op) {
      case PeOp::kNop:
        break;
      case PeOp::kVadd:
      case PeOp::kVmul: {
        // 4-lane vector datapath: load a chunk, one vector op, store.
        std::uint32_t i = 0;
        while (i < len) {
          const std::uint32_t chunk = std::min(4u, len - i);
          matchlib::Vector<Float32, 4> a, b;
          for (std::uint32_t l = 0; l < chunk; ++l) {
            a[l] = F32FromWord(SpRead(src0 + i + l));
            b[l] = F32FromWord(SpRead(src1 + i + l));
          }
          const auto r = (op == PeOp::kVadd) ? a + b : a * b;
          for (std::uint32_t l = 0; l < chunk; ++l) {
            SpWrite(dst + i + l, WordFromF32(r[l]));
          }
          i += chunk;
        }
        break;
      }
      case PeOp::kDot: {
        const auto a = SpReadF32(src0, len);
        const auto b = SpReadF32(src1, len);
        SpWrite(dst, WordFromF32(DotChunked(a, b)));
        break;
      }
      case PeOp::kReduceSum: {
        const auto a = SpReadF32(src0, len);
        SpWrite(dst, WordFromF32(SumSequential(a)));
        break;
      }
      case PeOp::kScale: {
        const Float32 s = Float32::FromBits(static_cast<std::uint32_t>(csrs_[kCsrScalar]));
        for (std::uint32_t i = 0; i < len; ++i) {
          SpWrite(dst + i, WordFromF32(FpMul(F32FromWord(SpRead(src0 + i)), s)));
        }
        break;
      }
      case PeOp::kConv1d: {
        const auto taps = static_cast<std::uint32_t>(csrs_[kCsrAux]);
        const auto x = SpReadF32(src0, len + taps - 1);
        const auto h = SpReadF32(src1, taps);
        for (std::uint32_t i = 0; i < len; ++i) {
          Float32 acc = Float32::Zero();
          for (std::uint32_t k = 0; k < taps; ++k) acc = FpMulAdd(x[i + k], h[k], acc);
          SpWrite(dst + i, WordFromF32(acc));
        }
        break;
      }
      case PeOp::kDistArgmin: {
        const auto aux = static_cast<std::uint32_t>(csrs_[kCsrAux]);
        const std::uint32_t k = aux >> 8;
        const std::uint32_t dim = aux & 0xFF;
        const auto pts = SpReadF32(src0, len * dim);
        const auto cents = SpReadF32(src1, k * dim);
        for (std::uint32_t p = 0; p < len; ++p) {
          std::uint32_t best = 0;
          Float32 best_d = Float32::Inf(false);
          for (std::uint32_t c = 0; c < k; ++c) {
            Float32 d = Float32::Zero();
            for (std::uint32_t j = 0; j < dim; ++j) {
              const Float32 diff = FpSub(pts[p * dim + j], cents[c * dim + j]);
              d = FpMulAdd(diff, diff, d);
            }
            if (d < best_d) {
              best_d = d;
              best = c;
            }
          }
          SpWrite(dst + p, best);
        }
        break;
      }
      case PeOp::kDmaIn:
        DmaIn(src1, dst, len);
        break;
      case PeOp::kDmaOut:
        DmaOut(src0, src1, len);
        break;
    }
  }

  /// DMA peer: global memory unless kCsrDmaNode selects another node.
  std::uint8_t DmaPeer() const {
    const auto node = static_cast<std::uint8_t>(csrs_[kCsrDmaNode]);
    return node == 0 ? gm_node_ : node;
  }

  // ---- DMA engine: pipelined word transfers over the NoC ----

  void DmaIn(std::uint32_t gm_addr, std::uint32_t sp_addr, std::uint32_t len) {
    std::uint32_t issued = 0, done = 0;
    while (done < len) {
      while (issued < len && issued - done < kDmaWindow) {
        NetReq r;
        r.req.addr = gm_addr + issued;
        r.req.id = node_id_;
        r.src = node_id_;
        r.dest = DmaPeer();
        req_tx_.Push(r);
        ++issued;
      }
      const NetResp resp = resp_rx_.Pop();  // responses arrive in order
      SpWrite(sp_addr + done, resp.resp.rdata);
      ++done;
    }
  }

  void DmaOut(std::uint32_t sp_addr, std::uint32_t gm_addr, std::uint32_t len) {
    std::uint32_t issued = 0, acked = 0;
    while (acked < len) {
      while (issued < len && issued - acked < kDmaWindow) {
        NetReq r;
        r.req.is_write = true;
        r.req.addr = gm_addr + issued;
        r.req.wdata = SpRead(sp_addr + issued);
        r.req.id = node_id_;
        r.src = node_id_;
        r.dest = DmaPeer();
        req_tx_.Push(r);
        ++issued;
      }
      (void)resp_rx_.Pop();  // write ack
      ++acked;
    }
  }

  Clock& clk_;
  std::uint8_t node_id_;
  std::uint8_t gm_node_;
  unsigned rtl_extra_latency_;

  NodeNI ni_;
  matchlib::Scratchpad<kSpBanks, kSpWordsPerBank, 2> sp_;
  connections::Buffer<matchlib::MemReq> sp_req0_;
  connections::Buffer<matchlib::MemResp> sp_resp0_;
  connections::Buffer<matchlib::MemReq> sp_req1_;
  connections::Buffer<matchlib::MemResp> sp_resp1_;

  connections::Out<matchlib::MemReq> dp_sp_req_;
  connections::In<matchlib::MemResp> dp_sp_resp_;
  connections::Out<matchlib::MemReq> srv_sp_req_;
  connections::In<matchlib::MemResp> srv_sp_resp_;

  connections::In<NetReq> req_rx_;
  connections::Out<NetResp> resp_tx_;
  connections::Out<NetReq> req_tx_;
  connections::In<NetResp> resp_rx_;

  Event start_event_;
  TraceTrack* trace_ = nullptr;  // craft-trace; nullptr unless enabled
  std::array<std::uint64_t, kCsrCount> csrs_{};
  std::uint64_t kernels_executed_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace craft::soc
