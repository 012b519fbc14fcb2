// MatchLib NoC routers (paper Table 2):
//
//  * SFRouter  — Store-and-Forward router: a whole packet is buffered at the
//    input before any flit is forwarded; each output then streams the packet
//    without interleaving. Simple, higher per-hop latency (packet length).
//
//  * WHVCRouter — Wormhole router with Virtual Channels: flits are forwarded
//    as soon as the head establishes a route, and flits of packets on
//    different VCs interleave on the same physical link. Low per-hop latency
//    (one cycle per flit in the absence of contention).
//
// Both are kPorts-radix routers with an injectable routing function
// (dest -> output port), so the same component serves rings, meshes, and
// trees. The prototype SoC instantiates WHVCRouter in an XY-routed mesh.
//
// Flow control: link-level backpressure via the LI channels (a flit stays
// put when the downstream channel refuses it). Credit-based per-VC
// backpressure is abstracted away — per-VC input FIFOs plus link
// backpressure preserve deadlock-freedom for the request/response VC
// discipline the SoC uses (requests on VC0, responses on VC1).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "connections/packetizer.hpp"
#include "matchlib/arbiter.hpp"
#include "matchlib/fifo.hpp"

namespace craft::matchlib {

using connections::Flit;

/// Routing function: maps a packet's destination tag to an output port.
using RouteFn = std::function<unsigned(std::uint8_t dest)>;

/// Store-and-Forward router.
template <unsigned kPorts>
class SFRouter : public Module {
 public:
  static_assert(kPorts >= 2 && kPorts <= 64);

  std::array<connections::In<Flit>, kPorts> in;
  std::array<connections::Out<Flit>, kPorts> out;

  SFRouter(Module& parent, const std::string& name, Clock& clk, RouteFn route,
           unsigned max_buffered_packets = 2)
      : Module(parent, name), route_(std::move(route)), max_pkts_(max_buffered_packets) {
    // Routers tolerate unconnected ports by design (mesh edges); the run
    // loop guards every access with bound().
    for (unsigned p = 0; p < kPorts; ++p) {
      in[p].MarkOptional();
      out[p].MarkOptional();
    }
    for (unsigned o = 0; o < kPorts; ++o) arbiters_.emplace_back(kPorts);
    Thread("run", clk, [this] { Run(); });
  }

  std::uint64_t flits_forwarded() const { return flits_forwarded_; }
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }

 private:
  struct OutState {
    std::vector<Flit> pkt;
    std::size_t next = 0;
    bool active = false;
  };

  void Run() {
    for (;;) {
      // 1) Stream flits of packets already allocated to outputs.
      for (unsigned o = 0; o < kPorts; ++o) {
        OutState& os = outs_[o];
        if (!os.active || !out[o].bound()) continue;
        if (out[o].PushNB(os.pkt[os.next])) {
          ++flits_forwarded_;
          if (++os.next == os.pkt.size()) {
            os.active = false;
            ++packets_forwarded_;
          }
        }
      }
      // 2) Allocate idle outputs: round-robin over inputs whose head
      //    *complete* packet routes to that output.
      for (unsigned o = 0; o < kPorts; ++o) {
        if (outs_[o].active) continue;
        std::uint64_t req = 0;
        for (unsigned i = 0; i < kPorts; ++i) {
          if (!complete_[i].empty() && route_(complete_[i].front().front().dest) == o) {
            req |= (1ull << i);
          }
        }
        const int winner = arbiters_[o].PickIndex(req);
        if (winner >= 0) {
          outs_[o].pkt = std::move(complete_[winner].front());
          complete_[winner].pop_front();
          outs_[o].next = 0;
          outs_[o].active = true;
        }
      }
      // 3) Accept one flit per input; a packet becomes eligible only once
      //    its tail flit has arrived (store-and-forward).
      for (unsigned i = 0; i < kPorts; ++i) {
        if (!in[i].bound() || complete_[i].size() >= max_pkts_) continue;
        Flit f;
        if (in[i].PopNB(f)) {
          assembling_[i].push_back(f);
          if (f.last) {
            complete_[i].push_back(std::move(assembling_[i]));
            assembling_[i].clear();
          }
        }
      }
      wait();
    }
  }

  RouteFn route_;
  unsigned max_pkts_;
  std::array<std::vector<Flit>, kPorts> assembling_;
  std::array<std::deque<std::vector<Flit>>, kPorts> complete_;
  std::array<OutState, kPorts> outs_;
  std::vector<Arbiter> arbiters_;
  std::uint64_t flits_forwarded_ = 0;
  std::uint64_t packets_forwarded_ = 0;
};

/// Wormhole router with virtual channels.
///
/// Every port carries kVCs *independently buffered* virtual channels: each
/// VC has its own input FIFO and its own physical link channel (the LI
/// channel stands in for the per-VC credit loop of the silicon router).
/// This gives true VC isolation — backpressure on one VC can never block
/// another — which is what makes the request/response VC discipline of the
/// SoC deadlock-free. The switch still forwards at most one flit per output
/// port per cycle (the physical link constraint), arbitrating round-robin
/// among the (input, vc) pairs whose wormhole route targets that output.
template <unsigned kPorts, unsigned kVCs = 2, unsigned kVcFifoDepth = 8>
class WHVCRouter : public Module {
 public:
  static_assert(kPorts >= 2 && kPorts <= 16 && kVCs >= 1 && kVCs <= 8);
  static_assert(kPorts * kVCs <= 64, "arbiter width limit");

  std::array<std::array<connections::In<Flit>, kVCs>, kPorts> in;
  std::array<std::array<connections::Out<Flit>, kVCs>, kPorts> out;

  WHVCRouter(Module& parent, const std::string& name, Clock& clk, RouteFn route)
      : Module(parent, name), route_(std::move(route)) {
    // Mesh-edge ports legitimately stay unbound; the run loop checks bound().
    for (unsigned p = 0; p < kPorts; ++p) {
      for (unsigned v = 0; v < kVCs; ++v) {
        in[p][v].MarkOptional();
        out[p][v].MarkOptional();
      }
    }
    for (unsigned o = 0; o < kPorts; ++o) arbiters_.emplace_back(kPorts * kVCs);
    // One probe per (port, vc) input queue, named after the router's
    // hierarchical name: stats counters and a trace track, so a flit's
    // residency in each hop's VC queue shows up as its own slice.
    for (unsigned p = 0; p < kPorts; ++p) {
      for (unsigned v = 0; v < kVCs; ++v) {
        const std::string vc_name =
            full_name() + ".vc" + std::to_string(p) + "_" + std::to_string(v);
        vcs_[VcIndex(p, v)].fifo.AttachProbe(
            sim().probes().RegisterFifo(vc_name, kVcFifoDepth, clk.name()));
      }
    }
    Thread("run", clk, [this] { Run(); });
  }

  std::uint64_t flits_forwarded() const { return flits_forwarded_; }

 private:
  struct VcState {
    Fifo<Flit, kVcFifoDepth> fifo;
    int route = -1;  // allocated output port; -1 until a head flit arrives
    std::deque<unsigned> pending_routes;  // routes of queued head flits
  };

  unsigned VcIndex(unsigned port, unsigned vc) const { return port * kVCs + vc; }

  void Run() {
    for (;;) {
      // 1) Route allocation: a VC whose head-of-queue flit starts a packet
      //    (and whose previous packet has fully left) locks its output.
      for (unsigned iv = 0; iv < kPorts * kVCs; ++iv) {
        VcState& vs = vcs_[iv];
        if (vs.route < 0 && !vs.fifo.Empty() && vs.fifo.Peek().first) {
          CRAFT_ASSERT(!vs.pending_routes.empty(),
                       full_name() << ": head flit without pending route");
          vs.route = static_cast<int>(vs.pending_routes.front());
          vs.pending_routes.pop_front();
        }
      }
      // 2) Switch allocation + traversal: each output port picks one ready
      //    (input, vc) and forwards one flit on that VC's link channel.
      //    Wormhole invariant: an output VC is locked to one upstream
      //    (input, vc) from head to tail, so packets never interleave
      //    flits WITHIN a VC (packets on different VCs of the same port
      //    do interleave — that is the point of VCs).
      for (unsigned o = 0; o < kPorts; ++o) {
        std::uint64_t req = 0;
        for (unsigned i = 0; i < kPorts; ++i) {
          for (unsigned v = 0; v < kVCs; ++v) {
            const unsigned iv = VcIndex(i, v);
            VcState& vs = vcs_[iv];
            if (vs.fifo.Empty() || vs.route != static_cast<int>(o) ||
                !out[o][v].bound()) {
              continue;
            }
            const int owner = out_vc_owner_[VcIndex(o, v)];
            if (owner == static_cast<int>(iv) || owner < 0) {
              req |= (1ull << iv);
            }
          }
        }
        const int winner = arbiters_[o].PickIndex(req);
        if (winner < 0) continue;
        VcState& vs = vcs_[static_cast<unsigned>(winner)];
        const unsigned v = static_cast<unsigned>(winner) % kVCs;
        // The link push happens on Peek() BEFORE the Pop(): prime the trace
        // context with the head flit's span so the link channel extends it.
        vs.fifo.PrimeTraceContext();
        if (out[o][v].PushNB(vs.fifo.Peek())) {
          const Flit f = vs.fifo.Pop();
          ++flits_forwarded_;
          int& owner = out_vc_owner_[VcIndex(o, v)];
          if (owner < 0) {
            CRAFT_ASSERT(f.first, full_name()
                                      << ": output VC acquired by a body flit");
            owner = winner;
          }
          if (f.last) {
            owner = -1;      // tail releases the output VC
            vs.route = -1;   // and the input VC's route lock
          }
        }
      }
      // 3) Input acceptance: per-VC, gated only by that VC's FIFO space —
      //    no shared holding register, so no cross-VC head-of-line blocking.
      for (unsigned i = 0; i < kPorts; ++i) {
        for (unsigned v = 0; v < kVCs; ++v) {
          VcState& vs = vcs_[VcIndex(i, v)];
          if (!in[i][v].bound() || vs.fifo.Full()) continue;
          Flit f;
          if (in[i][v].PopNB(f)) {
            if (f.first) {
              const unsigned o = route_(f.dest);
              CRAFT_ASSERT(o < kPorts, full_name() << ": route OOB port " << o);
              vs.pending_routes.push_back(o);
            }
            f.vc = static_cast<std::uint8_t>(v);
            vs.fifo.Push(f);
          }
        }
      }
      wait();
    }
  }

  RouteFn route_;
  std::array<VcState, kPorts * kVCs> vcs_;
  std::array<int, kPorts * kVCs> out_vc_owner_ = MinusOnes();
  std::vector<Arbiter> arbiters_;
  std::uint64_t flits_forwarded_ = 0;

  static std::array<int, kPorts * kVCs> MinusOnes() {
    std::array<int, kPorts * kVCs> a;
    a.fill(-1);
    return a;
  }
};

}  // namespace craft::matchlib
