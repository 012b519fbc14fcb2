// Global Memory node of the prototype SoC (Fig. 5): banked mem_array
// storage behind a MatchLib crossbar/arbitration stage (the Scratchpad
// module), served to the NoC through a NodeNI.
//
// "In the Global Memory, the different memory banks were designed using our
// abstract memory class, mem_array, and were connected to the multiple
// input/output ports using the MatchLib crossbar."
#pragma once

#include <string>

#include "matchlib/fifo.hpp"
#include "matchlib/scratchpad.hpp"
#include "soc/ni.hpp"

namespace craft::soc {

template <unsigned kBanks = 8, unsigned kWordsPerBank = 4096>
class GlobalMemory : public Module {
 public:
  GlobalMemory(Module& parent, const std::string& name, Clock& clk)
      : Module(parent, name),
        ni_(*this, "ni", clk),
        sp_(*this, "sp", clk),
        sp_req_(*this, "sp_req", clk, 2),
        sp_resp_(*this, "sp_resp", clk, 2) {
    sp_.req_in[0](sp_req_);
    sp_.resp_out[0](sp_resp_);
    req_in_(sp_req_);
    resp_in_(sp_resp_);
    req_rx_(ni_.req_rx_channel());
    resp_tx_(ni_.resp_tx_channel());
    // Decoupled issue/respond threads keep multiple requests in flight; the
    // scratchpad preserves per-port order, so sources pop back out in
    // issue order.
    Thread("issue", clk, [this] { RunIssue(); });
    Thread("respond", clk, [this] { RunRespond(); });
  }

  NodeNI& ni() { return ni_; }

  static constexpr std::size_t SizeWords() { return kBanks * kWordsPerBank; }

  /// Direct (testbench) access for preloading and checking.
  matchlib::MemArray<std::uint64_t>& mem() { return sp_.core().mem(); }

  std::uint64_t requests_served() const { return served_; }

 private:
  void RunIssue() {
    for (;;) {
      NetReq nr;
      wait_until([&] { return !src_fifo_.Full() && req_rx_.PopNB(nr); });
      matchlib::MemReq mr = nr.req;
      mr.id = nr.src;
      src_fifo_.Push(nr.src);
      sp_req_ch_push(mr);
    }
  }

  void sp_req_ch_push(const matchlib::MemReq& mr) { req_in_.Push(mr); }

  void RunRespond() {
    for (;;) {
      const matchlib::MemResp r = resp_in_.Pop();
      NetResp out;
      out.resp = r;
      out.dest = src_fifo_.Pop();
      out.resp.id = out.dest;
      resp_tx_.Push(out);
      ++served_;
    }
  }

  NodeNI ni_;
  matchlib::Scratchpad<kBanks, kWordsPerBank, 1> sp_;
  connections::Buffer<matchlib::MemReq> sp_req_;
  connections::Buffer<matchlib::MemResp> sp_resp_;
  connections::Out<matchlib::MemReq> req_in_;
  connections::In<matchlib::MemResp> resp_in_;
  connections::In<NetReq> req_rx_;
  connections::Out<NetResp> resp_tx_;
  matchlib::Fifo<std::uint8_t, 32> src_fifo_;
  std::uint64_t served_ = 0;
};

}  // namespace craft::soc
