// Tests for craft-trace: the opt-in TraceEventSink, span propagation across
// channels / relays / packetizers, residency-slice accounting under
// Simulator::Stop, the Chrome trace-event exporter, the backpressure blame
// chains, and the VCD Tracer header/initial-value fixes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "connections/connections.hpp"
#include "connections/packetizer.hpp"
#include "kernel/kernel.hpp"
#include "trace/trace.hpp"

namespace craft {

struct PMsg {
  std::uint32_t addr = 0;
  std::uint16_t data = 0;
  bool operator==(const PMsg&) const = default;
};

template <>
struct Marshal<PMsg> {
  static constexpr unsigned kWidth = 48;
  static void Write(BitStream& s, const PMsg& m) {
    s.PutBits(m.addr, 32);
    s.PutBits(m.data, 16);
  }
  static PMsg Read(BitStream& s) {
    PMsg m;
    m.addr = static_cast<std::uint32_t>(s.GetBits(32));
    m.data = static_cast<std::uint16_t>(s.GetBits(16));
    return m;
  }
};

namespace {

using namespace craft::literals;
using connections::Buffer;
using connections::Flit;

std::uint64_t CountSubstr(const std::string& hay, const std::string& needle) {
  std::uint64_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Pops `in`, pushes to `out`, forever — the span-extension pattern.
class Relay : public Module {
 public:
  Relay(Module& parent, const std::string& name, Clock& clk, Buffer<int>& in,
        Buffer<int>& out)
      : Module(parent, name) {
    Thread("run", clk, [&in, &out] {
      for (;;) out.Push(in.Pop());
    });
  }
};

// ---------- registry basics ----------

TEST(TraceSink, DisabledByDefaultRegistersNothing) {
  Simulator sim;
  EXPECT_FALSE(sim.trace_events().enabled());
  EXPECT_EQ(sim.trace_events().RegisterTrack("x", "Buffer", "clk"), nullptr);
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 2);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch) : Module(p, "b") {
      Thread("src", clk, [&ch] {
        for (int i = 0; i < 20; ++i) ch.Push(i);
      });
      Thread("dst", clk, [&ch, this] {
        for (int i = 0; i < 20; ++i) got.push_back(ch.Pop());
      });
    }
    std::vector<int> got;
  } b(top, clk, ch);
  sim.Run(1000_ns);
  EXPECT_EQ(b.got.size(), 20u);
  EXPECT_TRUE(sim.trace_events().tracks().empty());
  EXPECT_TRUE(sim.trace_events().events().empty());
  EXPECT_EQ(sim.trace_events().spans_allocated(), 0u);
}

TEST(TraceSink, BasicSpanFlowBalances) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 2);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch) : Module(p, "b") {
      Thread("src", clk, [&ch] {
        for (int i = 0; i < 20; ++i) ch.Push(i);
      });
      Thread("dst", clk, [&ch] {
        for (int i = 0; i < 20; ++i) (void)ch.Pop();
      });
    }
  } b(top, clk, ch);
  sim.Run(1000_ns);
  const TraceTrack* t = sim.trace_events().FindTrack("top.ch");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->begins(), 20u);
  EXPECT_EQ(t->ends(), 20u);
  EXPECT_TRUE(t->resident_spans().empty());
  // One root span per message: the producer thread had no context.
  EXPECT_EQ(sim.trace_events().spans_allocated(), 20u);
  EXPECT_EQ(sim.trace_events().open_slices(), 0u);
}

TEST(TraceSink, SpanPropagatesAcrossRelay) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> a(top, "a", clk, 2);
  Buffer<int> b(top, "b", clk, 2);
  Relay relay(top, "relay", clk, a, b);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& a, Buffer<int>& b) : Module(p, "b") {
      Thread("src", clk, [&a] {
        for (int i = 0; i < 15; ++i) a.Push(i);
      });
      Thread("dst", clk, [&b] {
        for (int i = 0; i < 15; ++i) (void)b.Pop();
      });
    }
  } tb(top, clk, a, b);
  sim.Run(1000_ns);
  // The relay extends each message's span from channel a to channel b: both
  // channels saw 15 slices but only 15 spans exist in total.
  EXPECT_EQ(sim.trace_events().FindTrack("top.a")->begins(), 15u);
  EXPECT_EQ(sim.trace_events().FindTrack("top.b")->begins(), 15u);
  EXPECT_EQ(sim.trace_events().spans_allocated(), 15u);
  // Every span got exactly one begin and one end per channel.
  std::set<std::uint64_t> spans_a, spans_b;
  for (const TraceEvent& e : sim.trace_events().events()) {
    if (e.kind != TraceEventKind::kBegin) continue;
    if (e.track == sim.trace_events().FindTrack("top.a")->id()) {
      spans_a.insert(e.span);
    } else {
      spans_b.insert(e.span);
    }
  }
  EXPECT_EQ(spans_a, spans_b);
}

// ---------- packetizer parent/child spans ----------

TEST(TracePacketizer, FlitSpansAreChildrenOfMessageSpan) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<PMsg> in_ch(top, "in_ch", clk, 2);
  Buffer<Flit> flit_ch(top, "flit_ch", clk, 2);
  Buffer<PMsg> out_ch(top, "out_ch", clk, 2);
  connections::Packetizer<PMsg, 16> pk(top, "pk", clk, /*dest=*/3);
  connections::DePacketizer<PMsg, 16> dpk(top, "dpk", clk);
  pk.in(in_ch);
  pk.out(flit_ch);
  dpk.in(flit_ch);
  dpk.out(out_ch);
  constexpr int kMsgs = 10;
  std::vector<PMsg> sent, got;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<PMsg>& in_ch, Buffer<PMsg>& out_ch,
      std::vector<PMsg>& sent, std::vector<PMsg>& got)
        : Module(p, "b") {
      Thread("src", clk, [&] {
        for (std::uint32_t i = 0; i < kMsgs; ++i) {
          PMsg m{0x1000 + i, static_cast<std::uint16_t>(i * 7)};
          sent.push_back(m);
          in_ch.Push(m);
        }
      });
      Thread("dst", clk, [&] {
        for (int i = 0; i < kMsgs; ++i) got.push_back(out_ch.Pop());
      });
    }
  } b(top, clk, in_ch, out_ch, sent, got);
  sim.Run(2000_ns);
  ASSERT_EQ(got, sent);

  const TraceEventSink& sink = sim.trace_events();
  const TraceTrack* tin = sink.FindTrack("top.in_ch");
  const TraceTrack* tflit = sink.FindTrack("top.flit_ch");
  const TraceTrack* tout = sink.FindTrack("top.out_ch");
  ASSERT_NE(tin, nullptr);
  ASSERT_NE(tflit, nullptr);
  ASSERT_NE(tout, nullptr);
  constexpr unsigned kFlits = 3;  // 48-bit message over 16-bit flits
  EXPECT_EQ(tflit->begins(), kMsgs * kFlits);
  EXPECT_EQ(tflit->ends(), kMsgs * kFlits);

  std::set<std::uint64_t> msg_spans, reassembled_spans;
  for (const TraceEvent& e : sink.events()) {
    if (e.kind != TraceEventKind::kBegin) continue;
    if (e.track == tin->id()) msg_spans.insert(e.span);
    if (e.track == tout->id()) reassembled_spans.insert(e.span);
    if (e.track == tflit->id()) {
      const TraceSpanInfo* si = sink.SpanInfoOf(e.span);
      ASSERT_NE(si, nullptr);
      EXPECT_NE(si->parent, 0u) << "flit span must have a parent";
      EXPECT_LT(si->flit_index, kFlits);
      EXPECT_TRUE(msg_spans.count(si->parent))
          << "flit parent must be a message span";
    }
  }
  // The DePacketizer resumes the ORIGINAL message span for the reassembled
  // push: the out channel carries the same spans as the in channel.
  EXPECT_EQ(reassembled_spans, msg_spans);
}

// ---------- Stop() consistency ----------

TEST(TraceStop, MidRunStopLeavesSinkConsistentAndResumable) {
  Simulator sim;
  sim.stats().Enable();
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 4);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch) : Module(p, "b") {
      Thread("src", clk, [&ch] {
        for (int i = 0; i < 60; ++i) ch.Push(i);
      });
      Thread("dst", clk, [&ch, this] {
        for (int i = 0; i < 60; ++i) {
          wait(2);  // slower than the producer: the buffer stays occupied
          got.push_back(ch.Pop());
        }
      });
      Thread("watchdog", clk, [this] {
        wait(10);
        sim().Stop();
      });
    }
    std::vector<int> got;
  } b(top, clk, ch);

  sim.RunUntil(10'000_ns);  // the watchdog stops this run early
  const TraceEventSink& sink = sim.trace_events();
  EXPECT_LT(b.got.size(), 60u);
  // Accounting must be consistent at the stop point: every opened slice is
  // either closed or still resident — nothing half-open or lost.
  EXPECT_EQ(sink.total_begins(), sink.total_ends() + sink.open_slices());
  EXPECT_GT(sink.open_slices(), 0u) << "messages should be in flight";
  // The export is balanced even with open slices (synthesized closes).
  const std::string doc = trace::FormatChromeJson(sim);
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"b\""), CountSubstr(doc, "\"ph\":\"e\""));
  EXPECT_GT(CountSubstr(doc, "\"truncated\":true"), 0u);

  // The stop must not corrupt the sink: resuming completes the run and
  // drains every slice.
  sim.Run(10'000_ns);
  EXPECT_EQ(b.got.size(), 60u);
  EXPECT_EQ(sink.total_begins(), sink.total_ends());
  EXPECT_EQ(sink.open_slices(), 0u);
}

// ---------- blame chains ----------

TEST(TraceBlame, ChainFollowsBackpressureToRootCause) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  // prod -> a -> relay1 -> b -> relay2 -> c -> slow consumer. The slow
  // consumer is the root cause of backpressure on all three channels.
  Buffer<int> a(top, "a", clk, 1);
  Buffer<int> b(top, "b", clk, 1);
  Buffer<int> c(top, "c", clk, 1);
  Relay relay1(top, "relay1", clk, a, b);
  Relay relay2(top, "relay2", clk, b, c);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& a, Buffer<int>& c) : Module(p, "b") {
      Thread("src", clk, [&a] {
        for (int i = 0; i < 500; ++i) a.Push(i);
      });
      Thread("slow", clk, [&c] {
        for (;;) {
          wait(16);
          (void)c.Pop();
        }
      });
    }
  } tb(top, clk, a, c);
  sim.Run(2000_ns);

  const auto chains = trace::AttributeBackpressure(sim, 10);
  ASSERT_FALSE(chains.empty());
  const trace::BlameChain* for_a = nullptr;
  for (const auto& ch : chains) {
    if (ch.start == "top.a") for_a = &ch;
  }
  ASSERT_NE(for_a, nullptr) << "channel a must appear among stalled channels";
  ASSERT_GE(for_a->links.size(), 2u);
  EXPECT_EQ(for_a->links[0].track, "top.b");
  EXPECT_TRUE(for_a->links[0].push_block);
  EXPECT_EQ(for_a->links[1].track, "top.c");
  EXPECT_TRUE(for_a->links[1].push_block);
  EXPECT_EQ(for_a->root_track(), "top.c");
  EXPECT_NE(for_a->root_cause.find("consumer busy"), std::string::npos)
      << "actual root cause: " << for_a->root_cause;

  // Determinism: a second attribution pass gives the identical report.
  const auto again = trace::AttributeBackpressure(sim, 10);
  EXPECT_EQ(trace::FormatTable(chains), trace::FormatTable(again));
}

// ---------- Chrome JSON export ----------

TEST(TraceChromeJson, StructureAndMetadata) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> a(top, "a", clk, 2);
  Buffer<int> b(top, "b", clk, 2);
  Relay relay(top, "relay", clk, a, b);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& a, Buffer<int>& b) : Module(p, "b") {
      Thread("src", clk, [&a] {
        for (int i = 0; i < 8; ++i) a.Push(i);
      });
      Thread("dst", clk, [&b] {
        for (int i = 0; i < 8; ++i) (void)b.Pop();
      });
    }
  } tb(top, clk, a, b);
  sim.Run(1000_ns);
  const std::string doc = trace::FormatChromeJson(sim);
  EXPECT_NE(doc.find("\"craft-trace-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  // Both channels live under module "top": one process, two threads.
  EXPECT_EQ(CountSubstr(doc, "\"process_name\""), 1u);
  EXPECT_EQ(CountSubstr(doc, "\"thread_name\""), 2u);
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"b\""), 16u);  // 8 msgs x 2 channels
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"b\""), CountSubstr(doc, "\"ph\":\"e\""));
}

// ---------- VCD Tracer fixes ----------

// With several workloads each trace file gets the workload name before the
// extension of the file name only; a dot in a directory name or a leading
// "./" is not an extension.
TEST(TraceChromeJson, PathForWorkloadEditsOnlyTheFileName) {
  EXPECT_EQ(trace::PathForWorkload("./trace", "vecmul"), "./trace.vecmul");
  EXPECT_EQ(trace::PathForWorkload("dir.d/trace", "dot"), "dir.d/trace.dot");
  EXPECT_EQ(trace::PathForWorkload("out.json", "conv2d"), "out.conv2d.json");
  EXPECT_EQ(trace::PathForWorkload("dir.d/out.json", "dot"), "dir.d/out.dot.json");
}

TEST(Tracer, SanitizesHostileNamesAndEmitsHeaderAndInitialValues) {
  const std::string path = ::testing::TempDir() + "/craft_trace_vcd_test.vcd";
  {
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Signal<std::uint8_t> evil(sim, "bus[3]\tnasty\nname", 0xA5);
    Signal<bool> flag(sim, "flag", true);
    Tracer tracer(sim, path);
    tracer.Trace(evil, 8);
    tracer.Trace(flag, 1);
    tracer.Start();
    Module top(sim, "top");
    struct B : Module {
      B(Module& p, Clock& clk, Signal<std::uint8_t>& s) : Module(p, "b") {
        Thread("t", clk, [&s] {
          wait();
          s.write(0x3C);
        });
      }
    } b(top, clk, evil);
    sim.Run(10_ns);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool in_dumpvars = false;
  unsigned var_lines = 0, initial_values = 0;
  bool saw_date = false, saw_version = false, saw_change = false;
  while (std::getline(in, line)) {
    if (line.rfind("$date", 0) == 0) saw_date = true;
    if (line.rfind("$version", 0) == 0) saw_version = true;
    if (line.rfind("$var", 0) == 0) {
      ++var_lines;
      // The identifier must be one whitespace-free token without brackets:
      // "$var wire <w> <id> <name> $end" is exactly 6 tokens.
      std::istringstream ts(line);
      std::vector<std::string> tok;
      std::string t;
      while (ts >> t) tok.push_back(t);
      ASSERT_EQ(tok.size(), 6u) << line;
      EXPECT_EQ(tok.back(), "$end");
      EXPECT_EQ(tok[4].find('['), std::string::npos);
      EXPECT_EQ(tok[4].find(']'), std::string::npos);
    }
    if (line == "$dumpvars") {
      in_dumpvars = true;
      continue;
    }
    if (in_dumpvars) {
      if (line == "$end") {
        in_dumpvars = false;
      } else {
        ++initial_values;
        // Scalar ("1!") or vector ("b10100101 !") value change syntax.
        EXPECT_TRUE(line[0] == '0' || line[0] == '1' || line[0] == 'b') << line;
      }
    }
    if (line == "b10100101 !") saw_change = false;  // value seen below instead
    if (line.rfind("b00111100", 0) == 0) saw_change = true;  // 0x3C written at runtime
  }
  EXPECT_TRUE(saw_date);
  EXPECT_TRUE(saw_version);
  EXPECT_EQ(var_lines, 2u);
  EXPECT_EQ(initial_values, 2u) << "every var needs an initial value";
  EXPECT_TRUE(saw_change);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace craft
