#include "kernel/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <tuple>
#include <vector>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"
#include "support/json.hpp"

namespace craft::stats {

using json::Escape;

namespace {

/// True if the entry never saw traffic; the table elides such rows (a 3x3
/// GALS SoC registers hundreds of router VC FIFOs, most of them idle).
bool Idle(const ChannelStats& c) {
  return c.enqueues == 0 && c.dequeues == 0 && c.push_rejects == 0 &&
         c.pop_rejects == 0 && c.full_stall_cycles == 0 && c.empty_stall_cycles == 0;
}
bool Idle(const CrossingStats& c) {
  return c.transfers == 0 && c.enq_pause_events == 0 && c.deq_pause_events == 0;
}
bool Idle(const FifoStats& f) { return f.pushes == 0 && f.pops == 0; }

void Rule(std::ostringstream& os, const char* title) {
  os << "---- " << title << " " << std::string(std::max<int>(1, 66 - static_cast<int>(std::string(title).size())), '-')
     << "\n";
}

}  // namespace

std::string OpenMetricsEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string SanitizeSite(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::map<std::string, MeasuredRate> MeasuredChannelRates(const Simulator& sim) {
  std::map<std::string, MeasuredRate> out;
  const Time elapsed = sim.now();
  if (!sim.stats().enabled() || elapsed == 0) return out;
  for (const auto& [name, ch] : sim.stats().channels()) {
    MeasuredRate r;
    r.tokens = ch.dequeues;
    r.tokens_per_ps = static_cast<double>(ch.dequeues) / static_cast<double>(elapsed);
    r.tokens_per_cycle = r.tokens_per_ps * static_cast<double>(ch.period_ps);
    out[name] = r;
  }
  return out;
}

std::map<std::string, MeasuredRate> MeasuredCrossingRates(const Simulator& sim) {
  std::map<std::string, MeasuredRate> out;
  const Time elapsed = sim.now();
  if (!sim.stats().enabled() || elapsed == 0) return out;
  for (const auto& [name, x] : sim.stats().crossings()) {
    MeasuredRate r;
    r.tokens = x.transfers;
    r.tokens_per_ps = static_cast<double>(x.transfers) / static_cast<double>(elapsed);
    r.tokens_per_cycle = r.tokens_per_ps * static_cast<double>(x.consumer_period_ps);
    out[name] = r;
  }
  return out;
}

std::string FormatTable(const Simulator& sim) {
  const StatsRegistry& reg = sim.stats();
  std::ostringstream os;
  if (!reg.enabled()) {
    os << "craft-stats: disabled (call sim.stats().Enable() before elaboration)\n";
    return os.str();
  }

  Rule(os, "kernel");
  os << "  time " << sim.now() << " ps | deltas " << sim.delta_count() << " | timed events "
     << sim.timed_fired() << " | dispatches " << sim.dispatch_count() << "\n";

  // Dispatch counts, unlike wall time, rank the rows the same on every run.
  Rule(os, "processes (top 10 by dispatches)");
  std::vector<const ProcessBase*> procs;
  for (const auto& p : sim.processes()) procs.push_back(p.get());
  std::sort(procs.begin(), procs.end(), [](const ProcessBase* a, const ProcessBase* b) {
    return std::tie(b->stat_dispatches, a->name()) < std::tie(a->stat_dispatches, b->name());
  });
  std::size_t shown = 0;
  for (const ProcessBase* p : procs) {
    if (shown++ >= 10) break;
    os << "  " << std::left << std::setw(40) << SanitizeSite(p->name()) << " dispatches "
       << std::right << std::setw(10) << p->stat_dispatches << "  wall "
       << std::setw(10) << p->stat_wall_ns << " ns\n";
  }

  Rule(os, "channels");
  os << "  name | kind cap | enq deq | stall(full/empty) | rej(push/pop) | hiwater | "
        "latency mean [min,max]\n";
  for (const auto& [name, c] : reg.channels()) {
    if (Idle(c)) continue;
    os << "  " << SanitizeSite(name) << " | " << c.kind << " " << c.capacity << " | " << c.enqueues
       << " " << c.dequeues << " | " << c.full_stall_cycles << "/" << c.empty_stall_cycles
       << " | " << c.push_rejects << "/" << c.pop_rejects << " | "
       << c.occupancy_high_water << " | " << std::fixed << std::setprecision(2)
       << c.latency.mean();
    if (c.latency.count > 0)
      os << " [" << c.latency.min_cycles() << "," << c.latency.max_cycles() << "]";
    os << "\n";
  }

  Rule(os, "gals crossings");
  for (const auto& [name, c] : reg.crossings()) {
    if (Idle(c)) continue;
    os << "  " << SanitizeSite(name) << " (" << SanitizeSite(c.producer_clock)
       << " -> " << SanitizeSite(c.consumer_clock)
       << ") | transfers " << c.transfers << " | sync wait " << c.enq_sync_wait_cycles
       << "/" << c.deq_sync_wait_cycles << " | pauses " << c.enq_pause_events << "/"
       << c.deq_pause_events << " | mean latency " << std::fixed << std::setprecision(2)
       << c.mean_latency_cycles() << " cyc\n";
  }

  Rule(os, "fifos");
  for (const auto& [name, f] : reg.fifos()) {
    if (Idle(f)) continue;
    os << "  " << SanitizeSite(name) << " | cap " << f.capacity << " | push " << f.pushes << " | pop "
       << f.pops << " | hiwater " << f.high_water << "\n";
  }
  return os.str();
}

std::string FormatJson(const Simulator& sim) {
  const StatsRegistry& reg = sim.stats();
  std::ostringstream os;
  os << "{\n  \"schema\": \"craft-stats-v1\",\n";
  os << "  \"enabled\": " << (reg.enabled() ? "true" : "false") << ",\n";
  os << "  \"sim\": {\"now_ps\": " << sim.now() << ", \"delta_cycles\": " << sim.delta_count()
     << ", \"timed_events\": " << sim.timed_fired()
     << ", \"process_dispatches\": " << sim.dispatch_count() << "},\n";

  os << "  \"channels\": [";
  bool first = true;
  for (const auto& [name, c] : reg.channels()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"kind\": \"" << Escape(c.kind) << "\", \"capacity\": " << c.capacity
       << ", \"enqueues\": " << c.enqueues << ", \"dequeues\": " << c.dequeues
       << ", \"full_stall_cycles\": " << c.full_stall_cycles
       << ", \"empty_stall_cycles\": " << c.empty_stall_cycles
       << ", \"push_rejects\": " << c.push_rejects << ", \"pop_rejects\": " << c.pop_rejects
       << ", \"occupancy_high_water\": " << c.occupancy_high_water
       << ", \"latency\": {\"count\": " << c.latency.count << ", \"mean_cycles\": "
       << c.latency.mean() << ", \"min\": " << c.latency.min_cycles()
       << ", \"max\": " << c.latency.max_cycles() << ", \"log2_buckets\": [";
    for (unsigned b = 0; b < LatencyHistogram::kBuckets; ++b) {
      os << (b ? ", " : "") << c.latency.buckets[b];
    }
    os << "]}}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"crossings\": [";
  first = true;
  for (const auto& [name, c] : reg.crossings()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"producer_clock\": \"" << Escape(c.producer_clock)
       << "\", \"consumer_clock\": \"" << Escape(c.consumer_clock)
       << "\", \"transfers\": " << c.transfers
       << ", \"enq_sync_wait_cycles\": " << c.enq_sync_wait_cycles
       << ", \"deq_sync_wait_cycles\": " << c.deq_sync_wait_cycles
       << ", \"enq_pause_events\": " << c.enq_pause_events
       << ", \"deq_pause_events\": " << c.deq_pause_events
       << ", \"mean_latency_cycles\": " << c.mean_latency_cycles() << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"fifos\": [";
  first = true;
  for (const auto& [name, f] : reg.fifos()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"capacity\": " << f.capacity << ", \"pushes\": " << f.pushes
       << ", \"pops\": " << f.pops << ", \"high_water\": " << f.high_water << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"processes\": [";
  first = true;
  for (const auto& p : sim.processes()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(p->name())
       << "\", \"dispatches\": " << p->stat_dispatches
       << ", \"wall_ns\": " << p->stat_wall_ns << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

namespace {

/// One OpenMetrics family: TYPE line + one sample per site. Counter sample
/// names carry the mandatory _total suffix; gauges use the bare name.
struct OmWriter {
  std::ostringstream& os;

  void Family(const char* name, const char* type, const char* help) {
    os << "# TYPE " << name << " " << type << "\n";
    os << "# HELP " << name << " " << help << "\n";
  }
  template <typename V>
  void Sample(const char* family, bool counter, const char* label_key,
              const std::string& label_value, V value) {
    os << family << (counter ? "_total" : "") << "{" << label_key << "=\""
       << OpenMetricsEscape(label_value) << "\"} " << value << "\n";
  }
};

}  // namespace

std::string FormatOpenMetrics(const Simulator& sim) {
  const StatsRegistry& reg = sim.stats();
  std::ostringstream os;
  OmWriter om{os};

  om.Family("craft_sim_now_ps", "gauge", "Simulated time in picoseconds");
  os << "craft_sim_now_ps " << sim.now() << "\n";
  om.Family("craft_sim_delta_cycles", "counter", "Delta cycles settled");
  os << "craft_sim_delta_cycles_total " << sim.delta_count() << "\n";
  om.Family("craft_sim_timed_events", "counter", "Timed event callbacks fired");
  os << "craft_sim_timed_events_total " << sim.timed_fired() << "\n";
  om.Family("craft_sim_dispatches", "counter", "Evaluate-phase process dispatches");
  os << "craft_sim_dispatches_total " << sim.dispatch_count() << "\n";

  struct ChanFamily {
    const char* name;
    const char* help;
    std::uint64_t ChannelStats::*field;
  };
  static constexpr ChanFamily kChanFamilies[] = {
      {"craft_channel_enqueues", "Messages accepted by the channel",
       &ChannelStats::enqueues},
      {"craft_channel_dequeues", "Messages delivered by the channel",
       &ChannelStats::dequeues},
      {"craft_channel_full_stall_cycles",
       "Cycles a blocking Push waited on space", &ChannelStats::full_stall_cycles},
      {"craft_channel_empty_stall_cycles",
       "Cycles a blocking Pop waited on data", &ChannelStats::empty_stall_cycles},
      {"craft_channel_push_rejects", "Failed PushNB attempts",
       &ChannelStats::push_rejects},
      {"craft_channel_pop_rejects", "Failed PopNB attempts",
       &ChannelStats::pop_rejects},
  };
  for (const ChanFamily& f : kChanFamilies) {
    om.Family(f.name, "counter", f.help);
    for (const auto& [name, c] : reg.channels())
      om.Sample(f.name, true, "channel", name, c.*(f.field));
  }
  om.Family("craft_channel_occupancy_high_water", "gauge",
            "Peak buffered messages observed");
  for (const auto& [name, c] : reg.channels())
    om.Sample("craft_channel_occupancy_high_water", false, "channel", name,
              c.occupancy_high_water);

  om.Family("craft_crossing_transfers", "counter",
            "Tokens through the pausible GALS crossing");
  for (const auto& [name, c] : reg.crossings())
    om.Sample("craft_crossing_transfers", true, "crossing", name, c.transfers);
  om.Family("craft_crossing_sync_wait_cycles", "counter",
            "Cycles either endpoint waited inside the synchronizer grace window");
  for (const auto& [name, c] : reg.crossings())
    om.Sample("craft_crossing_sync_wait_cycles", true, "crossing", name,
              c.enq_sync_wait_cycles + c.deq_sync_wait_cycles);
  om.Family("craft_crossing_pause_events", "counter",
            "Distinct pause events on either side of the crossing");
  for (const auto& [name, c] : reg.crossings())
    om.Sample("craft_crossing_pause_events", true, "crossing", name,
              c.enq_pause_events + c.deq_pause_events);

  om.Family("craft_fifo_pushes", "counter", "Pushes into the untimed FIFO");
  for (const auto& [name, f] : reg.fifos())
    om.Sample("craft_fifo_pushes", true, "fifo", name, f.pushes);
  om.Family("craft_fifo_pops", "counter", "Pops out of the untimed FIFO");
  for (const auto& [name, f] : reg.fifos())
    om.Sample("craft_fifo_pops", true, "fifo", name, f.pops);
  om.Family("craft_fifo_high_water", "gauge", "Peak FIFO occupancy observed");
  for (const auto& [name, f] : reg.fifos())
    om.Sample("craft_fifo_high_water", false, "fifo", name, f.high_water);

  om.Family("craft_process_dispatches", "counter",
            "Evaluate-phase dispatches of the process");
  for (const auto& p : sim.processes())
    om.Sample("craft_process_dispatches", true, "process", p->name(),
              p->stat_dispatches);
  om.Family("craft_process_wall_ns", "counter",
            "Host wall-clock spent inside the process, ns");
  for (const auto& p : sim.processes())
    om.Sample("craft_process_wall_ns", true, "process", p->name(),
              p->stat_wall_ns);

  os << "# EOF\n";
  return os.str();
}

}  // namespace craft::stats
