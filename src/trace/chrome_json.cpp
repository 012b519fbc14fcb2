// Chrome trace-event JSON exporter (schema craft-trace-v1, DESIGN.md §8).
//
// Layout: every track's OWNER MODULE (its hierarchical name minus the last
// component) becomes one trace "process" (pid); each track becomes one
// "thread" (tid) inside it, labelled with the track's local name and kind.
// Residency slices are nestable async events (`b`/`e`) whose id is the span
// id, so Perfetto stitches a message's hops into one async lane; stall
// episodes are thread-scoped instants. Spans still resident when the
// simulation stopped get a synthesized `e` at sim.now() tagged
// "truncated": the document is always balanced.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "kernel/simulator.hpp"
#include "kernel/stats.hpp"
#include "support/json.hpp"
#include "trace/trace.hpp"

namespace craft::trace {

namespace {

std::string OwnerOf(const std::string& track_name) {
  const std::size_t dot = track_name.rfind('.');
  return dot == std::string::npos ? track_name : track_name.substr(0, dot);
}

std::string LocalOf(const std::string& track_name) {
  const std::size_t dot = track_name.rfind('.');
  return dot == std::string::npos ? track_name : track_name.substr(dot + 1);
}

/// Timestamps: simulation picoseconds -> trace microseconds (fractional
/// microseconds keep full ps resolution).
std::string TsUs(Time ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%06llu",
                static_cast<unsigned long long>(ps / 1'000'000),
                static_cast<unsigned long long>(ps % 1'000'000));
  return buf;
}

std::string SpanId(std::uint64_t span) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%llx\"",
                static_cast<unsigned long long>(span));
  return buf;
}

}  // namespace

std::string FormatChromeJson(const Simulator& sim) {
  const TraceEventSink& sink = sim.trace_events();
  using json::Escape;

  // pid per owner module, tid per track — assigned in track-registration
  // order (elaboration order), so the document is deterministic.
  std::map<std::string, int> pid_of;       // owner -> pid
  std::vector<int> track_pid, track_tid;   // indexed by track id
  std::map<std::string, int> tids_in_pid;  // owner -> next tid
  for (const auto& t : sink.tracks()) {
    const std::string owner = OwnerOf(t->name());
    auto [it, fresh] = pid_of.emplace(owner, static_cast<int>(pid_of.size()) + 1);
    (void)fresh;
    track_pid.push_back(it->second);
    track_tid.push_back(++tids_in_pid[owner]);
  }

  std::ostringstream os;
  os << "{\n\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: process names (modules) and thread names (tracks).
  for (const auto& [owner, pid] : pid_of) {
    sep();
    os << R"({"ph":"M","name":"process_name","pid":)" << pid
       << R"(,"tid":0,"args":{"name":")" << Escape(owner) << "\"}}";
  }
  for (const auto& t : sink.tracks()) {
    sep();
    os << R"({"ph":"M","name":"thread_name","pid":)" << track_pid[t->id()]
       << ",\"tid\":" << track_tid[t->id()] << R"(,"args":{"name":")"
       << Escape(LocalOf(t->name()) + " [" + t->kind() + "]") << "\"}}";
  }

  auto common = [&](const TraceEvent& e) {
    os << "\"pid\":" << track_pid[e.track] << ",\"tid\":" << track_tid[e.track]
       << ",\"ts\":" << TsUs(e.ts);
  };

  for (const TraceEvent& e : sink.events()) {
    const TraceTrack* t = sink.track(e.track);
    sep();
    switch (e.kind) {
      case TraceEventKind::kBegin: {
        os << R"({"ph":"b","cat":"span","id":)" << SpanId(e.span)
           << ",\"name\":\"" << Escape(t->name()) << "\",";
        common(e);
        os << ",\"args\":{\"kind\":\"" << Escape(t->kind()) << "\"";
        if (!t->clock().empty()) {
          os << ",\"clock\":\"" << Escape(t->clock()) << "\"";
        }
        if (const TraceSpanInfo* si = sink.SpanInfoOf(e.span)) {
          if (si->flit_index != kNoFlitIndex) os << ",\"flit\":" << si->flit_index;
          if (si->parent != 0) os << ",\"parent\":" << SpanId(si->parent);
        }
        if (e.arg != 0) os << ",\"arg\":" << e.arg;
        os << "}}";
        break;
      }
      case TraceEventKind::kEnd: {
        os << R"({"ph":"e","cat":"span","id":)" << SpanId(e.span)
           << ",\"name\":\"" << Escape(t->name()) << "\",";
        common(e);
        os << "}";
        break;
      }
      case TraceEventKind::kInstant: {
        os << R"({"ph":"i","s":"t","cat":"stall","name":")"
           << (e.arg == 0 ? "full_stall" : "empty_stall") << "\",";
        common(e);
        os << "}";
        break;
      }
    }
  }

  // Balance the document: a synthesized end for every span still resident
  // somewhere when the simulation stopped (begins dropped by the event cap
  // never got a `b`, so they are skipped — bit 63 marks them).
  const std::string now_us = TsUs(sim.now());
  std::uint64_t truncated = 0;
  for (const auto& t : sink.tracks()) {
    for (std::uint64_t raw : t->resident_spans()) {
      if (raw & (1ull << 63)) continue;
      sep();
      ++truncated;
      os << R"({"ph":"e","cat":"span","id":)" << SpanId(raw) << ",\"name\":\""
         << Escape(t->name()) << "\",\"pid\":" << track_pid[t->id()]
         << ",\"tid\":" << track_tid[t->id()] << ",\"ts\":" << now_us
         << ",\"args\":{\"truncated\":true}}";
    }
  }

  os << "\n],\n";
  os << "\"displayTimeUnit\": \"ms\",\n";
  os << "\"otherData\": {\"schema\": \"craft-trace-v1\", \"tracks\": "
     << sink.tracks().size() << ", \"spans\": " << sink.spans_allocated()
     << ", \"begins\": " << sink.total_begins() << ", \"ends\": "
     << sink.total_ends() << ", \"truncated\": " << truncated
     << ", \"dropped_events\": " << sink.dropped_events() << "}\n";
  os << "}\n";
  return os.str();
}

std::string PathForWorkload(const std::string& base, const std::string& workload) {
  const std::size_t slash = base.rfind('/');
  const std::size_t name = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot <= name) return base + "." + workload;
  return base.substr(0, dot) + "." + workload + base.substr(dot);
}

}  // namespace craft::trace
