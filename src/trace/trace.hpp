// craft-trace reporters: Chrome trace-event JSON export (Perfetto-loadable)
// and backpressure root-cause attribution over the TraceEventSink that the
// kernel populates (src/kernel/trace_events.hpp).
//
//  * FormatChromeJson — schema craft-trace-v1 (DESIGN.md §8). Modules map to
//    pids, tracks (channels / VC FIFOs / crossings / activity lanes) to
//    tids; residency slices become `b`/`e` async events keyed by the span
//    id, so one message's journey through the design lines up as one async
//    lane in the Perfetto UI. Stall episodes are `i` instant events.
//
//  * AttributeBackpressure — walks the per-track blame edges (every stall
//    cycle of channel A sampled what A's consumer was itself blocked on)
//    from the most full-stalled channels downstream to whatever finally
//    refuses to make progress: the blame chain. Deterministic under a fixed
//    dispatch order — ties break toward the lexicographically first track.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace craft {
class Simulator;
}

namespace craft::trace {

/// Serializes the simulator's TraceEventSink as Chrome trace-event JSON
/// (schema craft-trace-v1), loadable in Perfetto / chrome://tracing.
std::string FormatChromeJson(const Simulator& sim);

/// Where the trace of `workload` goes when one run writes several: the
/// workload name is inserted before the extension of the last path
/// component ("out.json" -> "out.conv2d.json", "dir.d/trace" ->
/// "dir.d/trace.conv2d").
std::string PathForWorkload(const std::string& base, const std::string& workload);

/// One hop of a blame chain: the previous hop's blocked endpoint was
/// waiting on this track.
struct BlameLink {
  std::string track;        ///< blamed track (hierarchical name)
  std::string kind;         ///< its kind (channel kind / vc_fifo / crossing)
  bool push_block = false;  ///< blocked pushing into it (full) vs popping (empty)
  std::uint64_t samples = 0;  ///< stall samples attributed to this edge
  double share = 0.0;         ///< samples / all samples at the previous hop
  std::string via_process;    ///< the blocked process that forms the edge
};

/// A full chain from a stalled channel to its root cause.
struct BlameChain {
  std::string start;             ///< the stalled channel under diagnosis
  std::string start_kind;
  std::uint64_t stall_samples = 0;  ///< its full-stall samples
  std::vector<BlameLink> links;     ///< downstream hops, in walk order
  std::string root_cause;           ///< terminal: busy consumer, idle
                                    ///< producer, cycle, or depth limit
  /// The channel/track where the walk ended (== start when links is empty).
  std::string root_track() const {
    return links.empty() ? start : links.back().track;
  }
};

/// Builds blame chains for the `top_n` most full-stalled tracks.
std::vector<BlameChain> AttributeBackpressure(const Simulator& sim,
                                              std::size_t top_n = 10);

/// Human-readable blame report.
std::string FormatTable(const std::vector<BlameChain>& chains);

/// Machine-readable blame report, schema "craft-trace-blame-v1".
std::string FormatJson(const Simulator& sim,
                       const std::vector<BlameChain>& chains);

}  // namespace craft::trace
