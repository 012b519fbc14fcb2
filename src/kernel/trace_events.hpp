// craft-trace: opt-in transaction-level message tracing (the "why is this
// channel stalled" companion to craft-stats' "how much"). Records
// timestamped begin/end/instant events with a per-message SPAN ID that is
// allocated at a message's first Push/PushNB into a traced channel and then
// propagated hop-by-hop: every Pop deposits the popped message's span into
// the popping thread's context slot, and the next Push consumes it. A
// relaying process (packetizer, router, GALS crossing, PE server) therefore
// extends the same span across channels without any change to message types.
//
// A TraceEventSink hangs off the Simulator; channels, FIFOs and crossings
// register a TraceTrack during elaboration through their instrumentation
// probe (kernel/probe.hpp). Enable with `sim.trace_events().Enable()`
// BEFORE elaborating the design.
//
// On top of the span slices the sink maintains the raw material for
// backpressure root-cause attribution (src/trace/blame.cpp): every stall
// cycle of a blocking Push (or rejected PushNB) on channel A samples what
// A's consumer process is itself blocked on, accumulating "blame" edges
// A -> B. Walking the largest-share edges yields the blame chain reported
// by `craft trace`. Reporters live in src/trace (trace::FormatChromeJson
// exports Chrome trace-event JSON loadable in Perfetto, schema
// craft-trace-v1, documented in DESIGN.md §8).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace craft {

class ProcessBase;
class Simulator;
class TraceEventSink;

enum class TraceEventKind : std::uint8_t {
  kBegin,   ///< message became resident on a track (enqueue)
  kEnd,     ///< message left the track (dequeue)
  kInstant  ///< point event: start of a stall episode, activity marker
};

/// One recorded event. `span` identifies the message (async id in the
/// Chrome export); `arg` carries the instant subtype (0 = full stall,
/// 1 = empty stall) or an activity payload (PE opcode).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kInstant;
  std::uint32_t track = 0;
  std::uint64_t span = 0;
  Time ts = 0;
  std::uint64_t arg = 0;
};

/// Per-span metadata: parent links child flit spans to the message span
/// the Packetizer split (kNoFlit when the span is not a flit).
struct TraceSpanInfo {
  std::uint64_t parent = 0;
  std::uint32_t flit_index = 0xFFFF'FFFFu;
};

inline constexpr std::uint32_t kNoFlitIndex = 0xFFFF'FFFFu;

/// One timeline: a channel, a router VC FIFO, a GALS crossing, or a
/// process-activity track (PE kernel execution). Tracks are registered at
/// elaboration and hold both the residency queue (spans currently on the
/// track, FIFO order — tokens commit in push order, so fronts stay aligned
/// exactly like the stats latency stamps) and the blame accumulators.
class TraceTrack {
 public:
  // ---- hot-path hooks (reachable only when tracing is enabled) ----

  /// Successful enqueue: consume the calling thread's span context (or
  /// allocate a fresh root span) and open a residency slice.
  void Enqueue();

  /// Successful dequeue: close the front slice and deposit its span into
  /// the calling thread's context for propagation to the next Push.
  void Dequeue();

  /// Producer blocked (blocking Push retry or PushNB reject): marks the
  /// calling process as blocked on this track and samples what this
  /// track's consumer is blocked on (the blame edge).
  void PushStall();

  /// Blocking Pop waiting on an empty track: symmetric starvation sample.
  void PopStall();

  /// Sets the calling thread's span context to the front resident span
  /// WITHOUT dequeuing — for forward-then-pop patterns (WHVCRouter pushes
  /// the peeked flit before popping its VC FIFO).
  void PrimeContext();

  /// Opens a free-standing activity span (PE kernel execution). Returns
  /// the span id to pass to EndActivity. `arg` is attached to the begin
  /// event (e.g. the opcode).
  std::uint64_t BeginActivity(std::uint64_t arg = 0);
  void EndActivity(std::uint64_t span);

  // ---- identity / results (read by reporters and tests) ----

  const std::string& name() const { return name_; }
  const std::string& kind() const { return kind_; }
  const std::string& clock() const { return clock_; }
  std::uint32_t id() const { return id_; }

  std::uint64_t begins() const { return begins_; }
  std::uint64_t ends() const { return ends_; }
  std::uint64_t full_stall_samples() const { return full_stall_samples_; }
  std::uint64_t empty_stall_samples() const { return empty_stall_samples_; }
  std::uint64_t blame_busy() const { return blame_busy_; }
  std::uint64_t starve_idle() const { return starve_idle_; }

  /// Blame edges: key encodes (blocked-on track id << 1 | is_push_block),
  /// value is the number of stall samples attributed to that edge.
  /// blame_full: why doesn't my consumer drain me; blame_empty: why
  /// doesn't my producer fill me.
  static std::uint64_t BlameKey(std::uint32_t track, bool is_push) {
    return (static_cast<std::uint64_t>(track) << 1) | (is_push ? 1u : 0u);
  }
  static std::uint32_t BlameTrackOf(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 1);
  }
  static bool BlameIsPush(std::uint64_t key) { return (key & 1) != 0; }
  const std::map<std::uint64_t, std::uint64_t>& blame_full() const {
    return blame_full_;
  }
  const std::map<std::uint64_t, std::uint64_t>& blame_empty() const {
    return blame_empty_;
  }

  /// Spans currently resident (open slices). Bit 63 marks a span whose
  /// begin event was dropped by the event cap.
  const std::deque<std::uint64_t>& resident_spans() const { return span_q_; }

  /// Names of the last process seen producing into / consuming from this
  /// track (empty if none yet) — the blame report's process attribution.
  std::string producer_name() const;
  std::string consumer_name() const;

 private:
  friend class TraceEventSink;
  static constexpr std::uint64_t kDroppedBit = 1ull << 63;

  TraceEventSink* sink_ = nullptr;
  std::string name_;
  std::string kind_;
  std::string clock_;
  std::uint32_t id_ = 0;

  // The residency queue is the one piece of track state both sides of a
  // GALS crossing touch (producer pushes, consumer pops); under craft-par
  // those run on different workers, so it is mutex-guarded. Uncontended —
  // and semantically inert — everywhere else. producer_/consumer_ and the
  // per-process blocked fields are read across the crossing by blame
  // sampling, hence atomic; the remaining counters are single-side-owned
  // (begins/full-stall state on the producer side, ends/empty-stall state
  // on the consumer side).
  std::mutex span_q_mu_;
  std::deque<std::uint64_t> span_q_;
  std::atomic<ProcessBase*> producer_{nullptr};
  std::atomic<ProcessBase*> consumer_{nullptr};
  bool in_full_stall_ = false;
  bool in_empty_stall_ = false;

  std::uint64_t begins_ = 0;
  std::uint64_t ends_ = 0;
  std::uint64_t full_stall_samples_ = 0;
  std::uint64_t empty_stall_samples_ = 0;
  std::uint64_t blame_busy_ = 0;
  std::uint64_t starve_idle_ = 0;
  std::map<std::uint64_t, std::uint64_t> blame_full_;
  std::map<std::uint64_t, std::uint64_t> blame_empty_;
};

/// The trace sink. One per Simulator; disabled by default, and
/// RegisterTrack returns nullptr while disabled.
class TraceEventSink {
 public:
  bool enabled() const { return enabled_; }

  /// Turns tracing on. Must be called before elaborating the design:
  /// components snapshot their track pointer at construction time.
  void Enable() {
    enabled_ = true;
    Partition(1, 1);
  }

  /// Registers a timeline under its hierarchical design name. `kind` is a
  /// channel kind ("Buffer", ...), "vc_fifo", "crossing", or "activity";
  /// `clock` the owning clock-domain name (may be empty).
  TraceTrack* RegisterTrack(const std::string& name, const std::string& kind,
                            const std::string& clock);

  // ---- span management ----

  /// Allocates a span id (0 means "no span"). The id is
  /// (group+1) << 40 | per-group 1-based index: a function of the
  /// allocating clock-domain group's own history, so ids are identical for
  /// any worker count.
  std::uint64_t NewSpan(std::uint64_t parent = 0,
                        std::uint32_t flit_index = kNoFlitIndex);
  std::uint64_t ParentOf(std::uint64_t span) const;
  const TraceSpanInfo* SpanInfoOf(std::uint64_t span) const;
  std::uint64_t spans_allocated() const;

  // ---- craft-par sharding ----

  /// Sizes the per-domain-group span arenas and the per-worker event
  /// buffers (merged by MergeShards; a lone worker needs none and appends
  /// straight to events()). Enable() starts with one group; the engine
  /// calls this again at partition time. The per-group begin-event
  /// budget is max_events / num_groups, so capping behaviour is also
  /// independent of the worker count.
  void Partition(unsigned num_groups, unsigned num_workers);

  /// Installs the calling thread's worker event buffer (-1 = the main
  /// thread, which appends straight to the merged vector). Set by the
  /// engine on each worker thread.
  static void set_worker_slot(int w);

  /// Appends the worker buffers to events() and releases them, then sorts
  /// everything recorded since the previous merge into a deterministic
  /// order (by timestamp/track/span/kind). Called by the engine at the end
  /// of each Run, with all workers parked.
  void MergeShards();

  // ---- per-thread span context (the propagation mechanism) ----

  /// Deposits `span` in the current thread process's context slot (no-op
  /// outside a thread process, e.g. signal-accurate method processes).
  void SetContext(std::uint64_t span);

  /// Current context without consuming it (0 if none).
  std::uint64_t PeekContext() const;

  /// Consumes the context, or allocates a fresh root span if none is set.
  std::uint64_t TakeContextOrNew();

  // ---- event recording ----

  /// Appends an event; begins are dropped (counted) past the cap, ends and
  /// instants always record so emitted begin/end pairs stay balanced.
  /// Returns false if the event was dropped.
  bool Record(TraceEventKind kind, std::uint32_t track, std::uint64_t span,
              std::uint64_t arg = 0);

  /// Bounds the event vector (memory guard for very long runs). Ends for
  /// already-recorded begins are exempt so the export stays well-formed.
  void set_max_events(std::size_t n) { max_events_ = n; }
  std::uint64_t dropped_events() const;

  // ---- results ----

  const std::vector<std::unique_ptr<TraceTrack>>& tracks() const {
    return tracks_;
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  TraceTrack* track(std::uint32_t id) {
    return id < tracks_.size() ? tracks_[id].get() : nullptr;
  }
  const TraceTrack* track(std::uint32_t id) const {
    return id < tracks_.size() ? tracks_[id].get() : nullptr;
  }
  const TraceTrack* FindTrack(const std::string& name) const;

  /// Total slices opened / closed across all tracks, and the number still
  /// open (messages resident in channels when the simulation stopped).
  std::uint64_t total_begins() const;
  std::uint64_t total_ends() const;
  std::uint64_t open_slices() const;

  Time now() const;

 private:
  friend class Simulator;
  friend class TraceTrack;

  ProcessBase* CurrentProcess() const;

  Simulator* sim_ = nullptr;  // set by the owning Simulator's constructor
  bool enabled_ = false;
  std::vector<std::unique_ptr<TraceTrack>> tracks_;
  std::vector<TraceEvent> events_;
  std::size_t sorted_end_ = 0;  // events_[0, sorted_end_) are in final order
  std::size_t max_events_ = 4'000'000;

  // craft-par: per-group span arenas and drop accounting, per-worker event
  // buffers.
  std::size_t group_cap_ = 0;
  std::vector<std::vector<TraceSpanInfo>> group_spans_;
  std::vector<std::size_t> group_event_counts_;
  std::vector<std::uint64_t> group_dropped_;
  std::vector<std::vector<TraceEvent>> worker_events_;
};

}  // namespace craft
