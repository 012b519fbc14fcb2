#include "kernel/trace_events.hpp"

#include <algorithm>
#include <tuple>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"

namespace craft {

namespace {
/// Worker event-buffer slot of the calling thread (-1 = main thread).
thread_local int tl_trace_worker = -1;

constexpr std::uint64_t kSpanGroupShift = 40;
constexpr std::uint64_t kSpanIndexMask = (1ull << kSpanGroupShift) - 1;
constexpr std::uint64_t kSpanDroppedBit = 1ull << 63;
}  // namespace

// ---- TraceEventSink ----

TraceTrack* TraceEventSink::RegisterTrack(const std::string& name,
                                          const std::string& kind,
                                          const std::string& clock) {
  if (!enabled_) return nullptr;
  auto t = std::make_unique<TraceTrack>();
  t->sink_ = this;
  t->name_ = name;
  t->kind_ = kind;
  t->clock_ = clock;
  t->id_ = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back(std::move(t));
  return tracks_.back().get();
}

std::uint64_t TraceEventSink::NewSpan(std::uint64_t parent,
                                      std::uint32_t flit_index) {
  const unsigned g = tl_sched_group;
  SpanArena& arena = *group_spans_[g];
  const std::lock_guard<std::mutex> lock(arena.mu);
  arena.spans.push_back(TraceSpanInfo{parent, flit_index});
  return (static_cast<std::uint64_t>(g + 1) << kSpanGroupShift) | arena.spans.size();
}

const TraceSpanInfo* TraceEventSink::SpanInfoOf(std::uint64_t span) const {
  span &= ~kSpanDroppedBit;
  const std::uint64_t g = span >> kSpanGroupShift;
  const std::uint64_t idx = span & kSpanIndexMask;
  if (g == 0 || g - 1 >= group_spans_.size() || idx == 0 ||
      idx > group_spans_[g - 1]->spans.size()) {
    return nullptr;
  }
  return &group_spans_[g - 1]->spans[idx - 1];
}

std::uint64_t TraceEventSink::ParentOf(std::uint64_t span) const {
  const std::uint64_t g = (span & ~kSpanDroppedBit) >> kSpanGroupShift;
  if (g == 0 || g - 1 >= group_spans_.size()) return 0;
  const std::lock_guard<std::mutex> lock(group_spans_[g - 1]->mu);
  const TraceSpanInfo* info = SpanInfoOf(span);
  return info != nullptr ? info->parent : 0;
}

std::uint64_t TraceEventSink::spans_allocated() const {
  std::uint64_t n = 0;
  for (const auto& arena : group_spans_) n += arena->spans.size();
  return n;
}

void TraceEventSink::Partition(unsigned num_groups, unsigned num_workers) {
  group_spans_.resize(num_groups);
  for (auto& arena : group_spans_)
    if (arena == nullptr) arena = std::make_unique<SpanArena>();
  group_event_counts_.resize(num_groups, 0);
  group_dropped_.resize(num_groups, 0);
  worker_events_.resize(num_workers);
  group_cap_ = std::max<std::size_t>(1, max_events_ / std::max(1u, num_groups));
}

void TraceEventSink::set_worker_slot(int w) { tl_trace_worker = w; }

void TraceEventSink::MergeShards() {
  for (auto& buf : worker_events_) {
    events_.insert(events_.end(), buf.begin(), buf.end());
    std::vector<TraceEvent>().swap(buf);
  }
  // Sort the Run's tail on the full event value: the event *set* per Run
  // is the same for any worker count, so a total order over values makes
  // the merged sequence identical too (worker interleaving is
  // wall-clock-dependent).
  const auto tail = events_.begin() + static_cast<std::ptrdiff_t>(sorted_end_);
  std::sort(tail, events_.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return std::tie(a.ts, a.track, a.span, a.kind, a.arg) <
           std::tie(b.ts, b.track, b.span, b.kind, b.arg);
  });
  sorted_end_ = events_.size();
}

void TraceEventSink::SetContext(std::uint64_t span) {
  if (ThreadProcess* t = ThreadProcess::Current()) t->trace_ctx = span;
}

std::uint64_t TraceEventSink::PeekContext() const {
  ThreadProcess* t = ThreadProcess::Current();
  return t ? t->trace_ctx : 0;
}

std::uint64_t TraceEventSink::TakeContextOrNew() {
  if (ThreadProcess* t = ThreadProcess::Current()) {
    if (t->trace_ctx != 0) {
      const std::uint64_t s = t->trace_ctx;
      t->trace_ctx = 0;
      return s;
    }
  }
  return NewSpan();
}

bool TraceEventSink::Record(TraceEventKind kind, std::uint32_t track,
                            std::uint64_t span, std::uint64_t arg) {
  // Only begins are capped: an end for a begin that made it in must also
  // make it in, or the exported b/e pairs would be unbalanced. Instants are
  // episode-start markers, bounded by the begins they interleave with. The
  // budget is per clock-domain group (worker-count-invariant).
  const unsigned g = tl_sched_group;
  if (kind == TraceEventKind::kBegin && group_event_counts_[g] >= group_cap_) {
    ++group_dropped_[g];
    return false;
  }
  ++group_event_counts_[g];
  const TraceEvent ev{kind, track, span, now(), arg};
  // Worker threads record into their own buffer. A lone worker runs on the
  // calling thread and appends straight to events_, which spares copying
  // every event once more at the merge.
  const int w = tl_trace_worker;
  if (w >= 0 && worker_events_.size() > 1) {
    worker_events_[static_cast<std::size_t>(w)].push_back(ev);
  } else {
    events_.push_back(ev);
    if (w < 0) sorted_end_ = events_.size();  // outside any Run: final order
  }
  return true;
}

std::uint64_t TraceEventSink::dropped_events() const {
  std::uint64_t n = 0;
  for (std::uint64_t d : group_dropped_) n += d;
  return n;
}

ProcessBase* TraceEventSink::CurrentProcess() const {
  return ThreadProcess::Current();
}

const TraceTrack* TraceEventSink::FindTrack(const std::string& name) const {
  for (const auto& t : tracks_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

std::uint64_t TraceEventSink::total_begins() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) n += t->begins();
  return n;
}

std::uint64_t TraceEventSink::total_ends() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) n += t->ends();
  return n;
}

std::uint64_t TraceEventSink::open_slices() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) n += t->resident_spans().size();
  return n;
}

Time TraceEventSink::now() const { return sim_ != nullptr ? sim_->now() : 0; }

// ---- TraceTrack ----

void TraceTrack::Enqueue() {
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    // A successful push ends whatever blocked-state this process was in.
    self->trace_blocked_track.store(kNoTraceTrack, std::memory_order_relaxed);
    producer_.store(self, std::memory_order_relaxed);
  }
  in_full_stall_ = false;
  const std::uint64_t span = sink_->TakeContextOrNew();
  ++begins_;
  const bool recorded = sink_->Record(TraceEventKind::kBegin, id_, span);
  std::lock_guard<std::mutex> lock(span_q_mu_);
  span_q_.push_back(recorded ? span : (span | kDroppedBit));
}

void TraceTrack::Dequeue() {
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    self->trace_blocked_track.store(kNoTraceTrack, std::memory_order_relaxed);
    consumer_.store(self, std::memory_order_relaxed);
  }
  in_empty_stall_ = false;
  std::uint64_t raw = 0;
  {
    std::lock_guard<std::mutex> lock(span_q_mu_);
    if (span_q_.empty()) return;  // defensive: nothing resident
    raw = span_q_.front();
    span_q_.pop_front();
  }
  const std::uint64_t span = raw & ~kDroppedBit;
  ++ends_;
  if ((raw & kDroppedBit) == 0) {
    sink_->Record(TraceEventKind::kEnd, id_, span);
  }
  sink_->SetContext(span);
}

void TraceTrack::PushStall() {
  ++full_stall_samples_;
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    self->trace_blocked_track.store(id_, std::memory_order_relaxed);
    self->trace_blocked_is_push.store(true, std::memory_order_relaxed);
  }
  if (!in_full_stall_) {
    in_full_stall_ = true;
    sink_->Record(TraceEventKind::kInstant, id_, 0, /*arg=*/0);
  }
  // Blame edge: what is my consumer blocked on right now? If it is blocked
  // on another track, that track is the downstream cause of this stall
  // cycle; otherwise the consumer is simply busy (or absent) — the chain
  // root cause. Across a GALS crossing the sample is a relaxed racy read
  // of the other worker's state: blame shares are diagnostics, not part of
  // the determinism guarantee (DESIGN.md §9).
  ProcessBase* cons = consumer_.load(std::memory_order_relaxed);
  if (cons != nullptr && cons != self) {
    const std::uint32_t bt = cons->trace_blocked_track.load(std::memory_order_relaxed);
    if (bt != kNoTraceTrack && bt != id_) {
      ++blame_full_[BlameKey(bt, cons->trace_blocked_is_push.load(
                                     std::memory_order_relaxed))];
      return;
    }
  }
  ++blame_busy_;
}

void TraceTrack::PopStall() {
  ++empty_stall_samples_;
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    self->trace_blocked_track.store(id_, std::memory_order_relaxed);
    self->trace_blocked_is_push.store(false, std::memory_order_relaxed);
    consumer_.store(self, std::memory_order_relaxed);  // a blocked popper is
                                                       // still the consumer
  }
  if (!in_empty_stall_) {
    in_empty_stall_ = true;
    sink_->Record(TraceEventKind::kInstant, id_, 0, /*arg=*/1);
  }
  ProcessBase* prod = producer_.load(std::memory_order_relaxed);
  if (prod != nullptr && prod != self) {
    const std::uint32_t bt = prod->trace_blocked_track.load(std::memory_order_relaxed);
    if (bt != kNoTraceTrack && bt != id_) {
      ++blame_empty_[BlameKey(bt, prod->trace_blocked_is_push.load(
                                      std::memory_order_relaxed))];
      return;
    }
  }
  ++starve_idle_;
}

void TraceTrack::PrimeContext() {
  std::uint64_t raw = 0;
  {
    std::lock_guard<std::mutex> lock(span_q_mu_);
    if (span_q_.empty()) return;
    raw = span_q_.front();
  }
  sink_->SetContext(raw & ~kDroppedBit);
}

std::uint64_t TraceTrack::BeginActivity(std::uint64_t arg) {
  const std::uint64_t span = sink_->NewSpan();
  ++begins_;
  const bool recorded = sink_->Record(TraceEventKind::kBegin, id_, span, arg);
  std::lock_guard<std::mutex> lock(span_q_mu_);
  span_q_.push_back(recorded ? span : (span | kDroppedBit));
  return span;
}

void TraceTrack::EndActivity(std::uint64_t span) {
  bool found = false;
  bool recorded = false;
  {
    std::lock_guard<std::mutex> lock(span_q_mu_);
    for (auto it = span_q_.begin(); it != span_q_.end(); ++it) {
      if ((*it & ~kDroppedBit) == span) {
        recorded = (*it & kDroppedBit) == 0;
        span_q_.erase(it);
        found = true;
        break;
      }
    }
  }
  if (!found) return;
  ++ends_;
  if (recorded) sink_->Record(TraceEventKind::kEnd, id_, span);
}

std::string TraceTrack::producer_name() const {
  ProcessBase* p = producer_.load(std::memory_order_relaxed);
  return p != nullptr ? p->name() : std::string();
}

std::string TraceTrack::consumer_name() const {
  ProcessBase* c = consumer_.load(std::memory_order_relaxed);
  return c != nullptr ? c->name() : std::string();
}

}  // namespace craft
