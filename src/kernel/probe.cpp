#include "kernel/probe.hpp"

#include "kernel/clock.hpp"
#include "kernel/simulator.hpp"

namespace craft {

// ---- ChannelProbe ----
//
// Stall cycles count retries of blocking endpoints only; a failed PushNB or
// PopNB is a reject. A push reject is still a cycle of link backpressure
// for the polling producer (a router's switch traversal), so it takes the
// same trace/blame sample as a push stall; a failed poll of an empty
// channel is no starvation evidence (routers scan every input each cycle).

void ChannelProbe::OnEnqueue(std::size_t occupancy) {
  if (stats_ != nullptr) {
    ++stats_->enqueues;
    enq_times_.push_back(sim_->now());
    if (occupancy > stats_->occupancy_high_water) stats_->occupancy_high_water = occupancy;
  }
  if (trace_ != nullptr) trace_->Enqueue();
  if (cover_ != nullptr) CoverOccupancy(occupancy);
}

// Occupancy band 0 empty, 1 low, 2 high, 3 full; an entry counts only when
// the band changes, so the bins are schedule-length independent.
void ChannelProbe::CoverOccupancy(std::size_t occupancy) {
  const unsigned band = occupancy == 0                        ? 0
                        : occupancy >= cover_->capacity_       ? 3
                        : occupancy >= cover_->high_threshold_ ? 2
                                                               : 1;
  if (band == cover_->band_) return;
  cover_->band_ = band;
  ++cover_->entries_[band];
}

void ChannelProbe::OnDequeue(std::size_t occupancy) {
  if (stats_ != nullptr) {
    ++stats_->dequeues;
    if (!enq_times_.empty()) {  // latency in cycles of the channel's clock
      stats_->latency.Record((sim_->now() - enq_times_.front()) / clk_->period());
      enq_times_.pop_front();
    }
  }
  if (trace_ != nullptr) trace_->Dequeue();
  if (cover_ != nullptr) CoverOccupancy(occupancy);
}

void ChannelProbe::OnPushReject() {
  if (stats_ != nullptr) ++stats_->push_rejects;
  if (trace_ != nullptr) trace_->PushStall();
}

void ChannelProbe::OnPopReject() {
  if (stats_ != nullptr) ++stats_->pop_rejects;
}

void ChannelProbe::OnPushStall() {
  if (stats_ != nullptr) ++stats_->full_stall_cycles;
  if (trace_ != nullptr) trace_->PushStall();
}

void ChannelProbe::OnPopStall() {
  if (stats_ != nullptr) ++stats_->empty_stall_cycles;
  if (trace_ != nullptr) trace_->PopStall();
}

// ---- CrossingProbe ----
//
// The trace slice covers the crossing itself, from the producer's publish
// to the consumer's take; ring order is FIFO order, so the track's span
// queue stays aligned.

void CrossingProbe::OnEnqWait() {
  if (stats_ != nullptr) ++stats_->enq_sync_wait_cycles;
  if (trace_ != nullptr) trace_->PushStall();
}

void CrossingProbe::OnDeqWait() {
  if (stats_ != nullptr) ++stats_->deq_sync_wait_cycles;
  if (trace_ != nullptr) trace_->PopStall();
}

void CrossingProbe::OnPublish(bool paused) {
  if (stats_ != nullptr && paused) ++stats_->enq_pause_events;
  if (trace_ != nullptr) trace_->Enqueue();
}

void CrossingProbe::OnDeliver(Time latency, bool paused) {
  if (stats_ != nullptr) {
    if (paused) ++stats_->deq_pause_events;
    ++stats_->transfers;
    stats_->total_latency_ps += latency;
  }
  if (trace_ != nullptr) trace_->Dequeue();  // context for the onward Push
}

// ---- FifoProbe ----

void FifoProbe::OnPush(std::size_t size) {
  if (stats_ != nullptr) {
    ++stats_->pushes;
    if (size > stats_->high_water) stats_->high_water = size;
  }
  if (trace_ != nullptr) trace_->Enqueue();
}

void FifoProbe::OnPop() {
  if (stats_ != nullptr) ++stats_->pops;
  if (trace_ != nullptr) trace_->Dequeue();
}

void FifoProbe::PrimeContext() {
  if (trace_ != nullptr) trace_->PrimeContext();
}

// ---- PacketizerProbe ----

void PacketizerProbe::OnMessage(std::size_t flits) {
  // The pop left the message's span in this thread's context; it becomes
  // the parent of one child span per flit.
  if (trace_ != nullptr) parent_ = trace_->TakeContextOrNew();
  if (cover_ != nullptr) {
    ++cover_->messages_;
    if (flits > 1) ++cover_->multi_flit_;
    if (flits >= cover_->flits_per_message_) ++cover_->max_flit_;
  }
}

void PacketizerProbe::OnFlit(std::size_t index) {
  if (trace_ != nullptr) {
    trace_->SetContext(trace_->NewSpan(parent_, static_cast<std::uint32_t>(index)));
  }
}

void PacketizerProbe::OnHead() {
  // The head flit's child span is in the context; the reassembled push
  // resumes its parent, the message span.
  if (trace_ != nullptr) parent_ = trace_->ParentOf(trace_->PeekContext());
}

// Coverage counts every framing outcome; craft-chaos logs each failed check
// as a detection, which its corruption oracle requires.
void PacketizerProbe::OnFraming(Framing outcome, std::size_t flits) {
  const auto detect = [&](const char* kind, const std::string& detail) {
    if (chaos_ != nullptr) chaos_->ReportDetection(name_, kind, detail);
  };
  const std::string expected = std::to_string(flits_per_message_);
  switch (outcome) {
    case Framing::kHeadResync:
      if (cover_ != nullptr) ++cover_->head_resyncs_;
      detect("framing-head", "head flit arrived mid-assembly (" + std::to_string(flits) +
                                 " of " + expected + " flits buffered)");
      break;
    case Framing::kOrphan:
      if (cover_ != nullptr) ++cover_->orphans_;
      detect("framing-orphan", "mid-packet flit with no packet open");
      break;
    case Framing::kDiscard:
      if (cover_ != nullptr) ++cover_->discards_;
      detect("framing-count", "packet closed with " + std::to_string(flits) +
                                  " flits, expected " + expected);
      break;
    case Framing::kAssembled:
      if (cover_ != nullptr) ++cover_->assembled_;
      if (trace_ != nullptr) trace_->SetContext(parent_);
      break;
  }
}

// ---- ProbeRegistry ----

ChannelProbe* ProbeRegistry::RegisterChannel(const std::string& name, const char* kind,
                                             unsigned capacity, const Clock& clk,
                                             bool flippable) {
  ChannelStats* stats = sim_->stats().RegisterChannel(name, kind, capacity, clk.period());
  TraceTrack* trace = sim_->trace_events().RegisterTrack(name, kind, clk.name());
  ChaosChannelPoint* chaos = sim_->chaos().RegisterChannel(name, flippable);
  CoverChannelPoint* cover = sim_->cover().RegisterChannel(name, capacity);
  if (!stats && !trace && !chaos && !cover) return nullptr;
  // Built in place: moving the probe would reallocate its stamp deque.
  ChannelProbe& p = channels_.emplace_back();
  p.sim_ = sim_;
  p.clk_ = &clk;
  p.stats_ = stats;
  p.trace_ = trace;
  p.chaos_ = chaos;
  p.cover_ = cover;
  return &p;
}

CrossingProbe* ProbeRegistry::RegisterCrossing(const std::string& name,
                                               const Clock& producer,
                                               const Clock& consumer) {
  CrossingProbe p;
  p.stats_ = sim_->stats().RegisterCrossing(name, producer.name(), consumer.name(),
                                            consumer.period());
  p.trace_ = sim_->trace_events().RegisterTrack(name, "crossing",
                                                producer.name() + "->" + consumer.name());
  p.chaos_ = sim_->chaos().RegisterCrossing(name);
  if (!p.stats_ && !p.trace_ && !p.chaos_) return nullptr;
  return &crossings_.emplace_back(p);
}

FifoProbe* ProbeRegistry::RegisterFifo(const std::string& name, std::size_t capacity,
                                       const std::string& clock) {
  FifoProbe p;
  p.stats_ = sim_->stats().RegisterFifo(name, capacity);
  p.trace_ = sim_->trace_events().RegisterTrack(name, "vc_fifo", clock);
  if (!p.stats_ && !p.trace_) return nullptr;
  return &fifos_.emplace_back(p);
}

PacketizerProbe* ProbeRegistry::RegisterPacketizer(const std::string& name,
                                                   std::size_t flits_per_message,
                                                   bool is_packetizer) {
  PacketizerProbe p;
  p.name_ = name;
  p.flits_per_message_ = flits_per_message;
  if (sim_->trace_events().enabled()) p.trace_ = &sim_->trace_events();
  // Only the reassembler runs framing checks, so only it reports detections.
  if (!is_packetizer && sim_->chaos().enabled()) p.chaos_ = &sim_->chaos();
  p.cover_ = sim_->cover().RegisterPacketizer(name, flits_per_message, is_packetizer);
  if (!p.trace_ && !p.chaos_ && !p.cover_) return nullptr;
  return &packetizers_.emplace_back(std::move(p));
}

}  // namespace craft
