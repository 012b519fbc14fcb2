// Instrumentation probes: the one record per instrumented site through which
// craft-stats, craft-trace, craft-chaos and craft-cover observe (and perturb)
// a design. A Connections channel, GALS crossing, router VC FIFO or
// (de)packetizer makes one ProbeRegistry::Register* call at elaboration and
// keeps the pointer, which is nullptr when every registry is off for the
// site: each hook point is one `if (probe_)` branch, never taken in an
// uninstrumented run. Sites report events; probe.cpp alone decides what
// each registry records for them, so both Connections models report the
// same handshakes the same way. The registries keep owning their data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "kernel/chaos.hpp"
#include "kernel/cover.hpp"
#include "kernel/stats.hpp"
#include "kernel/time.hpp"
#include "kernel/trace_events.hpp"

namespace craft {

class Clock;
class Simulator;

/// Probe of one Connections channel (either model).
class ChannelProbe {
 public:
  using Commit = ChaosChannelPoint::Commit;

  /// A token entered / left; `occupancy` is the occupancy right after.
  void OnEnqueue(std::size_t occupancy);
  void OnDequeue(std::size_t occupancy);
  /// A PushNB / PopNB failed.
  void OnPushReject();
  void OnPopReject();
  /// A blocking Push / Pop retries at the next edge.
  void OnPushStall();
  void OnPopStall();

  /// craft-chaos: this cycle's stall mask and the commit-edge corruption.
  bool ValidStalled(std::uint64_t cycle) {
    return chaos_ != nullptr && chaos_->ValidStalled(cycle);
  }
  bool ReadyStalled(std::uint64_t cycle) {
    return chaos_ != nullptr && chaos_->ReadyStalled(cycle);
  }
  Commit OnCommit(unsigned* bit) {
    return chaos_ != nullptr ? chaos_->OnCommit(bit) : Commit::kNone;
  }
  bool faults_armed() const { return chaos_ != nullptr; }

 private:
  friend class ProbeRegistry;
  void CoverOccupancy(std::size_t occupancy);

  Simulator* sim_ = nullptr;
  const Clock* clk_ = nullptr;
  ChannelStats* stats_ = nullptr;
  TraceTrack* trace_ = nullptr;
  ChaosChannelPoint* chaos_ = nullptr;
  CoverChannelPoint* cover_ = nullptr;
  // Enqueue time per resident token (tokens leave in push order). A dropped
  // or duplicated commit skews the alignment; the skew is evidence too.
  std::deque<Time> enq_times_;
};

/// Probe of one pausible bisynchronous FIFO. Producer-side calls (OnEnqWait,
/// EnqHoldCycles, OnPublish) and consumer-side calls run on different
/// workers under craft-par and touch disjoint registry fields.
class CrossingProbe {
 public:
  /// A poll failed inside the synchronizer grace window.
  void OnEnqWait();
  void OnDeqWait();
  /// craft-chaos pause storm: extra cycles to hold a freshly acquired slot.
  unsigned EnqHoldCycles() { return chaos_ != nullptr ? chaos_->EnqHoldCycles() : 0; }
  unsigned DeqHoldCycles() { return chaos_ != nullptr ? chaos_->DeqHoldCycles() : 0; }
  /// A slot was published / taken after `latency` ps; `paused` if the
  /// arbitration would have paused that side's clock.
  void OnPublish(bool paused);
  void OnDeliver(Time latency, bool paused);

 private:
  friend class ProbeRegistry;
  CrossingStats* stats_ = nullptr;
  TraceTrack* trace_ = nullptr;
  ChaosCrossingPoint* chaos_ = nullptr;
};

/// Probe of one untimed matchlib::Fifo (router VC queues).
class FifoProbe {
 public:
  void OnPush(std::size_t size);
  void OnPop();
  /// Sets the caller's span context to the front element's span.
  void PrimeContext();

 private:
  friend class ProbeRegistry;
  FifoStats* stats_ = nullptr;
  TraceTrack* trace_ = nullptr;
};

/// Probe of one Packetizer (OnMessage, then OnFlit per flit) or
/// DePacketizer (OnHead per head flit, OnFraming per assembly check).
class PacketizerProbe {
 public:
  enum class Framing { kHeadResync, kOrphan, kDiscard, kAssembled };

  void OnMessage(std::size_t flits);
  void OnFlit(std::size_t index);
  void OnHead();
  void OnFraming(Framing outcome, std::size_t flits);

 private:
  friend class ProbeRegistry;
  std::string name_;
  std::size_t flits_per_message_ = 1;
  TraceEventSink* trace_ = nullptr;
  ChaosEngine* chaos_ = nullptr;
  CoverPacketizerPoint* cover_ = nullptr;
  std::uint64_t parent_ = 0;  // the message span flits hang off
};

/// Owns the probes of one Simulator (deque storage: address-stable). Each
/// Register* call collects the site's registry slots and returns nullptr if
/// there are none; enable the registries before elaborating.
class ProbeRegistry {
 public:
  ChannelProbe* RegisterChannel(const std::string& name, const char* kind,
                                unsigned capacity, const Clock& clk, bool flippable);
  CrossingProbe* RegisterCrossing(const std::string& name, const Clock& producer,
                                  const Clock& consumer);
  FifoProbe* RegisterFifo(const std::string& name, std::size_t capacity,
                          const std::string& clock);
  PacketizerProbe* RegisterPacketizer(const std::string& name,
                                      std::size_t flits_per_message, bool is_packetizer);

 private:
  friend class Simulator;
  Simulator* sim_ = nullptr;
  std::deque<ChannelProbe> channels_;
  std::deque<CrossingProbe> crossings_;
  std::deque<FifoProbe> fifos_;
  std::deque<PacketizerProbe> packetizers_;
};

}  // namespace craft
