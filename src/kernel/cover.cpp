#include "kernel/cover.hpp"

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"
#include "kernel/stats.hpp"

namespace craft {

void CoverRegistry::Enable() {
  CRAFT_ASSERT(sim_ != nullptr, "CoverRegistry is not attached to a Simulator");
  CRAFT_ASSERT(sim_->engine_ == nullptr,
               "sim.cover().Enable() must run before the first Run()");
  CRAFT_ASSERT(channels_.empty() && packetizers_.empty(),
               "sim.cover().Enable() must run before elaborating the design");
  enabled_ = true;
  // The collector derives most bins from the stats counters (rejects,
  // stall cycles, latency histograms, crossing pauses), so coverage
  // implies telemetry — both are pre-elaboration switches.
  sim_->stats().Enable();
}

CoverChannelPoint* CoverRegistry::RegisterChannel(const std::string& name,
                                                  std::size_t capacity) {
  if (!enabled_) return nullptr;
  CoverChannelPoint& p = channels_[name];
  p.capacity_ = capacity == 0 ? 1 : capacity;
  // Smallest occupancy counting as "high": ceil(cap * 3/4), matching the
  // backpressure heuristics of craft-trace blame sampling; within [1, cap]
  // for every capacity, so the band order is always well formed.
  p.high_threshold_ = (p.capacity_ * 3 + 3) / 4;
  return &p;
}

CoverPacketizerPoint* CoverRegistry::RegisterPacketizer(
    const std::string& name, std::size_t flits_per_message,
    bool is_packetizer) {
  if (!enabled_) return nullptr;
  CoverPacketizerPoint& p = packetizers_[name];
  p.flits_per_message_ = flits_per_message == 0 ? 1 : flits_per_message;
  p.is_packetizer_ = is_packetizer;
  return &p;
}

}  // namespace craft
