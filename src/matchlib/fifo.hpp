// MatchLib FIFO: a configurable FIFO C++ class (paper Table 2).
//
// Untimed state + methods, in the MatchLib "C++ class" style: usable inside
// a clocked process (the caller provides timing) and synthesizable by HLS as
// a register-file FIFO. Distinct from connections::Buffer, which is a
// *channel* with its own handshake; this is a building block for modules
// that manage their own queues (routers, arbitrated crossbars, ROBs).
#pragma once

#include <array>
#include <cstddef>

#include "kernel/probe.hpp"
#include "kernel/report.hpp"

namespace craft::matchlib {

template <typename T, std::size_t kCapacity>
class Fifo {
 public:
  static_assert(kCapacity >= 1);

  bool Empty() const { return count_ == 0; }
  bool Full() const { return count_ == kCapacity; }
  std::size_t Size() const { return count_; }
  static constexpr std::size_t Capacity() { return kCapacity; }

  /// Attaches an instrumentation probe (see ProbeRegistry::RegisterFifo);
  /// the owning module calls this at elaboration. nullptr (stats and trace
  /// disabled) is fine — instrumentation stays a never-taken branch.
  void AttachProbe(FifoProbe* p) { probe_ = p; }

  /// Sets the calling thread's trace context to the span of the front
  /// element *without* dequeuing. Owners that forward `Peek()` downstream
  /// before `Pop()` (e.g. routers pushing Peek() over a link) call this so
  /// the downstream channel extends the right span.
  void PrimeTraceContext() {
    if (probe_ && !Empty()) probe_->PrimeContext();
  }

  /// Enqueues; caller must check !Full() first (models hardware contract).
  void Push(const T& v) {
    CRAFT_ASSERT(!Full(), "Fifo::Push on full FIFO");
    data_[tail_] = v;
    tail_ = (tail_ + 1) % kCapacity;
    ++count_;
    if (probe_) probe_->OnPush(count_);
  }

  /// Dequeues; caller must check !Empty() first.
  T Pop() {
    CRAFT_ASSERT(!Empty(), "Fifo::Pop on empty FIFO");
    T v = data_[head_];
    head_ = (head_ + 1) % kCapacity;
    --count_;
    if (probe_) probe_->OnPop();
    return v;
  }

  /// Front element without dequeuing.
  const T& Peek() const {
    CRAFT_ASSERT(!Empty(), "Fifo::Peek on empty FIFO");
    return data_[head_];
  }

  void Clear() {
    head_ = tail_ = 0;
    count_ = 0;
  }

 private:
  std::array<T, kCapacity> data_{};
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t count_ = 0;
  FifoProbe* probe_ = nullptr;
};

}  // namespace craft::matchlib
