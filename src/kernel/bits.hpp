// Bit-level marshalling utilities, standing in for sc_uint/sc_bv.
//
// Packetizer/DePacketizer channels and the Serializer/Deserializer module
// need to flatten arbitrary message structs into bit streams and recover
// them on the far side. Types participate by specializing Marshal<T> (or by
// being integral, which is handled generically).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "kernel/report.hpp"

namespace craft {

/// A little-endian (bit 0 first) dynamic bit vector with a cursor-based
/// reader/writer interface, packed 64 bits to a word. Bits past size_bits()
/// in the last word are always zero.
class BitStream {
 public:
  BitStream() = default;

  std::size_t size_bits() const { return size_; }

  void PutBits(std::uint64_t value, unsigned width) {
    CRAFT_ASSERT(width <= 64, "PutBits width > 64");
    if (width == 0) return;
    value &= Mask(width);
    const unsigned off = size_ % 64;
    if (off == 0) {
      words_.push_back(value);
    } else {
      words_.back() |= value << off;
      if (off + width > 64) words_.push_back(value >> (64 - off));
    }
    size_ += width;
  }

  std::uint64_t GetBits(unsigned width) {
    CRAFT_ASSERT(width <= 64, "GetBits width > 64");
    CRAFT_ASSERT(cursor_ + width <= size_, "BitStream underflow");
    const std::uint64_t v = Extract(cursor_, width);
    cursor_ += width;
    return v;
  }

  void ResetCursor() { cursor_ = 0; }
  bool exhausted() const { return cursor_ >= size_; }

  /// Empties the stream, keeping its storage for reuse.
  void Clear() {
    words_.clear();
    size_ = 0;
    cursor_ = 0;
  }

  /// Splits into fixed-width flits (last one zero-padded), replacing the
  /// contents of `flits`; an empty stream gives one zero flit.
  void ToFlits(unsigned flit_bits, std::vector<std::uint64_t>& flits) const {
    CRAFT_ASSERT(flit_bits >= 1 && flit_bits <= 64, "flit width must be 1..64");
    flits.clear();
    for (std::size_t i = 0; i < size_; i += flit_bits) {
      flits.push_back(Extract(i, static_cast<unsigned>(
                                     std::min<std::size_t>(flit_bits, size_ - i))));
    }
    if (flits.empty()) flits.push_back(0);
  }

  std::vector<std::uint64_t> ToFlits(unsigned flit_bits) const {
    std::vector<std::uint64_t> flits;
    ToFlits(flit_bits, flits);
    return flits;
  }

  /// Replaces the contents with the concatenated `flit_bits`-wide flits.
  void AssignFlits(const std::vector<std::uint64_t>& flits, unsigned flit_bits) {
    Clear();
    for (std::uint64_t f : flits) PutBits(f, flit_bits);
  }

  static BitStream FromFlits(const std::vector<std::uint64_t>& flits, unsigned flit_bits) {
    BitStream s;
    s.AssignFlits(flits, flit_bits);
    return s;
  }

 private:
  static std::uint64_t Mask(unsigned width) {
    return width >= 64 ? ~0ull : (1ull << width) - 1;
  }

  /// `width` (<= 64) bits starting at bit `pos`, which must lie in range.
  std::uint64_t Extract(std::size_t pos, unsigned width) const {
    if (width == 0) return 0;
    const std::size_t w = pos / 64;
    const unsigned off = pos % 64;
    std::uint64_t v = words_[w] >> off;
    if (off + width > 64) v |= words_[w + 1] << (64 - off);
    return v & Mask(width);
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;
};

/// Marshalling trait: specialize for struct message types.
///   static constexpr unsigned kWidth;                 // total bits
///   static void Write(BitStream&, const T&);
///   static T Read(BitStream&);
template <typename T, typename Enable = void>
struct Marshal;

template <typename T>
struct Marshal<T, std::enable_if_t<std::is_integral_v<T>>> {
  static constexpr unsigned kWidth = 8 * sizeof(T);
  static void Write(BitStream& s, const T& v) {
    s.PutBits(static_cast<std::uint64_t>(std::make_unsigned_t<T>(v)), kWidth);
  }
  static T Read(BitStream& s) { return static_cast<T>(s.GetBits(kWidth)); }
};

/// Convenience: bit width of a marshalable type.
template <typename T>
constexpr unsigned BitWidthOf() {
  return Marshal<T>::kWidth;
}

/// Ceiling division for flit counts.
constexpr unsigned DivCeil(unsigned a, unsigned b) { return (a + b - 1) / b; }

}  // namespace craft
