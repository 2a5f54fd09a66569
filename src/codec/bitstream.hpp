// MSB-first bit-level I/O used by the coordinate codec.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/result.hpp"

namespace ada::codec {

/// Appends variable-width unsigned fields, most-significant bit first.
class BitWriter {
 public:
  /// Append the low `width` bits of `value` (width in [0, 32]).
  /// Precondition: value < 2^width.
  void put_bits(std::uint32_t value, unsigned width);

  /// Append a single bit.
  void put_bit(bool bit) { put_bits(bit ? 1u : 0u, 1); }

  std::size_t bit_count() const noexcept { return bit_count_; }

  /// Flushes the partial byte (zero-filled) and returns the buffer.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buffer_;
  std::uint64_t accumulator_ = 0;  // pending bits, left-aligned within acc_bits_
  unsigned acc_bits_ = 0;
  std::size_t bit_count_ = 0;
};

/// Reads variable-width unsigned fields written by BitWriter.
///
/// Reads go through a 64-bit window: one unaligned big-endian load at the
/// cursor's byte, shifted left by the cursor's bit offset, so the top
/// kWindowBits bits of window() are always the next stream bits (a bytewise
/// tail fills bits past the buffer end with zeros).  Callers that bound a
/// whole record once against bits_remaining() then pull its fields with
/// take() and no per-field check -- the codec's record-at-a-time decode.
class BitReader {
 public:
  /// Bits of window() guaranteed to be stream bits: 64 minus the largest
  /// in-byte offset.
  static constexpr unsigned kWindowBits = 57;

  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `width` bits (width in [0, 32]).
  Result<std::uint32_t> get_bits(unsigned width);

  Result<bool> get_bit();

  /// The 64 bits starting at the cursor, left-aligned (bit 63 is the next
  /// stream bit).  Does not move the cursor.
  std::uint64_t window() const noexcept {
    const std::size_t byte = bit_pos_ >> 3;
    std::uint64_t word = 0;
    if (data_.size() >= 8 && byte <= data_.size() - 8) {
      std::memcpy(&word, data_.data() + byte, 8);
      if constexpr (std::endian::native == std::endian::little) word = byteswap64(word);
    } else {
      // Tail: the last < 8 bytes, zero-filled past the buffer end.
      for (std::size_t i = 0; i < 8; ++i) {
        word <<= 8;
        if (byte + i < data_.size()) word |= data_[byte + i];
      }
    }
    return word << (bit_pos_ & 7);
  }

  /// Read `width` bits (width in [0, 32]) with no bounds check: the caller
  /// has checked bits_remaining().
  std::uint32_t take(unsigned width) noexcept {
    const auto value = static_cast<std::uint32_t>(field(window(), 0, width));
    bit_pos_ += width;
    return value;
  }

  /// Advance the cursor by `bits` with no bounds check.
  void skip(std::size_t bits) noexcept { bit_pos_ += bits; }

  /// The `width`-bit field (width in [0, 32]) starting `offset` bits into a
  /// left-aligned window; offset + width must not exceed kWindowBits.
  static constexpr std::uint64_t field(std::uint64_t window, unsigned offset,
                                       unsigned width) noexcept {
    return (window << offset >> (63 - width)) >> 1;
  }

  std::size_t bits_consumed() const noexcept { return bit_pos_; }
  std::size_t bits_remaining() const noexcept { return data_.size() * 8 - bit_pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t bit_pos_ = 0;
};

/// Minimum number of bits that can represent `value` (0 -> 0 bits).
constexpr unsigned bits_needed(std::uint32_t value) noexcept {
  unsigned bits = 0;
  while (value != 0) {
    ++bits;
    value >>= 1;
  }
  return bits;
}

/// Zigzag map: signed -> unsigned preserving small magnitudes.
constexpr std::uint32_t zigzag_encode(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^ static_cast<std::uint32_t>(v >> 31);
}

constexpr std::int32_t zigzag_decode(std::uint32_t u) noexcept {
  return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
}

}  // namespace ada::codec
