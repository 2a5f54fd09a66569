// XDR (RFC 1832) encoding -- the wire substrate of the XTC trajectory format.
//
// GROMACS .xtc files are XDR streams: every primitive is big-endian and every
// item is padded to a 4-byte boundary.  This module implements the subset XTC
// needs (int, unsigned int, float, double, counted opaque data) plus strings
// for completeness, over in-memory buffers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace ada::xdr {

/// Serializes XDR items into an owned byte buffer.
class XdrWriter {
 public:
  void put_i32(std::int32_t v);
  void put_u32(std::uint32_t v);
  void put_f32(float v);
  void put_f64(double v);

  /// Counted opaque: u32 length, raw bytes, zero padding to 4-byte boundary.
  void put_opaque(std::span<const std::uint8_t> bytes);

  /// Fixed opaque: raw bytes + padding, no length prefix (length is implicit).
  void put_fixed_opaque(std::span<const std::uint8_t> bytes);

  /// XDR string: counted opaque over the character bytes.
  void put_string(const std::string& s);

  std::size_t size() const noexcept { return buffer_.size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  void pad_to_alignment();

  std::vector<std::uint8_t> buffer_;
};

/// Deserializes XDR items from a non-owned byte span.
class XdrReader {
 public:
  explicit XdrReader(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::int32_t> get_i32();
  Result<std::uint32_t> get_u32();
  Result<float> get_f32();
  Result<double> get_f64();
  Result<std::vector<std::uint8_t>> get_opaque();
  /// get_opaque() without the copy: the bytes as a view into the input.
  Result<std::span<const std::uint8_t>> get_opaque_view();
  Result<std::vector<std::uint8_t>> get_fixed_opaque(std::size_t n);
  Result<std::string> get_string();

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  Status require(std::size_t n);
  Status skip_padding(std::size_t payload);
  Result<std::span<const std::uint8_t>> fixed_view(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Bytes of padding needed to align `payload` to the XDR 4-byte boundary.
constexpr std::size_t padding_for(std::size_t payload) noexcept {
  return (4 - payload % 4) % 4;
}

}  // namespace ada::xdr
