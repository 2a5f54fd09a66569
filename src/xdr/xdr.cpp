#include "xdr/xdr.hpp"

#include <cstring>

#include "common/binary_io.hpp"

namespace ada::xdr {

// --- XdrWriter -----------------------------------------------------------------

void XdrWriter::pad_to_alignment() {
  const std::size_t pad = padding_for(buffer_.size());
  buffer_.insert(buffer_.end(), pad, std::uint8_t{0});
}

void XdrWriter::put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }

void XdrWriter::put_u32(std::uint32_t v) {
  const std::uint32_t wire = to_big_endian32(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&wire);
  buffer_.insert(buffer_.end(), p, p + 4);
}

void XdrWriter::put_f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  put_u32(bits);
}

void XdrWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  // XDR double: the high 32 bits first (big-endian overall).
  put_u32(static_cast<std::uint32_t>(bits >> 32));
  put_u32(static_cast<std::uint32_t>(bits & 0xffffffffu));
}

void XdrWriter::put_opaque(std::span<const std::uint8_t> bytes) {
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  put_fixed_opaque(bytes);
}

void XdrWriter::put_fixed_opaque(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  pad_to_alignment();
}

void XdrWriter::put_string(const std::string& s) {
  put_opaque(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// --- XdrReader -----------------------------------------------------------------

Status XdrReader::require(std::size_t n) {
  if (remaining() < n) {
    return corrupt_data("xdr stream truncated: need " + std::to_string(n) + " bytes at offset " +
                        std::to_string(pos_) + ", have " + std::to_string(remaining()));
  }
  return Status::ok();
}

Status XdrReader::skip_padding(std::size_t payload) {
  const std::size_t pad = padding_for(payload);
  ADA_RETURN_IF_ERROR(require(pad));
  for (std::size_t i = 0; i < pad; ++i) {
    if (data_[pos_ + i] != 0) return corrupt_data("nonzero xdr padding byte");
  }
  pos_ += pad;
  return Status::ok();
}

Result<std::int32_t> XdrReader::get_i32() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t u, get_u32());
  return static_cast<std::int32_t>(u);
}

Result<std::uint32_t> XdrReader::get_u32() {
  ADA_RETURN_IF_ERROR(require(4));
  std::uint32_t wire = 0;
  std::memcpy(&wire, data_.data() + pos_, 4);
  pos_ += 4;
  return from_big_endian32(wire);
}

Result<float> XdrReader::get_f32() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t bits, get_u32());
  float v = 0;
  std::memcpy(&v, &bits, 4);
  return v;
}

Result<double> XdrReader::get_f64() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t hi, get_u32());
  ADA_ASSIGN_OR_RETURN(const std::uint32_t lo, get_u32());
  const std::uint64_t bits = (static_cast<std::uint64_t>(hi) << 32) | lo;
  double v = 0;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<std::vector<std::uint8_t>> XdrReader::get_opaque() {
  ADA_ASSIGN_OR_RETURN(const auto view, get_opaque_view());
  return std::vector<std::uint8_t>(view.begin(), view.end());
}

Result<std::span<const std::uint8_t>> XdrReader::get_opaque_view() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t n, get_u32());
  return fixed_view(n);
}

Result<std::vector<std::uint8_t>> XdrReader::get_fixed_opaque(std::size_t n) {
  ADA_ASSIGN_OR_RETURN(const auto view, fixed_view(n));
  return std::vector<std::uint8_t>(view.begin(), view.end());
}

Result<std::span<const std::uint8_t>> XdrReader::fixed_view(std::size_t n) {
  ADA_RETURN_IF_ERROR(require(n));
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  ADA_RETURN_IF_ERROR(skip_padding(n));
  return view;
}

Result<std::string> XdrReader::get_string() {
  ADA_ASSIGN_OR_RETURN(const auto bytes, get_opaque());
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace ada::xdr
