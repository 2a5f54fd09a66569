#include "codec/bitstream.hpp"

namespace ada::codec {

void BitWriter::put_bits(std::uint32_t value, unsigned width) {
  ADA_DCHECK(width <= 32);
  ADA_DCHECK(width == 32 || value < (1ull << width));
  accumulator_ = (accumulator_ << width) | value;
  acc_bits_ += width;
  bit_count_ += width;
  while (acc_bits_ >= 8) {
    acc_bits_ -= 8;
    buffer_.push_back(static_cast<std::uint8_t>((accumulator_ >> acc_bits_) & 0xffu));
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (acc_bits_ > 0) {
    buffer_.push_back(static_cast<std::uint8_t>((accumulator_ << (8 - acc_bits_)) & 0xffu));
    acc_bits_ = 0;
  }
  accumulator_ = 0;
  return std::move(buffer_);
}

Result<std::uint32_t> BitReader::get_bits(unsigned width) {
  ADA_DCHECK(width <= 32);
  if (bits_remaining() < width) {
    return corrupt_data("bitstream truncated: need " + std::to_string(width) + " bits, have " +
                        std::to_string(bits_remaining()));
  }
  return take(width);
}

Result<bool> BitReader::get_bit() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t v, get_bits(1));
  return v != 0;
}

}  // namespace ada::codec
