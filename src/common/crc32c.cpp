#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ADA_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace ada::detail {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

using ByteTable = std::array<std::uint32_t, 256>;

// --- portable slice-by-8 ----------------------------------------------------------

/// kSlices[0] is the byte-at-a-time table; kSlices[k][i] advances the CRC of
/// byte i through k further zero bytes, so eight bytes fold in one step.
constexpr std::array<ByteTable, 8> make_slices() {
  std::array<ByteTable, 8> slices{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    slices[0][i] = crc;
  }
  for (std::size_t k = 1; k < slices.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = slices[k - 1][i];
      slices[k][i] = (prev >> 8) ^ slices[0][prev & 0xFFu];
    }
  }
  return slices;
}

constexpr std::array<ByteTable, 8> kSlices = make_slices();

std::uint32_t load_u32_le(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t crc_byte(std::uint32_t crc, unsigned char byte) noexcept {
  return kSlices[0][(crc ^ byte) & 0xFFu] ^ (crc >> 8);
}

// --- zero-shift tables for combining interleaved lanes ----------------------------

/// A linear operator on the 32-bit CRC register over GF(2): column n is the
/// image of bit n.
using Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2_times(const Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t n = 0; vec != 0; ++n, vec >>= 1) {
    if ((vec & 1u) != 0) sum ^= mat[n];
  }
  return sum;
}

constexpr Matrix gf2_square(const Matrix& mat) {
  Matrix square{};
  for (std::size_t n = 0; n < 32; ++n) square[n] = gf2_times(mat, mat[n]);
  return square;
}

/// Byte-indexed tables of the operator that feeds `bytes` zero bytes (a
/// power of two) through the raw register: crc(A || B) is the shifted crc(A)
/// xor the zero-seeded crc(B) when |B| == bytes.
constexpr std::array<ByteTable, 4> make_shift(std::size_t bytes) {
  Matrix op{};  // one zero bit: a right shift with polynomial feedback
  op[0] = kPolyReflected;
  for (std::size_t n = 1; n < 32; ++n) op[n] = 1u << (n - 1);
  for (int i = 0; i < 3; ++i) op = gf2_square(op);  // one zero byte
  for (; bytes > 1; bytes >>= 1) op = gf2_square(op);
  std::array<ByteTable, 4> shift{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 0; k < shift.size(); ++k) shift[k][i] = gf2_times(op, i << (8 * k));
  }
  return shift;
}

static_assert((kCrcLongLane & (kCrcLongLane - 1)) == 0 && kCrcLongLane % 8 == 0);
static_assert((kCrcShortLane & (kCrcShortLane - 1)) == 0 && kCrcShortLane % 8 == 0);

#if ADA_CRC32C_X86

constexpr std::array<ByteTable, 4> kLongShift = make_shift(kCrcLongLane);
constexpr std::array<ByteTable, 4> kShortShift = make_shift(kCrcShortLane);

std::uint64_t shift_crc(const std::array<ByteTable, 4>& shift, std::uint64_t crc) noexcept {
  return shift[0][crc & 0xFFu] ^ shift[1][(crc >> 8) & 0xFFu] ^ shift[2][(crc >> 16) & 0xFFu] ^
         shift[3][(crc >> 24) & 0xFFu];
}

std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Consume whole blocks of three `Lane`-byte lanes: one crc32q per lane per
/// step keeps three independent instructions in flight (latency 3, one per
/// cycle), then the lanes fold into crc0 through the zero-shift tables.
template <std::size_t Lane>
__attribute__((target("sse4.2"))) const unsigned char* crc_lanes(
    const unsigned char* next, std::size_t& size, std::uint64_t& crc0,
    const std::array<ByteTable, 4>& shift) noexcept {
  while (size >= 3 * Lane) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    const unsigned char* const end = next + Lane;
    do {
      crc0 = _mm_crc32_u64(crc0, load_u64(next));
      crc1 = _mm_crc32_u64(crc1, load_u64(next + Lane));
      crc2 = _mm_crc32_u64(crc2, load_u64(next + 2 * Lane));
      next += 8;
    } while (next < end);
    crc0 = shift_crc(shift, crc0) ^ crc1;
    crc0 = shift_crc(shift, crc0) ^ crc2;
    next += 2 * Lane;
    size -= 3 * Lane;
  }
  return next;
}

#endif  // ADA_CRC32C_X86

}  // namespace

std::uint32_t crc32c_portable(const void* data, std::size_t size, std::uint32_t crc) noexcept {
  const auto* next = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size != 0 && (reinterpret_cast<std::uintptr_t>(next) & 7u) != 0) {
    crc = crc_byte(crc, *next++);
    --size;
  }
  for (; size >= 8; size -= 8, next += 8) {
    const std::uint32_t lo = crc ^ load_u32_le(next);
    const std::uint32_t hi = load_u32_le(next + 4);
    crc = kSlices[7][lo & 0xFFu] ^ kSlices[6][(lo >> 8) & 0xFFu] ^
          kSlices[5][(lo >> 16) & 0xFFu] ^ kSlices[4][lo >> 24] ^ kSlices[3][hi & 0xFFu] ^
          kSlices[2][(hi >> 8) & 0xFFu] ^ kSlices[1][(hi >> 16) & 0xFFu] ^ kSlices[0][hi >> 24];
  }
  while (size-- != 0) crc = crc_byte(crc, *next++);
  return ~crc;
}

#if ADA_CRC32C_X86

bool crc32c_hw_available() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(const void* data, std::size_t size,
                                                          std::uint32_t crc) noexcept {
  const auto* next = static_cast<const unsigned char*>(data);
  std::uint64_t crc0 = ~crc;
  while (size != 0 && (reinterpret_cast<std::uintptr_t>(next) & 7u) != 0) {
    crc0 = _mm_crc32_u8(static_cast<std::uint32_t>(crc0), *next++);
    --size;
  }
  next = crc_lanes<kCrcLongLane>(next, size, crc0, kLongShift);
  next = crc_lanes<kCrcShortLane>(next, size, crc0, kShortShift);
  for (; size >= 8; size -= 8, next += 8) crc0 = _mm_crc32_u64(crc0, load_u64(next));
  while (size-- != 0) crc0 = _mm_crc32_u8(static_cast<std::uint32_t>(crc0), *next++);
  return ~static_cast<std::uint32_t>(crc0);
}

#else

bool crc32c_hw_available() noexcept { return false; }

std::uint32_t crc32c_hw(const void* data, std::size_t size, std::uint32_t crc) noexcept {
  return crc32c_portable(data, size, crc);
}

#endif  // ADA_CRC32C_X86

}  // namespace ada::detail

namespace ada {

namespace {

/// a * b mod P with both polynomials reflected: bit 31 is x^0, bit 0 is x^31.
std::uint32_t multiply_mod_p(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; a != 0; bit >>= 1) {
    if ((a & bit) != 0) {
      product ^= b;
      a ^= bit;
    }
    b = (b & 1u) != 0 ? (b >> 1) ^ 0x82F63B78u : b >> 1;  // b *= x
  }
  return product;
}

}  // namespace

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) noexcept {
  // crc(A || B) = crc(A) * x^(8 |B|) xor crc(B): the pre- and post-inversions
  // of the two one-pass CRCs cancel, leaving the raw register shift.
  std::uint32_t shift = 1u << 31;   // x^0
  std::uint32_t square = 1u << 23;  // x^8: one zero byte
  for (; len_b != 0; len_b >>= 1) {
    if ((len_b & 1u) != 0) shift = multiply_mod_p(shift, square);
    square = multiply_mod_p(square, square);
  }
  return multiply_mod_p(shift, crc_a) ^ crc_b;
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) noexcept {
  using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t) noexcept;
  static const Kernel kernel =
      detail::crc32c_hw_available() ? &detail::crc32c_hw : &detail::crc32c_portable;
  return kernel(data, size, crc);
}

}  // namespace ada
