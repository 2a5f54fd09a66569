// CRC32C (Castagnoli) checksums for on-disk extent integrity.
//
// Used by the PLFS container index (plfs/container.hpp) to detect silent
// corruption: every extent's checksum is computed at append time, stored in
// the index record, and verified on every read and by plfs::fsck.  The
// Castagnoli polynomial (0x1EDC6F41, reflected 0x82F63B78) is the iSCSI /
// ext4 / RocksDB choice.
//
// Two kernels compute the same function.  On x86-64 CPUs with SSE4.2 the
// `crc32q` instruction runs three interleaved streams over fixed-size lanes
// whose CRCs are combined with precomputed zero-shift tables (Intel, "Fast
// CRC Computation for iSCSI Polynomial Using CRC32 Instruction"; Adler's
// crc32c.c).  Every other CPU runs a portable slice-by-8 table kernel.  The
// kernel is compiled per function (no -march flag) and chosen once, on the
// first call, from the running CPU's feature bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ada {

/// CRC32C of `size` bytes starting at `data`.  Pass a previous crc to
/// continue an incremental computation; 0 starts a fresh one.
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc = 0) noexcept;

inline std::uint32_t crc32c(const std::vector<std::uint8_t>& bytes,
                            std::uint32_t crc = 0) noexcept {
  return crc32c(bytes.data(), bytes.size(), crc);
}

/// The CRC32C of A || B from crc_a = crc32c(A), crc_b = crc32c(B) and
/// len_b = |B|, without the bytes: crc_a times x^(8 len_b) mod P (square and
/// multiply, O(log len_b)), xor crc_b.  Pieces checksummed apart -- on
/// different threads, in any order -- fold into the checksum of their
/// concatenation.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) noexcept;

namespace detail {

/// Interleave geometry of the hardware kernel: three lanes of kCrcLongLane
/// bytes per block while the input lasts, then three lanes of kCrcShortLane.
inline constexpr std::size_t kCrcLongLane = 8192;
inline constexpr std::size_t kCrcShortLane = 256;

/// True when the running CPU has the SSE4.2 `crc32` instruction.
bool crc32c_hw_available() noexcept;

/// The SSE4.2 three-stream kernel.  Call only when crc32c_hw_available();
/// on non-x86 builds it is the portable kernel.
std::uint32_t crc32c_hw(const void* data, std::size_t size, std::uint32_t crc) noexcept;

/// The portable slice-by-8 kernel.
std::uint32_t crc32c_portable(const void* data, std::size_t size, std::uint32_t crc) noexcept;

}  // namespace detail

}  // namespace ada
