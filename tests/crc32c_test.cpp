// Tests for the CRC32C kernels: RFC 3720 golden vectors through the
// dispatched entry point and both kernels, the portable kernel against a
// bit-at-a-time reference, a hardware-vs-portable differential over
// lengths, misalignments and the interleave lane/block boundaries, and
// incremental continuation at every split point, and crc32c_combine against
// one-pass CRCs over random splits with either kernel.  The hardware half skips
// on CPUs without SSE4.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"

namespace ada {
namespace {

using detail::kCrcLongLane;
using detail::kCrcShortLane;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// Bit-at-a-time reference straight from the reflected polynomial.
std::uint32_t crc32c_bitwise(const std::uint8_t* data, std::size_t size, std::uint32_t crc) {
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
  }
  return ~crc;
}

struct Golden {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc;
};

std::vector<Golden> golden_vectors() {
  std::vector<std::uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  std::vector<std::uint8_t> descending(ascending.rbegin(), ascending.rend());
  const std::string digits = "123456789";
  return {
      {"32 zeros", std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu},
      {"32 ones", std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u},
      {"0..31", ascending, 0x46DD794Eu},
      {"31..0", descending, 0x113FDB5Cu},
      {"123456789", std::vector<std::uint8_t>(digits.begin(), digits.end()), 0xE3069283u},
      {"empty", {}, 0u},
  };
}

TEST(Crc32cTest, GoldenVectors) {
  for (const Golden& g : golden_vectors()) {
    EXPECT_EQ(crc32c(g.bytes), g.crc) << g.name;
    EXPECT_EQ(detail::crc32c_portable(g.bytes.data(), g.bytes.size(), 0), g.crc) << g.name;
  }
}

TEST(Crc32cTest, HardwareGoldenVectors) {
  if (!detail::crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  for (const Golden& g : golden_vectors()) {
    EXPECT_EQ(detail::crc32c_hw(g.bytes.data(), g.bytes.size(), 0), g.crc) << g.name;
  }
}

TEST(Crc32cTest, PortableMatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const auto buffer = random_bytes(1024 + 8, 4);
  for (std::size_t misalign = 0; misalign < 8; ++misalign) {
    const std::uint8_t* base = buffer.data() + misalign;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(detail::crc32c_portable(base, len, 0x1234u), crc32c_bitwise(base, len, 0x1234u))
          << "len " << len << " misalign " << misalign;
    }
  }
}

TEST(Crc32cTest, HardwareMatchesPortableAtEveryLengthAndAlignment) {
  if (!detail::crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  const auto buffer = random_bytes(1024 + 8, 1);
  for (std::size_t misalign = 0; misalign < 8; ++misalign) {
    const std::uint8_t* base = buffer.data() + misalign;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(detail::crc32c_hw(base, len, 0), detail::crc32c_portable(base, len, 0))
          << "len " << len << " misalign " << misalign;
    }
  }
}

TEST(Crc32cTest, HardwareMatchesPortableAroundLaneAndBlockSizes) {
  if (!detail::crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  constexpr std::size_t kLaneMultiples[] = {1, 2, 3, 4, 6, 7};
  constexpr std::size_t kMisaligns[] = {0, 1, 7};
  std::vector<std::size_t> pivots;
  for (const std::size_t lane : {kCrcShortLane, kCrcLongLane}) {
    for (const std::size_t k : kLaneMultiples) pivots.push_back(k * lane);
  }
  pivots.push_back(3 * kCrcLongLane + 3 * kCrcShortLane);
  pivots.push_back(2 * 3 * kCrcLongLane + 2 * 3 * kCrcShortLane + 8);
  std::size_t max_len = 0;
  for (const std::size_t p : pivots) max_len = std::max(max_len, p + 9);
  const auto buffer = random_bytes(max_len + 8, 2);
  for (const std::size_t pivot : pivots) {
    for (std::size_t len = pivot - 9; len <= pivot + 9; ++len) {
      for (const std::size_t misalign : kMisaligns) {
        const std::uint8_t* base = buffer.data() + misalign;
        ASSERT_EQ(detail::crc32c_hw(base, len, 0), detail::crc32c_portable(base, len, 0))
            << "len " << len << " misalign " << misalign;
        ASSERT_EQ(detail::crc32c_hw(base, len, 0xDEADBEEFu),
                  detail::crc32c_portable(base, len, 0xDEADBEEFu))
            << "seeded, len " << len << " misalign " << misalign;
      }
    }
  }
}

TEST(Crc32cTest, IncrementalContinuationAtEverySplit) {
  const auto buffer = random_bytes(4096, 3);
  const std::uint32_t whole = crc32c(buffer);
  EXPECT_EQ(whole, detail::crc32c_portable(buffer.data(), buffer.size(), 0));
  const bool hw = detail::crc32c_hw_available();
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint8_t* a = buffer.data();
    const std::uint8_t* b = buffer.data() + split;
    const std::size_t b_len = buffer.size() - split;
    ASSERT_EQ(crc32c(b, b_len, crc32c(a, split)), whole) << "split " << split;
    ASSERT_EQ(detail::crc32c_portable(b, b_len, detail::crc32c_portable(a, split, 0)), whole)
        << "portable, split " << split;
    if (hw) {
      ASSERT_EQ(detail::crc32c_hw(b, b_len, detail::crc32c_hw(a, split, 0)), whole)
          << "hardware, split " << split;
    }
  }
}

TEST(Crc32cTest, CombineMatchesOnePassAtEverySplit) {
  // Every split of a buffer that is not a multiple of 8 long, so both the
  // empty pieces (split 0 and the end) and every odd length are covered.
  const auto buffer = random_bytes(1029, 5);
  const std::uint32_t whole = crc32c(buffer);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::size_t b_len = buffer.size() - split;
    ASSERT_EQ(crc32c_combine(crc32c(buffer.data(), split),
                             crc32c(buffer.data() + split, b_len), b_len),
              whole)
        << "split " << split;
  }
  EXPECT_EQ(crc32c_combine(0, 0, 0), 0u);
  EXPECT_EQ(crc32c_combine(whole, 0, 0), whole);
  EXPECT_EQ(crc32c_combine(0, whole, buffer.size()), whole);
}

TEST(Crc32cTest, CombineFoldsRandomPiecesWithEitherKernel) {
  // A buffer cut at random points (empty pieces and lane-sized ones
  // included), each piece checksummed apart, folds left to right into the
  // one-pass CRC -- with the pieces' CRCs from the portable kernel, and from
  // the hardware kernel where the CPU has one.
  using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t) noexcept;
  std::vector<std::pair<const char*, Kernel>> kernels = {{"portable", &detail::crc32c_portable}};
  if (detail::crc32c_hw_available()) kernels.emplace_back("hardware", &detail::crc32c_hw);
  const auto buffer = random_bytes(3 * kCrcLongLane + 777, 6);
  Rng rng(7);
  for (const auto& [name, kernel] : kernels) {
    const std::uint32_t whole = kernel(buffer.data(), buffer.size(), 0);
    ASSERT_EQ(whole, crc32c(buffer)) << name;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::size_t> cuts = {0, buffer.size()};
      const std::size_t pieces = 1 + rng.uniform_index(9);
      for (std::size_t k = 1; k < pieces; ++k) cuts.push_back(rng.uniform_index(buffer.size() + 1));
      if (trial % 4 == 0) cuts.push_back(cuts.back());  // an empty piece
      std::sort(cuts.begin(), cuts.end());
      std::uint32_t folded = 0;
      for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        const std::size_t len = cuts[k + 1] - cuts[k];
        folded = crc32c_combine(folded, kernel(buffer.data() + cuts[k], len, 0), len);
      }
      ASSERT_EQ(folded, whole) << name << ", trial " << trial << ", " << cuts.size() - 1
                               << " pieces";
    }
  }
}

}  // namespace
}  // namespace ada
