// Unit + property tests for the bitstream and the ada3d coordinate codec,
// plus the golden-vector suite that locks both wire formats bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "codec/bitstream.hpp"
#include "codec/coord_codec.hpp"
#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"

namespace ada::codec {
namespace {

// --- bitstream -----------------------------------------------------------------

TEST(BitstreamTest, SingleBits) {
  BitWriter w;
  w.put_bit(true);
  w.put_bit(false);
  w.put_bit(true);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.get_bit().value());
  EXPECT_FALSE(r.get_bit().value());
  EXPECT_TRUE(r.get_bit().value());
}

TEST(BitstreamTest, MixedWidthsRoundTrip) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0x1abcd, 17);
  w.put_bits(0, 0);  // zero-width fields are legal no-ops
  w.put_bits(0xffffffffu, 32);
  w.put_bits(1, 1);
  const std::size_t bits = w.bit_count();
  EXPECT_EQ(bits, 3u + 17 + 0 + 32 + 1);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3).value(), 0x5u);
  EXPECT_EQ(r.get_bits(17).value(), 0x1abcdu);
  EXPECT_EQ(r.get_bits(0).value(), 0u);
  EXPECT_EQ(r.get_bits(32).value(), 0xffffffffu);
  EXPECT_EQ(r.get_bits(1).value(), 1u);
  EXPECT_EQ(r.bits_consumed(), bits);
}

TEST(BitstreamTest, ReadingPastEndIsError) {
  BitWriter w;
  w.put_bits(3, 2);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.get_bits(8).is_ok());  // padding bits are readable...
  EXPECT_FALSE(r.get_bits(8).is_ok());  // ...but past the final byte is not
}

/// Bit-at-a-time MSB-first reference reader -- the layout straight from its
/// definition, for differential tests of the windowed BitReader and the
/// record-at-a-time decoders (as crc32c_test keeps a bit-at-a-time CRC).
struct ReferenceBits {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  std::size_t size_bits() const { return data.size() * 8; }

  /// Next `width` bits, or nullopt (cursor unspecified) past the buffer end.
  std::optional<std::uint32_t> get(unsigned width) {
    std::uint32_t value = 0;
    for (unsigned i = 0; i < width; ++i, ++pos) {
      if (pos >= size_bits()) return std::nullopt;
      value = (value << 1) | ((std::uint32_t{data[pos >> 3]} >> (7 - (pos & 7))) & 1u);
    }
    return value;
  }
};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return out;
}

TEST(BitstreamTest, GetBitsAtBufferEndMatchesReference) {
  // Every width 0..32 at every bit offset of the last 5 bytes of buffers of
  // 1..12 bytes: both window paths (8-byte load, bytewise tail) and every
  // read that would cross the end.
  Rng rng(31);
  for (std::size_t len = 1; len <= 12; ++len) {
    const auto data = random_bytes(rng, len);
    const std::size_t total = len * 8;
    for (std::size_t start = total > 40 ? total - 40 : 0; start <= total; ++start) {
      // window(): the stream bits it covers, zeros past the end.
      BitReader at(data);
      at.skip(start);
      const std::uint64_t window = at.window();
      ReferenceBits ref{data, start};
      for (unsigned bit = 0; bit < BitReader::kWindowBits; ++bit) {
        const auto want = start + bit < total ? ref.get(1).value() : 0u;
        ASSERT_EQ((window >> (63 - bit)) & 1u, want) << "len " << len << " start " << start;
      }
      for (unsigned width = 0; width <= 32; ++width) {
        BitReader reader(data);
        reader.skip(start);
        const auto got = reader.get_bits(width);
        if (start + width > total) {
          ASSERT_FALSE(got.is_ok()) << "len " << len << " start " << start << " width " << width;
          EXPECT_EQ(got.error().code(), ErrorCode::kCorruptData);
          EXPECT_EQ(reader.bits_consumed(), start);
          continue;
        }
        ReferenceBits want{data, start};
        ASSERT_TRUE(got.is_ok());
        ASSERT_EQ(got.value(), want.get(width).value())
            << "len " << len << " start " << start << " width " << width;
        EXPECT_EQ(reader.bits_consumed(), start + width);
      }
    }
  }
}

TEST(BitstreamPropertyTest, RandomRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<std::uint32_t, unsigned>> fields;
    BitWriter w;
    const int n = 1 + static_cast<int>(rng.uniform_index(200));
    for (int i = 0; i < n; ++i) {
      const unsigned width = static_cast<unsigned>(rng.uniform_index(33));
      const std::uint32_t value =
          width == 32 ? static_cast<std::uint32_t>(rng.next_u64())
                      : static_cast<std::uint32_t>(rng.next_u64() & ((1ull << width) - 1));
      fields.emplace_back(value, width);
      w.put_bits(value, width);
    }
    const auto bytes = w.finish();
    BitReader r(bytes);
    for (const auto& [value, width] : fields) {
      EXPECT_EQ(r.get_bits(width).value(), value);
    }
  }
}

TEST(BitstreamTest, BitsNeeded) {
  EXPECT_EQ(bits_needed(0), 0u);
  EXPECT_EQ(bits_needed(1), 1u);
  EXPECT_EQ(bits_needed(2), 2u);
  EXPECT_EQ(bits_needed(255), 8u);
  EXPECT_EQ(bits_needed(256), 9u);
  EXPECT_EQ(bits_needed(0xffffffffu), 32u);
}

TEST(BitstreamTest, ZigzagInvolution) {
  for (std::int32_t v : {0, 1, -1, 2, -2, 1000000, -1000000, 2147483647, -2147483647}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

// --- codec ----------------------------------------------------------------------

std::vector<float> random_cluster_coords(Rng& rng, std::size_t atoms, float box, float step) {
  std::vector<float> coords;
  coords.reserve(atoms * 3);
  float x = box / 2;
  float y = box / 2;
  float z = box / 2;
  for (std::size_t i = 0; i < atoms; ++i) {
    // Random walk: consecutive atoms are spatially close (bonded-neighbour
    // statistics), the property the delta coder exploits.
    x = std::clamp(x + static_cast<float>(rng.normal(0.0, static_cast<double>(step))), 0.0f, box);
    y = std::clamp(y + static_cast<float>(rng.normal(0.0, static_cast<double>(step))), 0.0f, box);
    z = std::clamp(z + static_cast<float>(rng.normal(0.0, static_cast<double>(step))), 0.0f, box);
    coords.push_back(x);
    coords.push_back(y);
    coords.push_back(z);
  }
  return coords;
}

TEST(CoordCodecTest, EmptyFrame) {
  const auto frame = compress({}, {}).value();
  EXPECT_EQ(frame.atom_count, 0u);
  EXPECT_TRUE(decompress(frame).value().empty());
}

TEST(CoordCodecTest, SingleAtom) {
  const std::vector<float> coords = {1.234f, -5.678f, 0.001f};
  const auto frame = compress(coords, {}).value();
  const auto out = decompress(frame).value();
  ASSERT_EQ(out.size(), 3u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_NEAR(out[static_cast<std::size_t>(d)], coords[static_cast<std::size_t>(d)], 0.0006f);
  }
}

TEST(CoordCodecTest, NotDivisibleByThreeRejected) {
  const std::vector<float> coords = {1.0f, 2.0f};
  EXPECT_FALSE(compress(coords, {}).is_ok());
}

TEST(CoordCodecTest, NonFiniteRejected) {
  const std::vector<float> coords = {1.0f, std::nanf(""), 2.0f};
  EXPECT_FALSE(compress(coords, {}).is_ok());
}

TEST(CoordCodecTest, OutOfRangeRejected) {
  const std::vector<float> coords = {3e7f, 0.0f, 0.0f};  // 3e10 grid units
  EXPECT_FALSE(compress(coords, {}).is_ok());
}

TEST(CoordCodecTest, ZeroPrecisionRejected) {
  const std::vector<float> coords = {1.0f, 2.0f, 3.0f};
  CodecParams params;
  params.precision = 0.0f;
  EXPECT_FALSE(compress(coords, params).is_ok());
}

TEST(CoordCodecTest, IdenticalAtomsCompressToAlmostNothing) {
  std::vector<float> coords;
  for (int i = 0; i < 1000; ++i) {
    coords.push_back(1.0f);
    coords.push_back(2.0f);
    coords.push_back(3.0f);
  }
  const auto frame = compress(coords, {}).value();
  // All deltas zero: 1 flag bit per atom, zero-width delta fields.
  EXPECT_LT(frame.payload_bytes(), 200u);
  const auto out = decompress(frame).value();
  EXPECT_EQ(out.size(), coords.size());
  EXPECT_NEAR(out[2999], 3.0f, 0.0006f);
}

class CodecRoundTripTest : public testing::TestWithParam<std::tuple<int, float>> {};

TEST_P(CodecRoundTripTest, ErrorBoundedByHalfGrid) {
  const auto [atoms, precision] = GetParam();
  Rng rng(static_cast<std::uint64_t>(atoms) * 31 + static_cast<std::uint64_t>(precision));
  const auto coords = random_cluster_coords(rng, static_cast<std::size_t>(atoms), 8.0f, 0.2f);
  CodecParams params;
  params.precision = precision;
  const auto frame = compress(coords, params).value();
  const auto out = decompress(frame).value();
  ASSERT_EQ(out.size(), coords.size());
  const float tolerance = 0.5f / precision + 1e-5f;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    ASSERT_NEAR(out[i], coords[i], tolerance) << "at coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTripTest,
    testing::Combine(testing::Values(1, 2, 3, 10, 100, 1000, 10000),
                     testing::Values(10.0f, 100.0f, 1000.0f, 10000.0f)),
    [](const auto& param_info) {
      return "atoms" + std::to_string(std::get<0>(param_info.param)) + "_prec" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param)));
    });

TEST(CoordCodecTest, QuantizationIsIdempotent) {
  // Decompressing and recompressing must be lossless the second time:
  // outputs are exact grid multiples.
  Rng rng(7);
  const auto coords = random_cluster_coords(rng, 500, 5.0f, 0.15f);
  const auto frame1 = compress(coords, {}).value();
  const auto out1 = decompress(frame1).value();
  const auto frame2 = compress(out1, {}).value();
  const auto out2 = decompress(frame2).value();
  EXPECT_EQ(out1, out2);
}

TEST(CoordCodecTest, PerAtomCostsSumToPayload) {
  Rng rng(11);
  const auto coords = random_cluster_coords(rng, 2000, 8.0f, 0.1f);
  PerAtomCost cost;
  const auto frame = compress(coords, {}, &cost).value();
  ASSERT_EQ(cost.bits.size(), 2000u);
  EXPECT_EQ(range_bits(cost, 0, cost.bits.size()), frame.payload_bits);
  // Prefix + suffix partition the total.
  const auto prefix = range_bits(cost, 0, 700);
  const auto suffix = range_bits(cost, 700, 2000);
  EXPECT_EQ(prefix + suffix, frame.payload_bits);
}

TEST(CoordCodecTest, LocalStructureCompressesWell) {
  // Bonded-neighbour statistics (0.1-0.3 nm spacing) must compress well
  // below raw float32: this is the xtc-like >2.5x regime.
  Rng rng(13);
  const auto coords = random_cluster_coords(rng, 20000, 8.0f, 0.15f);
  const auto frame = compress(coords, {}).value();
  const double raw_bytes = static_cast<double>(coords.size()) * 4.0;
  const double ratio = raw_bytes / static_cast<double>(frame.payload_bytes());
  EXPECT_GT(ratio, 2.5) << "compression ratio " << ratio;
  EXPECT_LT(ratio, 6.0) << "suspiciously high ratio " << ratio;
}

TEST(CoordCodecTest, ScatteredAtomsStillRoundTrip) {
  // Uniformly scattered atoms (hostile to delta coding) must stay correct
  // even if compression degrades.
  Rng rng(17);
  std::vector<float> coords;
  for (int i = 0; i < 3000; ++i) coords.push_back(static_cast<float>(rng.uniform(0.0, 50.0)));
  const auto frame = compress(coords, {}).value();
  const auto out = decompress(frame).value();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    ASSERT_NEAR(out[i], coords[i], 0.0006f);
  }
}

TEST(CoordCodecTest, CorruptPayloadDetected) {
  Rng rng(23);
  const auto coords = random_cluster_coords(rng, 100, 5.0f, 0.2f);
  auto frame = compress(coords, {}).value();
  frame.payload_bits += 64;  // declare more bits than the stream holds
  EXPECT_FALSE(decompress(frame).is_ok());
}

TEST(CoordCodecTest, InvalidHeaderFieldsDetected) {
  Rng rng(29);
  const auto coords = random_cluster_coords(rng, 10, 5.0f, 0.2f);
  auto frame = compress(coords, {}).value();
  auto bad = frame;
  bad.small_bits = 55;
  EXPECT_FALSE(decompress(bad).is_ok());
  bad = frame;
  bad.full_bits[1] = 40;
  EXPECT_FALSE(decompress(bad).is_ok());
  bad = frame;
  bad.precision = -1.0f;
  EXPECT_FALSE(decompress(bad).is_ok());
}

TEST(CoordCodecTest, NegativeCoordinatesRoundTrip) {
  std::vector<float> coords = {-3.5f, -2.25f, -900.0f, -3.51f, -2.24f, -900.01f};
  const auto frame = compress(coords, {}).value();
  const auto out = decompress(frame).value();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    ASSERT_NEAR(out[i], coords[i], 0.0006f);
  }
}

// --- codec v2 (predictive) -----------------------------------------------------

std::vector<std::vector<float>> drifting_frames(Rng& rng, std::size_t atoms, int frames,
                                                float step) {
  std::vector<std::vector<float>> out;
  auto coords = random_cluster_coords(rng, atoms, 6.0f, 0.2f);
  for (int f = 0; f < frames; ++f) {
    out.push_back(coords);
    for (auto& v : coords) {
      v = std::clamp(v + static_cast<float>(rng.normal(0.0, static_cast<double>(step))), 0.0f,
                     6.0f);
    }
  }
  return out;
}

TEST(CoordCodecV2Test, PredictedFramesRoundTripExactly) {
  // Encoder and decoder rotate the same integer-domain context, so decoding
  // a predicted chain reproduces the keyframe-quantized grid exactly.
  Rng rng(31);
  const auto frames = drifting_frames(rng, 500, 8, 0.01f);
  PredictionContext encode_ctx;
  PredictionContext decode_ctx;
  for (const auto& coords : frames) {
    const auto frame = compress_v2(coords, {}, encode_ctx).value();
    const auto out = decompress_v2(frame, decode_ctx).value();
    ASSERT_EQ(out.size(), coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i) {
      ASSERT_NEAR(out[i], coords[i], 0.0006f) << "at coordinate " << i;
    }
  }
}

TEST(CoordCodecV2Test, TemporalCoherenceBeatsIntraCoding) {
  // Small inter-frame motion: the predicted frames must be strictly smaller
  // than what intra (v1) coding produces for the same frames.
  Rng rng(37);
  const auto frames = drifting_frames(rng, 2000, 6, 0.005f);
  PredictionContext ctx;
  std::size_t v1_bytes = 0;
  std::size_t v2_bytes = 0;
  for (const auto& coords : frames) {
    v1_bytes += compress(coords, {}).value().payload_bytes();
    v2_bytes += compress_v2(coords, {}, ctx).value().payload_bytes();
  }
  EXPECT_LT(v2_bytes, v1_bytes) << "v2 " << v2_bytes << " vs v1 " << v1_bytes;
}

TEST(CoordCodecV2Test, FirstFrameIsIntraAndMatchesV1) {
  Rng rng(41);
  const auto coords = random_cluster_coords(rng, 300, 8.0f, 0.2f);
  PredictionContext ctx;
  const auto v2 = compress_v2(coords, {}, ctx).value();
  EXPECT_EQ(v2.predictor, Predictor::kIntra);
  const auto v1 = compress(coords, {}).value();
  EXPECT_EQ(v2.payload, v1.payload);  // keyframes are bit-identical to v1 blocks
  EXPECT_EQ(v2.payload_bits, v1.payload_bits);
}

TEST(CoordCodecV2Test, PredictedFrameWithoutContextRejected) {
  Rng rng(43);
  const auto frames = drifting_frames(rng, 100, 2, 0.005f);
  PredictionContext encode_ctx;
  (void)compress_v2(frames[0], {}, encode_ctx).value();
  const auto predicted = compress_v2(frames[1], {}, encode_ctx).value();
  ASSERT_NE(predicted.predictor, Predictor::kIntra);
  PredictionContext empty;
  EXPECT_FALSE(decompress_v2(predicted, empty).is_ok());  // no usable context
}

TEST(CoordCodecV2Test, ResetForcesKeyframe) {
  Rng rng(47);
  const auto frames = drifting_frames(rng, 100, 3, 0.005f);
  PredictionContext ctx;
  (void)compress_v2(frames[0], {}, ctx).value();
  ctx.reset();
  const auto frame = compress_v2(frames[1], {}, ctx).value();
  EXPECT_EQ(frame.predictor, Predictor::kIntra);
}

// --- differential decode: record-window decoders vs a bit-at-a-time reference --
//
// Frames here are built record by record (not by the encoder), so every
// flag mix, field width, padding alignment and off-grid value occurs.  The
// reference decodes them straight from the layout in coord_codec.hpp with
// ReferenceBits; decompress / decompress_v2 must accept exactly what it
// accepts, with bit-identical floats, and reject the rest as corrupt_data.

constexpr std::int64_t kGrid = std::int64_t{1} << 30;

bool on_grid(std::int64_t v) { return v > -kGrid && v < kGrid; }

/// Random value of exactly `width` bits; small magnitudes three times in
/// four so many frames stay on the grid.
std::uint32_t random_field(Rng& rng, unsigned width) {
  if (width == 0) return 0;
  const unsigned used = rng.uniform_index(4) != 0 ? std::min(width, 6u) : width;
  return static_cast<std::uint32_t>(rng.next_u64() >> (64 - used));
}

struct BuiltFrame {
  CompressedFrame frame;
  std::vector<std::uint64_t> record_starts;  // bit offset of each flagged record
};

BuiltFrame finish_frame(BuiltFrame built, BitWriter& writer) {
  built.frame.payload_bits = writer.bit_count();
  built.frame.payload = writer.finish();
  return built;
}

/// v1/intra layout: first atom absolute, then flag + 3 fields per atom.
BuiltFrame random_intra_frame(Rng& rng, std::uint32_t atoms, unsigned small_bits,
                              const std::array<unsigned, 3>& full_bits) {
  BuiltFrame built;
  CompressedFrame& f = built.frame;
  f.atom_count = atoms;
  f.precision = 1000.0f;
  f.small_bits = static_cast<std::uint8_t>(small_bits);
  for (int d = 0; d < 3; ++d) {
    f.full_bits[d] = static_cast<std::uint8_t>(full_bits[static_cast<std::size_t>(d)]);
    f.min_quantum[d] = static_cast<std::int32_t>(rng.uniform_index(1u << 29)) - (1 << 28);
  }
  BitWriter writer;
  for (const unsigned width : full_bits) writer.put_bits(random_field(rng, width), width);
  for (std::uint32_t i = 1; i < atoms; ++i) {
    built.record_starts.push_back(writer.bit_count());
    const bool large = rng.uniform_index(4) == 0;
    writer.put_bit(large);
    for (const unsigned width : full_bits) {
      const unsigned field = large ? width : small_bits;
      writer.put_bits(random_field(rng, field), field);
    }
  }
  return finish_frame(std::move(built), writer);
}

/// Predicted layout: flag + 3 residual fields (small_bits or 32) per atom.
BuiltFrame random_predicted_frame(Rng& rng, std::uint32_t atoms, unsigned small_bits,
                                  Predictor predictor) {
  BuiltFrame built;
  CompressedFrame& f = built.frame;
  f.atom_count = atoms;
  f.precision = 1000.0f;
  f.small_bits = static_cast<std::uint8_t>(small_bits);
  f.predictor = predictor;
  for (int d = 0; d < 3; ++d) f.full_bits[d] = 32;
  BitWriter writer;
  for (std::uint32_t i = 0; i < atoms; ++i) {
    built.record_starts.push_back(writer.bit_count());
    const bool large = rng.uniform_index(4) == 0;
    writer.put_bit(large);
    const unsigned field = large ? 32 : small_bits;
    for (int d = 0; d < 3; ++d) writer.put_bits(random_field(rng, field), field);
  }
  return finish_frame(std::move(built), writer);
}

/// A usable two-frame context for `atoms` atoms, on the grid.
PredictionContext random_context(Rng& rng, std::uint32_t atoms) {
  PredictionContext ctx;
  ctx.precision = 1000.0f;
  for (std::uint32_t i = 0; i < 3 * atoms; ++i) {
    ctx.prev1.push_back(static_cast<std::int32_t>(rng.uniform_index(1u << 29)) - (1 << 28));
    ctx.prev2.push_back(static_cast<std::int32_t>(rng.uniform_index(1u << 29)) - (1 << 28));
  }
  return ctx;
}

bool plausible(const CompressedFrame& f, std::uint64_t min_bits) {
  return f.payload_bits <= 8 * f.payload.size() && f.payload_bits >= min_bits;
}

/// Reference v1/intra decode to grid values; nullopt where it must reject.
std::optional<std::vector<std::int32_t>> reference_intra(const CompressedFrame& f) {
  for (const std::uint8_t width : f.full_bits) {
    if (width > 32) return std::nullopt;
  }
  if (f.small_bits > 31 || !plausible(f, f.atom_count > 1 ? f.atom_count - 1 : 0)) {
    return std::nullopt;
  }
  ReferenceBits bits{f.payload};
  std::vector<std::int32_t> q;
  std::int64_t prev[3] = {0, 0, 0};
  for (std::uint32_t i = 0; i < f.atom_count; ++i) {
    bool large = true;
    if (i > 0) {
      const auto flag = bits.get(1);
      if (!flag) return std::nullopt;
      large = *flag != 0;
    }
    for (int d = 0; d < 3; ++d) {
      const auto field = bits.get(large ? f.full_bits[d] : f.small_bits);
      if (!field) return std::nullopt;
      prev[d] = large ? f.min_quantum[d] + static_cast<std::int64_t>(*field)
                      : prev[d] + zigzag_decode(*field);
      if (!on_grid(prev[d])) return std::nullopt;
      q.push_back(static_cast<std::int32_t>(prev[d]));
    }
  }
  if (bits.pos != f.payload_bits) return std::nullopt;
  return q;
}

/// Reference predicted-frame decode against a usable context.
std::optional<std::vector<std::int32_t>> reference_predicted(const CompressedFrame& f,
                                                             const PredictionContext& ctx) {
  if (f.small_bits > 32 || !plausible(f, f.atom_count)) return std::nullopt;
  ReferenceBits bits{f.payload};
  std::vector<std::int32_t> q;
  for (std::uint32_t i = 0; i < f.atom_count; ++i) {
    const auto flag = bits.get(1);
    if (!flag) return std::nullopt;
    for (std::size_t d = 0; d < 3; ++d) {
      const auto field = bits.get(*flag != 0 ? 32 : f.small_bits);
      if (!field) return std::nullopt;
      const std::size_t at = 3 * std::size_t{i} + d;
      std::int64_t predicted = ctx.prev1[at];
      if (f.predictor == Predictor::kLinear) {
        predicted = std::clamp(2 * std::int64_t{ctx.prev1[at]} - ctx.prev2[at], -(kGrid - 1),
                               kGrid - 1);
      }
      const std::int64_t v = predicted + zigzag_decode(*field);
      if (!on_grid(v)) return std::nullopt;
      q.push_back(static_cast<std::int32_t>(v));
    }
  }
  if (bits.pos != f.payload_bits) return std::nullopt;
  return q;
}

/// Decoded floats equal the reference grid values scaled, bit for bit.
void expect_same_floats(const std::vector<float>& got, const std::vector<std::int32_t>& grid,
                        float precision) {
  ASSERT_EQ(got.size(), grid.size());
  const float inv_precision = 1.0f / precision;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const float want = static_cast<float>(grid[i]) * inv_precision;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want))
        << "value " << i;
  }
}

std::string describe(const CompressedFrame& f) {
  return "atoms " + std::to_string(f.atom_count) + " small_bits " +
         std::to_string(f.small_bits) + " full_bits " + std::to_string(f.full_bits[0]) + "/" +
         std::to_string(f.full_bits[1]) + "/" + std::to_string(f.full_bits[2]) +
         " predictor " + std::to_string(static_cast<int>(f.predictor)) + " payload_bits " +
         std::to_string(f.payload_bits) + " bytes " + std::to_string(f.payload.size());
}

/// v1 decompress and the v2 keyframe path against reference_intra; returns
/// whether the frame was accepted.
bool check_intra(const CompressedFrame& f) {
  const auto want = reference_intra(f);
  const auto v1 = decompress(f);
  PredictionContext ctx;
  CompressedFrame keyframe = f;
  keyframe.predictor = Predictor::kIntra;
  const auto v2 = decompress_v2(keyframe, ctx);
  EXPECT_EQ(v1.is_ok(), want.has_value()) << describe(f);
  EXPECT_EQ(v2.is_ok(), want.has_value()) << describe(f);
  if (!want.has_value()) {
    if (!v1.is_ok()) {
      EXPECT_EQ(v1.error().code(), ErrorCode::kCorruptData) << describe(f);
    }
    if (!v2.is_ok()) {
      EXPECT_EQ(v2.error().code(), ErrorCode::kCorruptData) << describe(f);
    }
    return false;
  }
  if (v1.is_ok()) expect_same_floats(v1.value(), *want, f.precision);
  if (v2.is_ok()) {
    expect_same_floats(v2.value(), *want, f.precision);
    EXPECT_EQ(ctx.prev1, *want) << "keyframe context must hold the exact grid";
  }
  return true;
}

bool check_predicted(const CompressedFrame& f, const PredictionContext& context) {
  const auto want = reference_predicted(f, context);
  PredictionContext ctx = context;
  const auto got = decompress_v2(f, ctx);
  EXPECT_EQ(got.is_ok(), want.has_value()) << describe(f);
  if (!want.has_value()) {
    if (!got.is_ok()) {
      EXPECT_EQ(got.error().code(), ErrorCode::kCorruptData) << describe(f);
    }
    return false;
  }
  if (got.is_ok()) {
    expect_same_floats(got.value(), *want, f.precision);
    EXPECT_EQ(ctx.prev1, *want);
  }
  return true;
}

/// Truncations in the last 4 records and lying payload_bits of an accepted
/// frame: all corrupt_data.
template <typename Decode>
void expect_truncations_rejected(const BuiltFrame& built, const Decode& decode) {
  const CompressedFrame& f = built.frame;
  const std::size_t records = built.record_starts.size();
  const std::uint64_t from = built.record_starts[records >= 4 ? records - 4 : 0];
  for (std::uint64_t cut = from; cut < f.payload_bits; ++cut) {
    CompressedFrame cut_frame = f;  // bytes cut, bit count cut
    cut_frame.payload.resize(static_cast<std::size_t>((cut + 7) / 8));
    cut_frame.payload_bits = cut;
    CompressedFrame short_count = f;  // full bytes, bit count cut
    short_count.payload_bits = cut;
    for (const CompressedFrame* bad : {&cut_frame, &short_count}) {
      const auto result = decode(*bad);
      ASSERT_FALSE(result.is_ok()) << "cut at bit " << cut << ": " << describe(*bad);
      EXPECT_EQ(result.error().code(), ErrorCode::kCorruptData);
    }
  }
  for (const std::uint64_t lie : {f.payload_bits + 1, f.payload_bits + 8, f.payload_bits - 1,
                                  std::uint64_t{1} << 40}) {
    CompressedFrame lying = f;
    lying.payload_bits = lie;
    const auto result = decode(lying);
    ASSERT_FALSE(result.is_ok()) << "payload_bits " << lie << ": " << describe(f);
    EXPECT_EQ(result.error().code(), ErrorCode::kCorruptData);
  }
}

TEST(CodecDifferentialTest, IntraDecodeMatchesBitwiseReference) {
  Rng rng(4401);
  std::set<std::uint64_t> end_alignments;
  int accepted = 0;
  int rejected = 0;
  const auto decode_v1 = [](const CompressedFrame& f) { return decompress(f); };
  const auto visit = [&](const BuiltFrame& built) {
    end_alignments.insert(built.frame.payload_bits % 8);
    if (!check_intra(built.frame)) {
      ++rejected;
      return;
    }
    ++accepted;
    if (built.frame.atom_count >= 2) expect_truncations_rejected(built, decode_v1);
  };
  // Every small_bits 0..31 against every full_bits 0..32 (the other two
  // widths vary with it, so one-window and per-field records both occur).
  for (unsigned k = 0; k <= 31; ++k) {
    for (unsigned fb = 0; fb <= 32; ++fb) {
      const std::array<unsigned, 3> widths = {fb, (fb + 11 * k) % 33, (3 * fb + k) % 33};
      const auto atoms = static_cast<std::uint32_t>(1 + rng.uniform_index(64));
      visit(random_intra_frame(rng, atoms, k, widths));
    }
  }
  // Every atom count 1..64, several shapes each.
  for (std::uint32_t atoms = 1; atoms <= 64; ++atoms) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto k = static_cast<unsigned>(rng.uniform_index(32));
      const std::array<unsigned, 3> widths = {static_cast<unsigned>(rng.uniform_index(33)),
                                              static_cast<unsigned>(rng.uniform_index(33)),
                                              static_cast<unsigned>(rng.uniform_index(33))};
      visit(random_intra_frame(rng, atoms, k, widths));
    }
  }
  EXPECT_EQ(end_alignments.size(), 8u) << "payloads must end at every bit of a byte";
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 50);
}

TEST(CodecDifferentialTest, PredictedDecodeMatchesBitwiseReference) {
  Rng rng(4402);
  std::set<std::uint64_t> end_alignments;
  int accepted = 0;
  int rejected = 0;
  for (const Predictor predictor : {Predictor::kPrev, Predictor::kLinear}) {
    for (unsigned k = 0; k <= 32; ++k) {
      for (std::uint32_t atoms = 1; atoms <= 64; atoms += 1 + static_cast<std::uint32_t>(k % 3)) {
        const BuiltFrame built = random_predicted_frame(rng, atoms, k, predictor);
        const PredictionContext ctx = random_context(rng, atoms);
        end_alignments.insert(built.frame.payload_bits % 8);
        if (!check_predicted(built.frame, ctx)) {
          ++rejected;
          continue;
        }
        ++accepted;
        expect_truncations_rejected(built, [&ctx](const CompressedFrame& f) {
          PredictionContext scratch = ctx;
          return decompress_v2(f, scratch);
        });
      }
    }
  }
  EXPECT_EQ(end_alignments.size(), 8u) << "payloads must end at every bit of a byte";
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 50);
}

TEST(CodecDifferentialTest, EncoderOutputMatchesReference) {
  // Real encoder output (clustered and scattered geometry, both codecs).
  Rng rng(4403);
  for (std::size_t atoms = 1; atoms <= 64; ++atoms) {
    const auto coords = random_cluster_coords(rng, atoms, 6.0f, atoms % 2 == 0 ? 0.2f : 3.0f);
    ASSERT_TRUE(check_intra(compress(coords, {}).value()));
  }
  PredictionContext enc;
  PredictionContext dec;
  for (const auto& frame : drifting_frames(rng, 48, 12, 0.01f)) {
    const auto compressed = compress_v2(frame, {}, enc).value();
    const auto want = compressed.predictor == Predictor::kIntra
                          ? reference_intra(compressed)
                          : reference_predicted(compressed, dec);
    ASSERT_TRUE(want.has_value());
    const auto got = decompress_v2(compressed, dec);
    ASSERT_TRUE(got.is_ok());
    expect_same_floats(got.value(), *want, compressed.precision);
  }
}

// --- golden vectors ------------------------------------------------------------
//
// Canned encoded streams lock both wire formats: encoding a fixed
// deterministic trajectory must reproduce the canned .xtc blob bit for bit,
// and decoding the canned blob must reproduce the canned RAW floats exactly
// (float bits, not tolerances).  After an *intentional* format change,
// regenerate with `ADA_UPDATE_GOLDEN=1 ctest -R Golden` and commit the new
// blobs alongside the change (procedure: docs/performance.md).

std::string golden_path(const char* name) {
  return std::string(ADA_TEST_DATA_DIR) + "/" + name;
}

// The fixed input: 6 frames x 64 atoms of bonded-cluster geometry with small
// inter-frame drift, deterministic for all time (Rng is a fixed algorithm).
std::vector<std::vector<float>> golden_trajectory() {
  Rng rng(424242);
  return drifting_frames(rng, 64, 6, 0.01f);
}

void check_golden(CodecVersion version, const char* xtc_name, const char* raw_name) {
  const auto frames = golden_trajectory();
  // Keyframe every 4 frames: the stream carries two intra frames and four
  // predicted ones (prev and linear both exercised) under v2.
  formats::XtcWriter writer({}, version, 4);
  chem::Box box;
  box.matrix = {6.0f, 0.0f, 0.0f, 0.0f, 6.0f, 0.0f, 0.0f, 0.0f, 6.0f};
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ASSERT_TRUE(writer
                    .add_frame(static_cast<std::uint32_t>(f), 0.002f * static_cast<float>(f), box,
                               frames[f])
                    .is_ok());
  }
  const std::vector<std::uint8_t> encoded = writer.bytes();

  const auto decode_to_raw = [](std::span<const std::uint8_t> stream) {
    formats::RawTrajWriter raw(64);
    formats::XtcReader reader(stream);
    while (true) {
      auto next = reader.next();
      EXPECT_TRUE(next.is_ok());
      if (!next.is_ok() || !next.value().has_value()) break;
      const formats::TrajFrame& frame = *next.value();
      EXPECT_TRUE(raw.add_frame(frame.step, frame.time_ps, frame.box, frame.coords).is_ok());
    }
    return raw.finish();
  };
  const std::vector<std::uint8_t> decoded = decode_to_raw(encoded);

  if (std::getenv("ADA_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(write_file(golden_path(xtc_name), encoded).is_ok());
    ASSERT_TRUE(write_file(golden_path(raw_name), decoded).is_ok());
    GTEST_SKIP() << "golden vectors regenerated; commit tests/data/ and re-run without "
                    "ADA_UPDATE_GOLDEN";
  }

  const auto want_xtc = read_file(golden_path(xtc_name));
  ASSERT_TRUE(want_xtc.is_ok()) << "missing golden vector " << xtc_name
                                << " (regenerate: ADA_UPDATE_GOLDEN=1 ctest -R Golden)";
  EXPECT_EQ(encoded, want_xtc.value()) << "encoder no longer bit-exact for " << xtc_name;

  const auto want_raw = read_file(golden_path(raw_name));
  ASSERT_TRUE(want_raw.is_ok());
  // Fresh encode+decode and canned-blob decode must both hit the canned
  // floats exactly.
  EXPECT_EQ(decoded, want_raw.value()) << "decode drifted for " << xtc_name;
  EXPECT_EQ(decode_to_raw(want_xtc.value()), want_raw.value())
      << "canned " << xtc_name << " no longer decodes to the canned floats";
}

TEST(CodecGoldenTest, V1StreamBitExact) { check_golden(CodecVersion::kV1, "golden_v1.xtc", "golden_v1.raw"); }

TEST(CodecGoldenTest, V2StreamBitExact) { check_golden(CodecVersion::kV2, "golden_v2.xtc", "golden_v2.raw"); }

}  // namespace
}  // namespace ada::codec
