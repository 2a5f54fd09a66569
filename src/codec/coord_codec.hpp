// Lossy fixed-precision coordinate compression ("ada3d").
//
// This is the repository's stand-in for the GROMACS xtc3 / 3dfcoord
// algorithm, with the same computational character:
//
//   1. quantize each coordinate to an integer grid: q = round(x * precision)
//      (precision = 1000 reproduces xtc's default 0.001 nm grid);
//   2. delta-encode each atom against the previous atom in file order --
//      molecular files store bonded atoms consecutively, so deltas are small;
//   3. pack each atom either as a "small" record (1 flag bit + 3 zigzag
//      deltas of `small_bits` each) or, when any delta overflows, as a
//      "large" record (1 flag bit + 3 absolute frame-box-relative values);
//      `small_bits` is chosen per frame by exact cost minimization.
//
// On solvated MD systems this reaches ~3.3x over raw float32 (see
// tests/codec_test.cpp and bench/micro_codec.cpp), matching the paper's
// raw:compressed ratio of 3.27 (Table 2).  Decoding is a serial per-atom
// chain -- each small record's deltas add to the previous atom -- so it stays
// a CPU-bound loop, the "duplication of labor" the paper's Fig. 8 flame
// graph attributes to VMD.  It is record-at-a-time, not per-bit: one bounds
// check and (when the record fits 57 bits, as the frame header decides) one
// unaligned 64-bit window per record.  Every decoded coordinate is checked
// against the quantization grid, so crafted payloads are corrupt_data.
//
// Codec v2 adds temporal prediction on top of the same bitstream: each frame
// may be coded against the previous frame (Predictor::kPrev) or a linear
// extrapolation of the previous two (Predictor::kLinear) instead of
// intra-frame atom deltas.  MD displacements between adjacent frames are far
// smaller than inter-atom distances, so residuals pack tighter; and because
// every atom's residual is independent of every other atom's, the v2 decode
// reconstructs coordinates in a flat elementwise pass the compiler can
// auto-vectorize (v1's previous-atom chain is inherently serial).  The
// encoder picks the cheapest of {intra, prev, linear} per frame by exact
// cost, so v2 never does worse than v1 plus one predictor byte.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/result.hpp"

namespace ada::codec {

/// On-wire codec generations (AdaConfig selector, xtc coordinate-block magic).
enum class CodecVersion : std::uint8_t {
  kV1 = 1,  // per-frame intra coding only (ada3d classic)
  kV2 = 2,  // temporal prediction + SoA residual decode
};

/// How a v2 frame's quantized coordinates were predicted.
enum class Predictor : std::uint8_t {
  kIntra = 0,   // no temporal context: exact v1 record layout (keyframe)
  kPrev = 1,    // predicted from the previous frame's grid positions
  kLinear = 2,  // predicted from a 2-frame linear extrapolation
};

/// Codec configuration.
struct CodecParams {
  /// Grid resolution: coordinates are stored as round(x * precision).
  /// Default 1000 == millinanometer grid, the GROMACS xtc default.
  float precision = 1000.0f;
};

/// One compressed coordinate frame.
struct CompressedFrame {
  std::uint32_t atom_count = 0;
  float precision = 0.0f;
  std::int32_t min_quantum[3] = {0, 0, 0};  // per-dimension frame minimum (grid units)
  std::uint8_t full_bits[3] = {0, 0, 0};    // absolute-record field widths
  std::uint8_t small_bits = 0;              // small-record delta/residual field width
  Predictor predictor = Predictor::kIntra;  // always kIntra for v1 frames
  std::uint64_t payload_bits = 0;           // valid bits in `payload`
  std::vector<std::uint8_t> payload;        // bit-packed records

  /// Wire size of this frame's coordinate payload in bytes.
  std::size_t payload_bytes() const noexcept { return payload.size(); }
};

/// Temporal state threaded through a v2 encode or decode stream: the exact
/// quantized grids of the last two frames.  Encoder and decoder rotate it
/// identically (prediction is in the lossless integer domain), so contexts
/// never drift.  reset() forces the next frame intra -- that is how writers
/// implement keyframes and how readers handle seeks.
struct PredictionContext {
  std::vector<std::int32_t> prev1;  // most recent frame, xyz grid triplets
  std::vector<std::int32_t> prev2;  // the frame before prev1
  std::vector<std::int32_t> spare;  // decoder scratch: next frame's grid is built here
  float precision = 0.0f;           // grid the stored quanta live on

  void reset() {
    prev1.clear();
    prev2.clear();
    precision = 0.0f;
  }

  /// Usable as a one-frame (kPrev) context for `values` coordinates?
  bool has_prev(std::size_t values, float grid) const noexcept {
    return precision == grid && precision > 0.0f && prev1.size() == values;
  }
  /// Usable as a two-frame (kLinear) context?
  bool has_two(std::size_t values, float grid) const noexcept {
    return has_prev(values, grid) && prev2.size() == values;
  }
};

/// Analysis by-product: the packed cost of each atom, for attributing
/// compressed bytes to data subsets (paper Table 1).
struct PerAtomCost {
  std::vector<std::uint32_t> bits;  // bits[i] == packed size of atom i
};

/// Compress `coords` (xyz triplets, length divisible by 3).
/// If `per_atom` is non-null it receives the per-atom bit costs.
Result<CompressedFrame> compress(std::span<const float> coords, const CodecParams& params,
                                 PerAtomCost* per_atom = nullptr);

/// Decompress back to xyz triplets.  Output values are exact multiples of
/// 1/precision; round-trip error is bounded by 0.5/precision per coordinate.
Result<std::vector<float>> decompress(const CompressedFrame& frame);

/// decompress() into caller-owned storage: the records are read from
/// `payload` (frame.payload is not read), e.g. straight out of a file image,
/// and `coords` is resized to atom_count * 3 once the header checks pass,
/// so a caller that reuses one vector allocates and zero-fills nothing per
/// frame.  On an error `coords` holds unspecified values.
Status decompress_into(const CompressedFrame& frame, std::span<const std::uint8_t> payload,
                       std::vector<float>& coords);

/// Compress one frame of a v2 stream.  Picks the cheapest predictor the
/// context supports (intra when `ctx` is empty or mismatched) and rotates
/// `ctx` so the next frame can predict from this one.  Call ctx.reset()
/// first to force a keyframe.
Result<CompressedFrame> compress_v2(std::span<const float> coords, const CodecParams& params,
                                    PredictionContext& ctx, PerAtomCost* per_atom = nullptr);

/// Decompress one frame of a v2 stream and rotate `ctx`.  Predicted frames
/// require a context of matching size and precision (i.e. decode must have
/// started at a keyframe) -- anything else is corrupt_data, never a crash.
Result<std::vector<float>> decompress_v2(const CompressedFrame& frame, PredictionContext& ctx);

/// decompress_v2() into caller-owned storage, as decompress_into(); the
/// context rotates its three grid buffers instead of allocating per frame.
Status decompress_v2_into(const CompressedFrame& frame, std::span<const std::uint8_t> payload,
                          PredictionContext& ctx, std::vector<float>& coords);

/// Sum of packed record bits over an index range [begin, end) of atoms,
/// given a PerAtomCost from compress().  Used to attribute compressed volume
/// to categorized subsets.
std::uint64_t range_bits(const PerAtomCost& cost, std::size_t begin, std::size_t end);

}  // namespace ada::codec
