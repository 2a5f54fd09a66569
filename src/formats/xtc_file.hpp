// XTC trajectory files: XDR-framed, compressed coordinates.
//
// The wire layout follows GROMACS .xtc: every frame is an XDR stream item
// beginning with magic 1995, atom count, MD step and time, the 3x3 box, and
// a compressed coordinate block.  The coordinate block uses this
// repository's ada3d codec (src/codec/) rather than 3dfcoord -- see
// DESIGN.md's substitution table -- so a second magic (0xada3) distinguishes
// the variant.  Sizes, CPU behaviour and round-trip precision match the
// original's character.
//
// Codec v2 coordinate blocks carry the magic 0xada4 and insert one XDR word
// (the predictor id) after it; everything else is laid out as in v1.  A v2
// stream is a sequence of keyframes (predictor 0, bit-identical to a v1
// block) and predicted frames that decode against the running context --
// decode therefore must start at a keyframe, which the writer emits at
// least every `keyframe_interval` frames.  v1 streams remain readable and
// writable unchanged; docs/performance.md documents the layout.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chem/system.hpp"
#include "codec/coord_codec.hpp"
#include "common/result.hpp"

namespace ada::formats {

/// Frame magic, identical to GROMACS xtc.
constexpr std::int32_t kXtcMagic = 1995;
/// Coordinate-block magic identifying the ada3d codec variant.
constexpr std::uint32_t kAda3dMagic = 0xada3;
/// Coordinate-block magic of the v2 (temporal-prediction) codec variant.
constexpr std::uint32_t kAda3dV2Magic = 0xada4;

/// A frame's metadata: everything but its coordinates.
struct FrameStamp {
  std::uint32_t step = 0;
  float time_ps = 0.0f;
  chem::Box box;
};

/// One decoded trajectory frame.
struct TrajFrame : FrameStamp {
  std::vector<float> coords;  // xyz triplets, nm

  std::uint32_t atom_count() const noexcept { return static_cast<std::uint32_t>(coords.size() / 3); }
};

/// Streaming writer: frames are appended to an in-memory buffer that callers
/// persist through the storage layer (or common/write_file for host files).
class XtcWriter {
 public:
  /// Default interval between forced v2 keyframes.  Bounds how much context
  /// a range decode must rebuild and how far a parallel-ingest range
  /// boundary can sit from the frame a worker actually wants.
  static constexpr std::uint32_t kDefaultKeyframeInterval = 16;

  explicit XtcWriter(codec::CodecParams params = {},
                     codec::CodecVersion version = codec::CodecVersion::kV1,
                     std::uint32_t keyframe_interval = kDefaultKeyframeInterval)
      : params_(params),
        version_(version),
        keyframe_interval_(keyframe_interval == 0 ? 1 : keyframe_interval) {}

  /// Compress and append one frame.  When `per_atom` is non-null it receives
  /// the per-atom compressed bit costs of this frame (Table 1 attribution).
  Status add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                   std::span<const float> coords, codec::PerAtomCost* per_atom = nullptr);

  codec::CodecVersion version() const noexcept { return version_; }
  std::size_t frame_count() const noexcept { return frame_count_; }
  std::size_t size_bytes() const noexcept { return buffer_.size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  codec::CodecParams params_;
  codec::CodecVersion version_;
  std::uint32_t keyframe_interval_;
  std::uint32_t frames_since_keyframe_ = 0;
  codec::PredictionContext ctx_;
  std::vector<std::uint8_t> buffer_;
  std::size_t frame_count_ = 0;
};

/// Streaming reader over an in-memory XTC image.  Carries the v2 prediction
/// context across next() calls; v1 frames decode statelessly.
class XtcReader {
 public:
  explicit XtcReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Decode the next frame; std::nullopt cleanly at end of stream.
  Result<std::optional<TrajFrame>> next();

  /// Decode the next frame into `frame`, reusing its coordinate buffer (a
  /// caller that keeps one TrajFrame allocates nothing per frame); false
  /// cleanly at end of stream.
  Result<bool> next(TrajFrame& frame);

  /// Decode the next frame, which must be a v1 frame, with its coordinates
  /// scattered per `plan` into `records` (codec::decompress_routed) rather
  /// than into a coordinate buffer; `stamp` receives its step, time and box.
  /// A v2 frame is unsupported: its decode needs the grid context.  False
  /// cleanly at end of stream.
  Result<bool> next_routed(FrameStamp& stamp, std::span<const codec::ScatterRun> plan,
                           std::span<std::uint8_t* const> records);

  /// Skip the next frame without decompressing (index/seek support);
  /// returns false cleanly at end of stream.  Skipping drops the v2
  /// prediction context, so the next decoded frame must be a keyframe.
  Result<bool> skip();

  /// Move to the frame starting at byte `offset` (a boundary from
  /// scan_xtc_extents) and drop the v2 prediction context, so the next
  /// decoded frame must be self-contained.
  void seek(std::size_t offset);

  std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  codec::PredictionContext ctx_;
};

/// Decode every frame of an XTC image.
Result<std::vector<TrajFrame>> read_all_xtc(std::span<const std::uint8_t> data);

/// Frame index: byte offset + metadata per frame, built in one cheap pass
/// (headers only, no decompression).  Enables random access into compressed
/// trajectories -- what VMD's `animate goto` needs when frames are evicted.
struct XtcIndexEntry {
  std::size_t offset = 0;  // byte offset of the frame within the image
  std::uint32_t step = 0;
  float time_ps = 0.0f;
};

Result<std::vector<XtcIndexEntry>> build_xtc_index(std::span<const std::uint8_t> data);

/// One frame's extent within a compressed XTC image, from the header-only
/// boundary scan (no coordinate decompression).
struct XtcFrameExtent {
  std::size_t offset = 0;        // byte offset of the frame within the image
  std::size_t size = 0;          // encoded bytes: prelude + padded payload
  std::uint32_t atom_count = 0;  // from the frame header
  bool intra = true;             // self-contained decode entry point (always true for v1)
  bool v2 = false;               // a codec v2 coordinate block, keyframe or predicted
};

/// Walk the XDR frame headers of an XTC image and return every frame's
/// extent.  Reads a handful of words per frame (magic, atom count, codec
/// magic, predictor for v2, payload length) and never touches the
/// compressed coordinate block, so the scan is cheap enough to run up front
/// before fanning frame-range decode tasks out to the thread pool.
Result<std::vector<XtcFrameExtent>> scan_xtc_extents(std::span<const std::uint8_t> data);

/// Decode exactly one frame at an indexed offset.  The frame must be
/// self-contained (any v1 frame, or a v2 keyframe -- XtcFrameExtent::intra);
/// a predicted frame has no context here and returns corrupt_data.
Result<TrajFrame> read_xtc_frame_at(std::span<const std::uint8_t> data, std::size_t offset);

/// Copy `selection`'s atoms out of a full frame's coords.
std::vector<float> extract_subset(std::span<const float> coords, const chem::Selection& selection);

}  // namespace ada::formats
