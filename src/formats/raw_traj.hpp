// RAW trajectory: the uncompressed on-disk form of a trajectory.
//
// The paper's "D" scenarios load trajectories "w/o compression" (Table 3),
// and ADA itself stores *decompressed* per-tag subsets so compute nodes never
// pay the decode cost again.  This little-endian container holds exactly
// that: a fixed header followed by frames of plain float32 coordinates.
//
//   header:  magic "ADARAW1\0" (8) | atom_count u32 | frame_count u32
//   frame:   step u32 | time f32 | box 9xf32 | coords atom_count*3 x f32
//
// Per-frame size is therefore 44 + 12*atom_count bytes, which for the GPCR
// system (43,520 atoms) gives the paper's ~522 KB/frame (Table 2: 327 MB for
// 626 frames).  This file is the layout's one owner: every other module
// builds, slices and reads RAW images only through the helpers below.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chem/selection.hpp"
#include "common/result.hpp"
#include "formats/xtc_file.hpp"

namespace ada::formats {

/// Bytes per RAW frame for a given atom count.
constexpr std::size_t raw_frame_bytes(std::uint32_t atom_count) noexcept {
  return 44 + std::size_t{12} * atom_count;
}

/// Total RAW file size for a given atom and frame count.
constexpr std::size_t raw_file_bytes(std::uint32_t atom_count, std::uint64_t frames) noexcept {
  return 16 + frames * raw_frame_bytes(atom_count);
}

/// True iff `file_bytes` is exactly a RAW file of `frames` frames of
/// `atom_count` atoms.  Divides rather than multiplies: a hostile frame
/// count cannot wrap 64 bits back onto the real length.
constexpr bool raw_file_has_shape(std::uint64_t file_bytes, std::uint32_t atom_count,
                                  std::uint64_t frames) noexcept {
  const std::uint64_t frame_bytes = raw_frame_bytes(atom_count);
  return file_bytes >= 16 && (file_bytes - 16) / frame_bytes == frames &&
         (file_bytes - 16) % frame_bytes == 0;
}

/// True if `data` begins with the RAW magic (format sniffing).
bool looks_like_raw(std::span<const std::uint8_t> data);

/// Bytes of the RAW header (raw_file_bytes of zero frames).
inline constexpr std::size_t kRawHeaderBytes = raw_file_bytes(0, 0);

/// Encode the header of a RAW image of `frames` frames at `out`
/// (kRawHeaderBytes bytes); frame f's record follows at
/// raw_file_bytes(atom_count, f).
void encode_raw_header(std::uint8_t* out, std::uint32_t atom_count, std::uint32_t frames);

/// A RAW image of `frames` frames, header written and frame records zeroed,
/// for filling frame f in place at raw_file_bytes(atom_count, f).
std::vector<std::uint8_t> make_raw_image(std::uint32_t atom_count, std::uint32_t frames);

/// Encode one RAW frame record at `out` (raw_frame_bytes(selection.count())
/// bytes): the header, then `selection`'s atoms of the full frame
/// `full_coords`, copied run by run.  The selection must lie in the frame.
void encode_raw_frame(std::uint8_t* out, std::uint32_t step, float time_ps, const chem::Box& box,
                      std::span<const float> full_coords, const chem::Selection& selection);

/// Streaming RAW writer (in-memory image; persist through the storage layer).
class RawTrajWriter {
 public:
  /// `reserve_frames` sizes the image up front, so appending that many
  /// frames never reallocates.
  explicit RawTrajWriter(std::uint32_t atom_count, std::uint64_t reserve_frames = 0);

  /// Append one frame; coords must hold atom_count*3 floats.
  Status add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                   std::span<const float> coords);

  /// Append one frame holding `selection`'s atoms of the full frame
  /// `full_coords`, gathered run by run straight into the image (no subset
  /// copy).  The selection must hold atom_count atoms, all inside the frame.
  Status add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                   std::span<const float> full_coords, const chem::Selection& selection);

  /// Append one frame record verbatim, as RawTrajReader::record() views it
  /// (raw_frame_bytes(atom_count) bytes, copied as they are).
  Status append_record(std::span<const std::uint8_t> record);

  std::uint32_t atom_count() const noexcept { return atom_count_; }
  std::uint32_t frame_count() const noexcept { return frame_count_; }
  std::size_t size_bytes() const noexcept { return buffer_.size(); }

  /// Finalize (patches the frame count into the header) and take the image.
  std::vector<std::uint8_t> finish();

 private:
  /// Grow the image by one frame record; returns where it starts.
  std::uint8_t* append_frame();

  std::uint32_t atom_count_;
  std::uint32_t frame_count_ = 0;
  std::vector<std::uint8_t> buffer_;
};

/// Random-access RAW reader over an in-memory image.
class RawTrajReader {
 public:
  /// Validates the header.
  static Result<RawTrajReader> open(std::span<const std::uint8_t> data);

  std::uint32_t atom_count() const noexcept { return atom_count_; }
  std::uint32_t frame_count() const noexcept { return frame_count_; }

  /// Decode frame `index` (random access: frames are fixed-size).
  Result<TrajFrame> frame(std::uint32_t index) const;

  /// Frame `index`'s encoded record, viewed in place (index < frame_count()).
  std::span<const std::uint8_t> record(std::uint32_t index) const;

  /// Decode all frames.
  Result<std::vector<TrajFrame>> read_all() const;

 private:
  friend class RawTrajCatReader;

  /// The RAW image at the start of `data`, which may run on past it.
  static Result<RawTrajReader> open_prefix(std::span<const std::uint8_t> data);

  RawTrajReader(std::span<const std::uint8_t> data, std::uint32_t atoms, std::uint32_t frames)
      : data_(data), atom_count_(atoms), frame_count_(frames) {}

  std::span<const std::uint8_t> data_;
  std::uint32_t atom_count_;
  std::uint32_t frame_count_;
};

/// Reader over a *concatenation* of RAW images (what a chunked/streaming
/// ingest stores: one dropping per chunk, each a self-describing RAW file).
/// Presents the segments as one logical trajectory with random access.
class RawTrajCatReader {
 public:
  /// Validates every segment; they must agree on atom count.
  static Result<RawTrajCatReader> open(std::span<const std::uint8_t> data);

  std::uint32_t atom_count() const noexcept { return atom_count_; }
  std::uint32_t frame_count() const noexcept { return frame_count_; }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  /// Decode logical frame `index`.
  Result<TrajFrame> frame(std::uint32_t index) const;

  /// Logical frame `index`'s encoded record, viewed in place in the segment
  /// holding it (index < frame_count()).
  std::span<const std::uint8_t> record(std::uint32_t index) const;

  /// Decode all frames in order.
  Result<std::vector<TrajFrame>> read_all() const;

 private:
  struct Segment {
    RawTrajReader reader;
    std::uint32_t first_frame;  // logical index of the segment's frame 0
  };

  RawTrajCatReader() = default;

  std::vector<Segment> segments_;
  std::uint32_t atom_count_ = 0;
  std::uint32_t frame_count_ = 0;
};

}  // namespace ada::formats
