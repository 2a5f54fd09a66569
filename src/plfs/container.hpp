// PLFS container structures: index records and their on-disk encoding.
//
// Following PLFS (Bent et al., SC'09), a logical file is a *container*: a
// same-named directory on every backend file system, holding data
// "droppings" plus an index that maps logical extents to (backend, dropping,
// physical offset).  ADA's I/O dispatcher leans on exactly this: each
// dropping carries the label of the data subset it stores, so a tag query
// resolves to the droppings with that label.
//
// The index image is the container's only published state: its records and,
// for a container that streams, the stream state, sealed by one CRC32C.  A
// RAW extent's record carries its shape (frame span and atom count), so a
// reader plans frame addresses from the index alone, as H5MD keeps a
// dataset's shape in its metadata rather than deriving it from a byte count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace ada::plfs {

/// A RAW extent's shape: global frames [base, base + count) of its subset's
/// frame axis, of `atoms` atoms each (nullopt in records that predate stored
/// atom counts, and in spans fsck must remove or rebuild).
struct FrameSpan {
  std::uint64_t base = 0;
  std::uint32_t count = 0;
  std::optional<std::uint32_t> atoms = std::nullopt;
};

/// One logical extent of a container.
struct IndexRecord {
  /// flags bits.
  static constexpr std::uint8_t kHasChecksum = 0x01;
  /// Record carries its frame span: the extent is one canonical RAW image
  /// holding global frames [frame_base, frame_base + frame_count) of its
  /// subset (batch extents start at 0).  Range queries address frames by
  /// it, and readers of a live stream clamp to the sealed-frame watermark
  /// (StreamState) with it.
  static constexpr std::uint8_t kHasFrameSpan = 0x04;
  /// Record carries the atom count of its frames (only beside a frame span):
  /// with it, the span and the length are one checkable shape,
  /// length == raw_file_bytes(atom_count, frame_count).
  static constexpr std::uint8_t kHasAtomCount = 0x08;

  std::uint64_t logical_offset = 0;  // position in the logical file
  std::uint64_t length = 0;
  std::uint32_t backend = 0;         // which backend holds the dropping
  std::string label;                 // data-subset tag ("p", "m", ... or "")
  std::string dropping;              // dropping file name within the container dir
  std::uint64_t physical_offset = 0; // offset inside the dropping file
  std::uint32_t crc32c = 0;          // extent checksum (valid iff kHasChecksum)
  std::uint8_t flags = 0;
  std::uint64_t frame_base = 0;      // valid iff kHasFrameSpan
  std::uint32_t frame_count = 0;     // valid iff kHasFrameSpan
  std::uint32_t atom_count = 0;      // valid iff kHasAtomCount

  bool has_checksum() const noexcept { return (flags & kHasChecksum) != 0; }
  void set_checksum(std::uint32_t crc) noexcept {
    crc32c = crc;
    flags |= kHasChecksum;
  }

  bool has_frame_span() const noexcept { return (flags & kHasFrameSpan) != 0; }
  bool has_atom_count() const noexcept { return (flags & kHasAtomCount) != 0; }
  void set_frame_span(FrameSpan span) noexcept {
    frame_base = span.base;
    frame_count = span.count;
    flags |= kHasFrameSpan;
    if (span.atoms.has_value()) {
      atom_count = *span.atoms;
      flags |= kHasAtomCount;
    }
  }

  friend bool operator==(const IndexRecord&, const IndexRecord&) = default;
};

/// Live-stream publication state of a container, carried in its index.
///
/// The *sealed-frame watermark* `sealed_frames` is the publication point:
/// global frames [floor_frames, sealed_frames) are durable on every tag and
/// safe to serve; anything at or beyond the watermark is the open tail and
/// must stay invisible to readers.  The watermark only moves forward
/// (monotone), the floor only rises (windowed retention dropping the oldest
/// chunks), and `sealed` flips to true exactly once when the stream
/// finishes.  Containers written by batch ingest have no stream state at
/// all; readers then treat every indexed extent as sealed.
struct StreamState {
  bool sealed = false;
  std::uint64_t sealed_frames = 0;   // watermark: frames below this are readable
  std::uint64_t sealed_chunks = 0;   // chunks fully published
  std::uint64_t floor_frames = 0;    // retention floor: frames below this are gone
  std::uint64_t retention_drops = 0; // chunks dropped by windowed retention

  friend bool operator==(const StreamState&, const StreamState&) = default;
};

/// A container's published state: one image, replaced atomically and
/// exactly once by every logical write.
struct Index {
  std::vector<IndexRecord> records;
  std::optional<StreamState> stream;  // nullopt: the container never streamed

  friend bool operator==(const Index&, const Index&) = default;
};

/// Serialize to the v3 image ("PLFSIDX3", little-endian): the records, the
/// optional stream state, then a CRC32C over every byte before it.
std::vector<std::uint8_t> encode_index(const Index& index);

/// Parse an on-disk index image; every failure is kCorruptData.  v3 images
/// must pass their CRC, and an atom count without a frame span is corrupt.
/// Legacy v2 ("PLFSIDX2") and v1 ("PLFSIDX1") images still decode, with no
/// stream state or atom counts (fsck --repair rebuilds shapes): a v2 frame
/// table is bound-checked and skipped, and v1 records carry no checksum
/// (readers then skip verification for those extents).
Result<Index> decode_index(std::span<const std::uint8_t> image);

/// True for a v1 or v2 image: decoded for compatibility, never written.
bool is_legacy_index(std::span<const std::uint8_t> image);

/// Logical file size implied by an index (max extent end).
std::uint64_t logical_size(const std::vector<IndexRecord>& records);

/// True if extents tile [start, logical_size) exactly once (no holes or
/// overlap), where start is 0, or the lowest extent offset when
/// `from_first` (retention deleted the records below it).
bool is_complete(const std::vector<IndexRecord>& records, bool from_first = false);

}  // namespace ada::plfs
