// Container verification and repair (fsck for the PLFS layer).
//
// A streaming ingest that crashes between chunk flushes, a backend that
// loses a disk, or a stray file dropped into a container directory all leave
// the container inconsistent.  verify_container() diagnoses; repair()
// restores the strongest consistent state (drops index records whose
// droppings are gone, removes orphan files, rebuilds RAW records' shapes
// from their extents' headers) without touching intact data.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "plfs/plfs.hpp"

namespace ada::plfs {

/// A record whose stored shape repair rebuilds, and the shape its extent
/// gives it (nullopt: no RAW image, so the record should store no span).
struct ShapeFinding {
  IndexRecord record;
  std::optional<FrameSpan> shape;
};

struct VerifyReport {
  /// Index records whose dropping file is missing or shorter than the
  /// record's extent.
  std::vector<IndexRecord> broken_records;

  /// Index records whose dropping bytes exist at full length but fail the
  /// stored CRC32C (silent corruption: bit flip, torn rewrite).
  std::vector<IndexRecord> checksum_bad_records;

  /// Files inside container directories that no index record references.
  /// (backend id, file name)
  std::vector<std::pair<std::uint32_t, std::string>> orphan_droppings;

  /// Streamed extents above the sealed-frame watermark: the open tail of an
  /// interrupted stream.  Possibly mid-write, so they are exempt from the
  /// broken/checksum classification; repair quarantines them and seals the
  /// stream.  The sealed prefix below the watermark is untouched.
  std::vector<IndexRecord> open_tail_records;

  /// Intact records storing another shape than their extent gives them,
  /// or a span on a non-RAW extent (range queries fail kCorruptData).
  std::vector<ShapeFinding> wrong_shapes;

  /// Intact RAW records storing no atom count: v1/v2 images and older v3
  /// ones (range queries fail kFailedPrecondition).
  std::vector<ShapeFinding> shapeless_records;

  /// Stream state present and not sealed (a live stream, or a crash before
  /// finish()).  Informational: an open stream with no other findings is
  /// consistent -- do not run repair on a container still being written.
  bool stream_open = false;

  /// True when the logical extents tile [0, size) without holes/overlap --
  /// from the first live extent once retention has raised the floor.
  bool extents_complete = false;

  bool clean() const noexcept {
    return broken_records.empty() && checksum_bad_records.empty() &&
           orphan_droppings.empty() && open_tail_records.empty() && wrong_shapes.empty() &&
           shapeless_records.empty() && extents_complete;
  }
};

/// Diagnose one container.  Fails only if the index itself is unreadable.
Result<VerifyReport> verify_container(const PlfsMount& mount, const std::string& logical_name);

struct RepairActions {
  std::size_t records_dropped = 0;
  std::size_t orphans_removed = 0;
  /// Checksum-bad droppings set aside as "<name>.quarantined" (kept on disk
  /// for forensics, never deleted or served) and dropped from the index.
  std::size_t extents_quarantined = 0;
  /// Open-tail records quarantined + dropped while sealing an interrupted
  /// stream, with the intact chunks above a damaged one (the cut).
  std::size_t tail_records_dropped = 0;
  /// Wrong and shape-less records given the shape their extent holds.
  std::size_t shapes_rebuilt = 0;
};

/// Repair in place: quarantine checksum-bad droppings, publish one index
/// image without the broken and quarantined records and with every listed
/// shape rebuilt (the upgrade path of older images), then delete orphan
/// droppings.  Data whose droppings are intact is never modified.  Extent
/// completeness is *not* restored (lost extents stay lost) -- the report
/// tells the caller what is gone.
///
/// Interrupted streams: repair also quarantines the open tail's droppings
/// and drops their records, and the same publication *seals* the stream at
/// its watermark.  A damaged chunk below the watermark cuts the stream at
/// its first frame: every chunk above the cut is quarantined with the tail
/// and the watermark drops to the cut, so each tag reads a byte-prefix of
/// the stream again.  Only run repair on streams known to be dead; sealing
/// a live stream ends it.
Result<RepairActions> repair_container(PlfsMount& mount, const std::string& logical_name);

}  // namespace ada::plfs
