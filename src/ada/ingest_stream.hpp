// Streaming ingest: frame-at-a-time data acquisition.
//
// The paper's write path ("when the .pdb and .xtc files are sent to ADA for
// permanent storage") is batch-shaped, but a running MD application emits
// frames continuously.  IngestStream accepts decoded frames as they arrive,
// splits each into labeled subsets, and flushes a dropping per tag every
// `chunk_frames` -- so subsets become durable long before the simulation
// ends, and a crash loses at most one chunk.  Chunked subsets read back
// through the same tag queries (formats::RawTrajCatReader joins the chunks).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "ada/categorizer.hpp"
#include "ada/dispatcher.hpp"
#include "ada/tag.hpp"
#include "chem/system.hpp"
#include "common/result.hpp"
#include "formats/raw_traj.hpp"

namespace ada::core {

/// What a finished stream did.
struct StreamReport {
  std::string logical_name;
  std::uint32_t frames = 0;
  std::uint32_t chunks = 0;
  std::map<Tag, std::uint64_t> subset_bytes;
  std::uint64_t sealed_frames = 0;    // final watermark (== frames)
  std::uint64_t floor_frames = 0;     // retention floor at seal time
  std::uint64_t retention_drops = 0;  // chunks dropped by windowed retention
};

class IngestStream {
 public:
  /// Create the container and start streaming.  `labels` must partition the
  /// atom range; `chunk_frames` bounds the data lost on a crash.  Each frame
  /// is split on the calling thread.  `retain_bytes`, when non-zero, enables
  /// windowed retention: once the live sealed chunks exceed the budget, the
  /// oldest chunks are dropped (one index publication raising the floor,
  /// then the droppings' unlink) -- queries below the floor return
  /// kOutOfRange.  The newest sealed chunk is always kept.
  ///
  /// begin() creates the container with its initial (unsealed) stream
  /// state, so concurrent readers see a live stream with watermark 0 instead
  /// of a half-batch container; every chunk flush publishes the chunk's
  /// extents and the watermark advanced over them in one index image.
  static Result<IngestStream> begin(IoDispatcher& dispatcher, LabelMap labels,
                                    std::string logical_name, std::uint32_t chunk_frames = 64,
                                    std::uint64_t retain_bytes = 0);

  /// Moving transfers the container handle: the source is left *sealed*
  /// (no dispatcher, finished) so a stale add_frame()/finish() on it fails
  /// cleanly instead of double-dispatching the label file into the
  /// container.  (A defaulted move would copy `dispatcher_` and leave
  /// `finished_ == false` behind -- the raw-handle double-free hazard.)
  IngestStream(IngestStream&& other) noexcept;
  IngestStream& operator=(IngestStream&&) = delete;

  /// Append one decoded frame (atom order must match the label map).
  Status add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                   std::span<const float> coords);

  std::uint32_t frames_ingested() const noexcept { return frames_; }
  std::uint32_t chunks_flushed() const noexcept { return chunks_; }

  /// Published sealed-frame watermark (frames below it are readable now).
  std::uint64_t sealed_frames() const noexcept { return state_.sealed_frames; }
  /// Retention floor (frames below it have been dropped).
  std::uint64_t floor_frames() const noexcept { return state_.floor_frames; }

  /// Flush the partial chunk, persist the label file, and seal the stream.
  /// No further add_frame calls are allowed afterwards.
  Result<StreamReport> finish();

 private:
  IngestStream(IoDispatcher& dispatcher, LabelMap labels, std::string logical_name,
               std::uint32_t chunk_frames, std::uint64_t retain_bytes);

  /// One sealed chunk still live (not yet dropped by retention).
  struct ChunkInfo {
    std::uint64_t first_frame = 0;
    std::uint32_t frames = 0;
    std::uint64_t bytes = 0;  // summed across tags
  };

  void reset_writers();
  Status flush_chunk();
  Status apply_retention();

  IoDispatcher* dispatcher_;
  LabelMap labels_;
  std::string logical_name_;
  std::uint32_t chunk_frames_;
  std::uint64_t retain_bytes_ = 0;
  std::map<Tag, formats::RawTrajWriter> writers_;
  std::uint32_t frames_in_chunk_ = 0;
  std::uint32_t frames_ = 0;
  std::uint32_t chunks_ = 0;
  std::map<Tag, std::uint64_t> subset_bytes_;
  plfs::StreamState state_;
  std::deque<ChunkInfo> live_chunks_;
  std::uint64_t live_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace ada::core
