// Data pre-processor: decompressor + subset splitter.
//
// The pipeline of paper Fig. 5 between "dataset arrives" and "dispatch":
// the decompressor expands the .xtc image, and the categorizer/labeler's
// LabelMap drives the split of every frame into per-tag RAW subsets.  The
// output subsets are *decompressed* -- that is ADA's central trade: spend
// storage-node CPU once at ingest so compute nodes never decompress again.
//
// Every XTC frame is a self-delimiting XDR item that decodes independently,
// so the decode engine works in frame ranges: a cheap header-only boundary
// scan produces the frame extents (and so every tag's RAW size: RAW frames
// are fixed-size); each range then decodes its frames, on the shared pool
// when the thread budget allows several ranges.  A FrameSink lends the
// decoder each frame's per-tag RAW records, and a v1 frame decodes
// straight into them: the scatter plan, built once per decode from the
// label map, routes every atom run to its tag's record.  The sink then
// writes the record headers and takes the records on the worker that
// decoded them.  split() is the in-memory sink: its records are the
// frame's slots of the final images.  The batch ingest's sink lends a
// per-slot staging buffer and checksums and writes the records into the
// tags' droppings (ada/dispatcher.hpp).  One range is the serial decode;
// every thread count is byte-identical to it (locked down by the e2e
// differential harness and the parallel-split property test).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/tag.hpp"
#include "common/result.hpp"
#include "formats/xtc_file.hpp"

namespace ada::core {

/// Measured facts about one ingest (functional plane).
struct PreprocessStats {
  std::uint32_t frames = 0;
  std::uint32_t atoms = 0;
  std::uint64_t compressed_bytes = 0;            // input .xtc image size
  std::map<Tag, std::uint64_t> subset_bytes;     // output RAW subset sizes
  std::map<Tag, std::uint64_t> subset_atoms;     // atoms per subset
  /// Wall time of the decode.  With one frame range (threads = 1, or a
  /// stream with no second entry point) it is the time inside the XTC
  /// decode calls, which fill the records (the scatter, or a scratch
  /// frame's gather), only: not the sink's work or the scan.  With several
  /// ranges it is the wall clock of the whole fan-out -- decode and sink
  /// (headers; in a batch ingest also checksum and write) on every worker
  /// -- because overlapping decodes have no serial sum.
  double decompress_wall_seconds = 0.0;
};

/// Where the decode engine delivers frames (DataPreProcessor::decode).
class FrameSink {
 public:
  virtual ~FrameSink() = default;

  /// Called once on the calling thread, after the scan and before any
  /// frame: `frames` frames will arrive from at most `slots` concurrent
  /// ranges.  Size per-slot buffers here, so records() and frame()
  /// allocate nothing.
  virtual Status open(std::uint32_t frames, std::size_t slots) = 0;

  /// The records frame `frame` decodes into on slot `slot` (< slots): one
  /// per label group, in the label map's order, each
  /// formats::raw_frame_bytes(group atoms) bytes.  The decoder fills every
  /// record's coordinates, then calls frame() for the same frame and slot.
  virtual std::span<std::uint8_t* const> records(std::size_t slot, std::uint32_t frame) = 0;

  /// Frame number `frame`'s coordinates are in records(slot, frame): write
  /// each record's header from `stamp` and take the records.  Calls for one
  /// slot never overlap; each frame arrives once, on whichever thread
  /// decoded it.  An error stops the decode.
  virtual Status frame(std::size_t slot, std::uint32_t frame,
                       const formats::FrameStamp& stamp) = 0;
};

class DataPreProcessor {
 public:
  /// `labels` must partition [0, atom_count).
  explicit DataPreProcessor(LabelMap labels);

  const LabelMap& labels() const noexcept { return labels_; }

  /// The decode engine: scan an XTC image, then decode every frame into
  /// `sink`.  Every frame must carry exactly the label map's atom count.
  /// `threads` is the concurrency budget (ThreadPool::budget): 1 (the
  /// default) decodes serially on the calling thread; 0 uses every
  /// shared-pool worker plus the caller; N > 1 decodes frame ranges on at
  /// most N threads.  A v1 image decodes straight into the sink's records;
  /// an image with any v2 frame (whose predicted frames need the grid
  /// context), or any image on a big-endian host, decodes each frame into
  /// a scratch frame and gathers it into the records.  Readers and scratch
  /// are allocated on the calling thread after sink.open(), so pool workers
  /// allocate nothing.  The first failure in frame order is returned.
  Status decode(std::span<const std::uint8_t> xtc_image, FrameSink& sink,
                PreprocessStats* stats = nullptr, unsigned threads = 1) const;

  /// Decompress an XTC image and split it into per-tag RAW trajectory
  /// images: decode() into a sink that sizes every tag's final image once
  /// and lends each frame's slots of them as its records.  The output
  /// images are byte-identical for every thread count.
  Result<std::map<Tag, std::vector<std::uint8_t>>> split(
      std::span<const std::uint8_t> xtc_image, PreprocessStats* stats = nullptr,
      unsigned threads = 1) const;

 private:
  LabelMap labels_;
};

}  // namespace ada::core
