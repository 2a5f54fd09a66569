// Data pre-processor: decompressor + subset splitter.
//
// The pipeline of paper Fig. 5 between "dataset arrives" and "dispatch":
// the decompressor expands the .xtc image, and the categorizer/labeler's
// LabelMap drives the split of every frame into per-tag RAW subsets.  The
// output subsets are *decompressed* -- that is ADA's central trade: spend
// storage-node CPU once at ingest so compute nodes never decompress again.
//
// Every XTC frame is a self-delimiting XDR item that decodes independently,
// so split() works in frame ranges: a cheap header-only boundary scan
// produces the frame extents, and so every tag's final image size (RAW
// frames are fixed-size), allocated once; each range then decodes its
// frames and gathers every tag's atom runs straight into those frames'
// slots of the final images, on the shared pool when the thread budget
// allows several ranges.  One range is the serial split; every thread count
// is byte-identical to it (locked down by the e2e differential harness and
// the parallel-split property test).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/tag.hpp"
#include "common/result.hpp"

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
  /// decode calls only, not the per-tag gather or the scan.  With several
  /// ranges it is the wall clock of the whole fan-out -- decode and gather
  /// on every worker -- because overlapping decodes have no serial sum.
  double decompress_wall_seconds = 0.0;
};

class DataPreProcessor {
 public:
  /// `labels` must partition [0, atom_count).
  explicit DataPreProcessor(LabelMap labels);

  const LabelMap& labels() const noexcept { return labels_; }

  /// Decompress an XTC image and split it into per-tag RAW trajectory
  /// images.  Every frame must carry exactly the label map's atom count.
  /// `threads` is the concurrency budget (ThreadPool::budget): 1 (this
  /// function's default) decodes serially on the calling thread; 0 uses
  /// every shared-pool worker plus the caller; N > 1 decodes frame ranges on
  /// at most N threads.  Each range writes its frames into their slots of
  /// the final images, decoding through scratch buffers this call allocates
  /// on the calling thread, so pool workers allocate nothing.  The output
  /// images are byte-identical for every thread count.
  Result<std::map<Tag, std::vector<std::uint8_t>>> split(
      std::span<const std::uint8_t> xtc_image, PreprocessStats* stats = nullptr,
      unsigned threads = 1) const;

 private:
  LabelMap labels_;
};

}  // namespace ada::core
