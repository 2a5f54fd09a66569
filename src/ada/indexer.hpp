// Indexer + I/O retriever: the read half of the I/O determinator.
//
// "When users send data queries for certain groups of datasets, the indexer
//  uses tags from the queries to look for paths of datasets on the
//  underlying file systems and passes them to the I/O retriever.  The I/O
//  retriever then raises I/O requests ... and obtains the requested data."
//  (paper Section 3.2)
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ada/tag.hpp"
#include "common/result.hpp"
#include "plfs/plfs.hpp"

namespace ada::core {

/// The indexer's answer: where a tagged subset lives.
struct DatasetLocation {
  std::uint32_t backend = 0;
  std::string backend_name;
  std::string host_path;   // resolvable host path of the dropping
  std::uint64_t bytes = 0;
  std::uint64_t physical_offset = 0;  // extent offset inside the dropping
  std::uint32_t crc32c = 0;           // stored extent checksum
  bool has_crc = false;               // false for legacy v1 index records
  /// The extent's stored shape (valid iff `atom_count`, which a record only
  /// stores beside its span): global frames [frame_base, frame_base +
  /// frame_count) of `atom_count` atoms each, the index-side half of
  /// frame-range addressing.  locate() has already clamped the location
  /// list to the sealed-frame watermark.
  std::uint64_t frame_base = 0;
  std::uint32_t frame_count = 0;
  std::optional<std::uint32_t> atom_count;
};

class Indexer {
 public:
  explicit Indexer(const plfs::PlfsMount& mount) : mount_(mount) {}

  /// Locations of every dropping carrying `tag` in logical order.
  Result<std::vector<DatasetLocation>> locate(const std::string& logical_name,
                                              const Tag& tag) const;

  /// locate() over an index image the caller read.
  Result<std::vector<DatasetLocation>> locate(plfs::Index index, const std::string& logical_name,
                                              const Tag& tag) const;

  /// All user tags present in a container (reserved labels filtered out).
  Result<std::vector<Tag>> tags(const std::string& logical_name) const;

 private:
  const plfs::PlfsMount& mount_;
};

class IoRetriever {
 public:
  /// Bytes per piece, the unit a fetch spreads over the pool: each piece is
  /// one pread straight into its slice of the answer and one CRC32C of it
  /// while the bytes are in cache (docs/performance.md, "Piece-parallel
  /// extent reads").
  static constexpr std::uint64_t kPieceBytes = 512 * 1024;

  /// Per-backend admission window when pieces fan out: at most this many
  /// piece reads in flight against any one backend, so a wide fan-out does
  /// not swamp one server while other backends idle.
  static constexpr unsigned kBackendDepth = 4;

  /// `threads` is the fetch's budget, the rule of AdaConfig::threads: 0
  /// follows the shared pool, 1 is the inline serial run in logical order,
  /// N caps the pieces in flight.  Every budget returns the same bytes and
  /// errors.
  explicit IoRetriever(const plfs::PlfsMount& mount, unsigned threads = 0)
      : mount_(mount), threads_(threads) {}

  /// Fetch already-located extents (Indexer::locate) as the subset image of
  /// a tag: every extent lands in its slot of one preallocated image, in
  /// location order.  A one-extent subset's buffer is the image.
  Result<std::vector<std::uint8_t>> retrieve(std::span<const DatasetLocation> locations) const;

  /// Fetch located extents as separate images, in location order.
  Result<std::vector<std::vector<std::uint8_t>>> retrieve_extents(
      std::span<const DatasetLocation> locations) const;

  /// Fetch one located extent's bytes: an exact-extent read of its dropping
  /// (plfs::ExtentReader: bounds-checked before anything is allocated),
  /// retried under the mount's retry policy and verified against the stored
  /// CRC32C -- a mismatch is a typed kCorruptData error, never silently
  /// served bytes.
  Result<std::vector<std::uint8_t>> retrieve_extent(const DatasetLocation& location) const;

 private:
  /// Hands out the buffer extent i lands in (after its bounds check).
  using Buffers = std::function<std::span<std::uint8_t>(std::size_t)>;

  /// The one fetch engine behind every read above: locations[i] lands in
  /// buffer(i).  Each extent is opened once, its pieces are read and
  /// checksummed with the budget's pieces in flight, and the piece checksums
  /// fold in piece order into the extent's CRC32C.  The first failure in
  /// location order is the error -- the one a serial loop would stop on.
  Status fetch(std::span<const DatasetLocation> locations, const Buffers& buffer) const;

  /// One attempt of fetch() at the extents from *done on, advancing *done
  /// past every extent it read and verified.
  Status fetch_round(std::span<const DatasetLocation> locations, const Buffers& buffer,
                     std::size_t* done) const;

  const plfs::PlfsMount& mount_;
  unsigned threads_;
};

}  // namespace ada::core
