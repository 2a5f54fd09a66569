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

/// Scatter-gather retrieval knobs (docs/performance.md, "Scatter-gather
/// retrieval").  Every thread count runs the same fetch engine; the defaults
/// are its one-thread run.
struct RetrieveOptions {
  /// Extent reads in flight per fetch.  0 and 1 both mean one: the engine
  /// runs inline on the caller, extent by extent in logical order.  N > 1
  /// fans per-extent read+verify tasks onto the shared thread pool so
  /// transfer of one extent overlaps verification/decode of another.
  unsigned threads = 0;

  /// Per-backend admission window when reads fan out: at most this many
  /// extent reads in flight against any one backend (0 = unbounded).  Keeps
  /// a wide fan-out from swamping a single server while other backends idle.
  unsigned queue_depth = 4;
};

class IoRetriever {
 public:
  explicit IoRetriever(const plfs::PlfsMount& mount, RetrieveOptions options = {})
      : mount_(mount), options_(options) {}

  /// Fetch already-located extents (Indexer::locate) as the subset image of
  /// a tag: every extent lands in its slot of one preallocated image, in
  /// location order.  A one-extent subset's buffer is the image.
  Result<std::vector<std::uint8_t>> retrieve(std::span<const DatasetLocation> locations) const;

  /// Fetch located extents as separate images, in location order.
  Result<std::vector<std::vector<std::uint8_t>>> retrieve_extents(
      std::span<const DatasetLocation> locations) const;

  /// Fetch one located extent's bytes: an exact-extent read of its dropping
  /// (plfs::read_dropping_extent: bounds-checked before anything is
  /// allocated), retried under the mount's retry policy and verified in
  /// place against the stored CRC32C -- a mismatch is a typed kCorruptData
  /// error, never silently served bytes.
  Result<std::vector<std::uint8_t>> retrieve_extent(const DatasetLocation& location) const;

  const RetrieveOptions& options() const noexcept { return options_; }

 private:
  /// The one fetch loop behind every read above: read(i) fetches
  /// locations[i]; options().threads reads in flight (one = inline, in
  /// order), and the first failure in location order is the error -- the
  /// one a serial loop would stop on.
  Status fetch(std::span<const DatasetLocation> locations,
               const std::function<Status(std::size_t)>& read) const;

  /// retrieve_extent into the buffer `sink` hands out.
  Status read_verified(const DatasetLocation& location, const plfs::ExtentSink& sink) const;

  const plfs::PlfsMount& mount_;
  RetrieveOptions options_;
};

}  // namespace ada::core
