// Ada: the middleware facade -- the paper's primary contribution, assembled.
//
// Sits between the application (VMD) and the underlying file systems:
//
//   ingest (write path):  should_intercept -> categorize (.pdb) -> label ->
//                          decompress + split (.xtc) -> dispatch to backends
//   query  (read path):   indexer (tag -> dropping paths) -> retriever ->
//                          decompressed subset, ready to render
//
// Everything here operates on real bytes through the PLFS mount; timing
// belongs to the platform simulator.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/dispatcher.hpp"
#include "ada/indexer.hpp"
#include "ada/ingest_stream.hpp"
#include "ada/preprocessor.hpp"
#include "ada/query_cache.hpp"
#include "ada/tag.hpp"
#include "chem/system.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "plfs/plfs.hpp"

namespace ada::core {

/// Middleware configuration.
struct AdaConfig {
  /// Applications whose files ADA traps (paper Section 3.4: "ADA checks if a
  /// file to be written is generated by a target application").
  std::vector<std::string> target_apps = {"vmd"};

  /// File extensions ADA understands; others pass through untouched.
  std::vector<std::string> target_extensions = {".xtc", ".pdb"};

  /// Tag -> backend routing for the dispatcher.
  PlacementPolicy placement;

  /// Keep the original compressed image in the container (provenance).
  bool keep_original = false;

  /// The one concurrency budget for every pool fan-out this middleware
  /// starts: an ingest's frame-range decode, ingest_batch's phases, a
  /// query's piece reads (docs/performance.md, "Piece-parallel extent
  /// reads") and the VFS shim's per-tag reads.  0 (the default) runs on
  /// every shared-pool worker plus the caller; 1 is the inline serial run
  /// (the paper's serial storage-node decode, reads in logical order); N > 1
  /// caps it at N threads.  Stored bytes, answers and errors never differ.
  /// Nested fan-outs draw from the same persistent pool, so the budget
  /// composes instead of multiplying threads.  Streaming ingest splits each
  /// frame on the producer's thread whatever the budget.
  unsigned threads = 0;

  /// Byte budget of the query-side subset cache (ada/query_cache.hpp).
  /// 0 (the default) disables caching entirely: every query re-reads and
  /// re-verifies its extents, byte-identical to the pre-cache read path.
  std::uint64_t cache_bytes = 0;

  /// Allow ingest of a `logical_name` that already exists: the replacement
  /// is staged in a temporary container and swapped in atomically, and any
  /// cached subsets of the old dataset are invalidated.  When false (the
  /// default) such an ingest fails with kAlreadyExists instead of piling
  /// duplicate subsets onto the live container.
  bool overwrite = false;

  /// No effect: every RAW subset's index record stores its shape (frame
  /// span and atom count).  Kept declared for callers that still set it.
  bool frame_tables = true;

  /// Windowed retention budget for streaming ingest (0 = keep everything).
  /// When the live sealed chunks of a stream exceed this many bytes, the
  /// oldest chunks are dropped and the retention floor rises; queries below
  /// the floor return kOutOfRange.  Batch ingest ignores it.
  std::uint64_t retain_bytes = 0;
};

/// Frame selection for range queries: logical frames `begin`,
/// `begin + stride`, ... in [begin, min(end, frame_count)).  The default
/// selects every frame; an empty or off-the-end range yields a valid RAW
/// image with zero frames.
struct FrameRange {
  std::uint32_t begin = 0;
  std::uint32_t end = std::numeric_limits<std::uint32_t>::max();  // exclusive
  std::uint32_t stride = 1;
};

/// What ingest() did (sizes feed the performance model and the benches).
struct IngestReport {
  std::string logical_name;
  PreprocessStats preprocess;
  std::map<Tag, std::uint32_t> backend_of_tag;  // where each subset landed
};

class Ada {
 public:
  Ada(plfs::PlfsMount mount, AdaConfig config);

  /// Write-path trap decision.
  bool should_intercept(const std::string& path, const std::string& app_id) const;

  /// Full ingest of a (.pdb, .xtc) pair under `logical_name`, using the
  /// protein/MISC categorization the paper deploys for GPCR.
  Result<IngestReport> ingest(const chem::System& structure,
                              std::span<const std::uint8_t> xtc_image,
                              const std::string& logical_name);

  /// Ingest with a caller-provided label map (fine-grained tags or a
  /// config-schema categorization).
  Result<IngestReport> ingest_with_labels(const LabelMap& labels,
                                          std::span<const std::uint8_t> xtc_image,
                                          const std::string& logical_name);

  /// Streaming ingest: frames arrive one at a time (running simulations);
  /// see ada/ingest_stream.hpp for durability semantics.
  Result<IngestStream> begin_stream(const LabelMap& labels, const std::string& logical_name,
                                    std::uint32_t chunk_frames = 64);

  /// One trajectory phase of a batch ingest.
  struct Phase {
    std::string logical_name;
    std::span<const std::uint8_t> xtc_image;
  };

  /// Ingest several trajectory phases guided by one structure (paper
  /// Section 2.1: "one .pdb file can guide multiple .xtc files, which
  /// represent different atom motion phases").  Phases are pre-processed in
  /// parallel on the shared thread pool; results are in input order.  Fails
  /// fast on duplicate names; per-phase failures are reported per phase.
  /// The phases run under AdaConfig::threads.
  std::vector<Result<IngestReport>> ingest_batch(const chem::System& structure,
                                                 const std::vector<Phase>& phases);

  /// Read-path query: the decompressed RAW subset image for `tag`
  /// ($ mol addfile /mnt/bar.xtc tag p).
  Result<std::vector<std::uint8_t>> query(const std::string& logical_name, const Tag& tag) const;

  /// query(), but returning the refcounted cache image instead of a copy:
  /// N concurrent holders of the same subset share one allocation (the
  /// serve layer's coalescing path).  Byte-identical to query(); with the
  /// cache disabled the freshly read bytes are wrapped without copying.
  Result<QueryCache::Image> query_image(const std::string& logical_name, const Tag& tag) const;

  /// Frame-range query: a canonical single-segment RAW image holding exactly
  /// the frames `range` selects, byte-identical to slicing those frames out
  /// of the full-subset query, planned from the shape (frame span and atom
  /// count) each extent's record stores: the read touches only the extents
  /// the selection needs (none for an empty one) and caches fetched frame
  /// blocks (when the cache is armed).  A shape that contradicts itself, its
  /// neighbours or its extent's header is kCorruptData; records that store
  /// none (older images) are kFailedPrecondition until `ada-inspect --repair`.
  Result<std::vector<std::uint8_t>> query(const std::string& logical_name, const Tag& tag,
                                          const FrameRange& range) const;

  /// One batch of newly sealed frames returned by query_tail().
  struct TailChunk {
    std::uint64_t from_frame = 0;     // global index of the first frame served
    std::uint64_t frames = 0;         // frames in `image` (0 = nothing new yet)
    bool sealed = false;              // stream finished: no more data will come
    std::vector<std::uint8_t> image;  // canonical RAW image (empty iff frames == 0)
  };

  /// Tail query for live streams: the frames sealed since `from_frame`
  /// ([from_frame, watermark)), plus whether the stream has sealed.  Callers
  /// poll until `sealed && frames == 0`.  On a batch container (no stream
  /// state) everything is already sealed: one chunk with the remaining
  /// frames, `sealed` true.  `from_frame` below the retention floor is
  /// kOutOfRange; a stream with no sealed frames yet returns an empty chunk.
  Result<TailChunk> query_tail(const std::string& logical_name, const Tag& tag,
                               std::uint64_t from_frame) const;

  /// The container's live-stream state, read from its index: nullopt for
  /// batch containers, kCorruptData if the index image is torn.
  Result<std::optional<plfs::StreamState>> stream_progress(const std::string& logical_name) const;

  /// One tag that could not be served in a degraded query.
  struct TagFailure {
    Tag tag;
    Error error;
  };

  /// Degraded-query result: the subsets that survived plus a typed failure
  /// per lost tag.  Callers MUST consult `failed` (or partial()) before
  /// treating the data as complete -- a partial result is always flagged,
  /// never silently truncated.
  struct PartialQuery {
    std::map<Tag, std::vector<std::uint8_t>> subsets;  // surviving tags, in tag order
    std::vector<TagFailure> failed;

    bool partial() const noexcept { return !failed.empty(); }

    /// Surviving bytes concatenated in tag order (the degraded analogue of
    /// the VFS whole-dataset read).
    std::vector<std::uint8_t> concat() const;
  };

  /// Query every tag of a dataset, returning the survivors when some tags
  /// are unreadable after retries (a down backend, a quarantined extent).
  /// Fails outright only when the tag list itself cannot be resolved.
  Result<PartialQuery> query_degraded(const std::string& logical_name) const;

  /// The label map persisted at ingest.
  Result<LabelMap> labels(const std::string& logical_name) const;

  /// Tags available in a container.
  Result<std::vector<Tag>> tags(const std::string& logical_name) const;

  /// Subset size in bytes without fetching it (indexer only).
  Result<std::uint64_t> subset_bytes(const std::string& logical_name, const Tag& tag) const;

  bool has_dataset(const std::string& logical_name) const {
    return mount_.container_exists(logical_name);
  }

  plfs::PlfsMount& mount() noexcept { return mount_; }
  const AdaConfig& config() const noexcept { return config_; }

  /// The query-side subset cache, or null when AdaConfig::cache_bytes == 0.
  const QueryCache* query_cache() const noexcept { return cache_.get(); }

 private:
  /// Full ingest of a labeled image into container `container_name` (the
  /// dataset itself, or the staging container of an overwrite).
  Result<IngestReport> ingest_into(const LabelMap& labels,
                                   std::span<const std::uint8_t> xtc_image,
                                   const std::string& container_name);

  /// query.bytes_out accounting (total + per-tag cached counter handles).
  void count_query_bytes(const Tag& tag, std::size_t bytes) const;

  /// A whole subset as read_subset() produced it: the shared cache image
  /// when the cache holds it, else the freshly read bytes, owned -- so an
  /// uncached query() hands them back without a copy.
  struct Subset {
    QueryCache::Image shared;
    std::vector<std::uint8_t> owned;

    std::span<const std::uint8_t> bytes() const {
      return shared != nullptr ? std::span<const std::uint8_t>(*shared) : owned;
    }
  };

  /// The mutation generation whole-subset cache entries are fenced by (0
  /// with the cache off).  Read before any index walk or extent read.
  std::uint64_t subset_generation(const std::string& logical_name) const {
    return cache_ != nullptr ? mount_.mutation_generation(logical_name) : 0;
  }

  /// The one whole-subset read behind query(), query_image() and labels():
  /// reserved-tag check, generation before the index walk, single-flight
  /// cache lookup, then (on a miss) walk, fetch, insert.  `reserved_ok`
  /// admits the label file (labels()); user queries of a reserved tag are
  /// rejected.
  Result<Subset> read_subset(const std::string& logical_name, const Tag& tag,
                             bool reserved_ok = false) const;

  /// One index image and the frame-block fence (rewrite generation) read first.
  struct IndexSnapshot {
    std::uint64_t block_generation = 0;
    plfs::Index index;
  };
  Result<IndexSnapshot> snapshot_index(const std::string& logical_name) const;

  /// A range answer and the frames it holds.
  struct RangeImage {
    std::vector<std::uint8_t> image;
    std::uint64_t frames = 0;
  };

  /// The frame-range engine behind query(range) and query_tail(), planned
  /// from `snapshot` (nullopt: read here).  With `empty_header` an empty
  /// selection answers a header-only image; without it, an empty image.
  Result<RangeImage> query_range(const std::string& logical_name, const Tag& tag,
                                 const FrameRange& range, std::optional<IndexSnapshot> snapshot,
                                 bool empty_header) const;

  plfs::PlfsMount mount_;
  AdaConfig config_;
  IoDispatcher dispatcher_;
  mutable std::unique_ptr<QueryCache> cache_;  // lookups mutate LRU order
  // Trap lists normalized to upper case once at construction;
  // should_intercept sits on the write path of every file operation.
  std::vector<std::string> target_apps_upper_;
  std::vector<std::string> target_extensions_upper_;
  // Per-tag query.bytes_out counter handles, resolved once per tag instead
  // of building a registry key string per query.
  mutable std::mutex query_counter_mutex_;
  mutable std::map<Tag, obs::Counter*> query_bytes_counters_;
};

}  // namespace ada::core
