// PlfsMount: a multi-backend PLFS-style mount over real host directories.
//
// This is the functional half of the I/O dispatcher substrate.  A mount owns
// N backends (paper Fig. 6: mnt1, mnt2, ...), each a directory on the host
// file system.  Creating logical file "bar" creates a "bar/" container
// directory on every backend; each write adds dropping files on the chosen
// backends, then publishes the index once.  Reads go through the ADA I/O
// retriever (ada/indexer.hpp), which resolves index records to droppings and
// reads each extent through an ExtentReader below.
//
// Data written through a mount is real bytes in real files: the correctness
// tests and examples operate on what a real deployment would store, while
// performance is modeled separately (src/pvfs, src/storage).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/result.hpp"
#include "common/retry.hpp"
#include "plfs/container.hpp"

namespace ada::plfs {

/// One backend file system of the mount.
struct Backend {
  std::string name;       // e.g. "ssd-pvfs"
  std::string host_root;  // host directory that stands in for the mount point
};

/// Fault-aware read of a whole dropping file by host path: evaluates the
/// "plfs.read_dropping" injection site (errors, latency, simulated media
/// corruption) before/after the real read.  For tooling that inspects raw
/// droppings; the I/O retriever reads only its extent (ExtentReader).
Result<std::vector<std::uint8_t>> read_dropping_file(const std::string& host_path);

/// True when [offset, offset + length) lies inside the file at `host_path`
/// (one stat, overflow-safe); false when it does not or the file is gone.
bool extent_fits(const std::string& host_path, std::uint64_t offset, std::uint64_t length);

/// One extent of a dropping, open for exact reads.  Opened once; its
/// slices (pieces) may then be read from several threads at once.
class ExtentReader {
 public:
  /// Open the dropping, fstat it and check that [offset, offset + length)
  /// lies inside the file without u64 overflow (kCorruptData if not), so a
  /// length is trusted before any buffer is sized from it.  With
  /// `fault_site`, the "plfs.read_dropping" injection site is hit once
  /// first: an error is returned, a delay is slept, and a corrupt outcome
  /// is kept for read().  The ADA I/O retriever opens with the site;
  /// plfs::verify_container without.
  static Result<ExtentReader> open(const std::string& host_path, std::uint64_t offset,
                                   std::uint64_t length, bool fault_site);

  ExtentReader(ExtentReader&& other) noexcept;
  ExtentReader& operator=(ExtentReader&&) = delete;
  ~ExtentReader();

  /// pread extent bytes [begin, begin + out.size()) into `out`.  A corrupt
  /// outcome whose byte lies in the slice flips it here, after the pread (a
  /// simulated media error the caller's checksum must catch).
  Status read(std::uint64_t begin, std::span<std::uint8_t> out) const;

  std::uint64_t length() const noexcept { return length_; }

 private:
  ExtentReader(int fd, std::string path, std::uint64_t offset, std::uint64_t length,
               fault::Outcome fault)
      : fd_(fd), path_(std::move(path)), offset_(offset), length_(length), fault_(fault) {}

  int fd_ = -1;
  std::string path_;
  std::uint64_t offset_ = 0;
  std::uint64_t length_ = 0;
  fault::Outcome fault_;
};

/// One extent of a publication (PlfsMount::append).
struct Extent {
  std::string label;
  std::uint32_t backend = 0;
  std::span<const std::uint8_t> bytes;
  std::optional<FrameSpan> span;  // the shape of a canonical RAW extent
};

/// One extent of a staged publication (PlfsMount::begin_append): its
/// `length` bytes arrive later as `pieces` writes that tile [0, length).
struct StagedExtent {
  std::string label;
  std::uint32_t backend = 0;
  std::uint64_t length = 0;
  std::size_t pieces = 1;
  std::optional<FrameSpan> span;  // the shape of a canonical RAW extent
};

class PlfsMount;

/// A publication in progress: every extent's dropping is open, its bytes
/// are written piece by piece, then commit() publishes ONE index image.
/// Destroying it uncommitted closes the droppings and leaves them as
/// unreferenced files (fsck orphans), like a crash before the publish.
class StagedAppend {
 public:
  StagedAppend(StagedAppend&&) noexcept = default;
  StagedAppend& operator=(StagedAppend&&) = delete;  // would drop open droppings
  ~StagedAppend();

  /// Checksum `bytes` and write them at `offset` of extent `extent`'s
  /// dropping as its piece number `piece`.  Pieces of one extent must tile
  /// it in piece order; each is written once.  Safe from several threads at
  /// once for distinct pieces, and allocates nothing unless it fails.  A
  /// failed write is retried under the mount's retry policy.
  Status write(std::size_t extent, std::size_t piece, std::uint64_t offset,
               std::span<const std::uint8_t> bytes);

  /// Fold each extent's piece checksums in piece order into its record's
  /// CRC32C, complete every dropping, then publish ONE index image: the
  /// records read at begin_append plus one record per extent, in order, with
  /// `stream` replacing the stream state when given.  Returns the new
  /// records.  Call once, after every piece is written.
  Result<std::vector<IndexRecord>> commit(std::optional<StreamState> stream = std::nullopt);

 private:
  friend class PlfsMount;

  /// One written piece: where it landed and its CRC32C.
  struct Piece {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    bool written = false;
  };

  /// One open dropping and what the write_dropping fault site chose for it.
  struct Dropping {
    std::string path;
    int fd = -1;
    fault::Outcome fault;  // torn or corrupt: applied at commit
    std::vector<Piece> pieces;
  };

  StagedAppend(PlfsMount* mount, std::string logical_name, Index index)
      : mount_(mount), logical_name_(std::move(logical_name)), index_(std::move(index)) {}

  PlfsMount* mount_;
  std::string logical_name_;
  Index index_;                     // the published index the records extend
  std::vector<IndexRecord> added_;  // one per extent, checksums set at commit
  std::vector<Dropping> droppings_;
};

class PlfsMount {
 public:
  /// Validate backends and create their root directories.
  static Result<PlfsMount> open(std::vector<Backend> backends);

  std::uint32_t backend_count() const noexcept {
    return static_cast<std::uint32_t>(backends_.size());
  }
  const Backend& backend(std::uint32_t id) const { return backends_.at(id); }

  /// Create an (empty) container for `logical_name` on every backend and
  /// publish its first index image, carrying `stream` for a container that
  /// will stream.  Fails with kAlreadyExists if the container is already
  /// present; any other failure removes the directories it created.
  Status create_container(const std::string& logical_name,
                          std::optional<StreamState> stream = std::nullopt);

  bool container_exists(const std::string& logical_name) const;

  /// Retry policy for dropping reads/writes (transient injected or real I/O
  /// errors).  Defaults to 4 attempts with millisecond backoff.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const noexcept { return retry_policy_; }

  /// Begin one logical write: read the published index, name each extent's
  /// dropping (on its backend, tagged with its label) and open it.  The
  /// "plfs.write_dropping" fault site is consulted once per extent per open
  /// attempt, under the retry policy: an error or a delay acts there, a torn
  /// or corrupt outcome is applied at commit (after the CRC32C is taken over
  /// the intended bytes, so a read catches it).  A failure before the
  /// publish leaves only unreferenced droppings (fsck orphans): no published
  /// record ever names a dropping that was not written.
  Result<StagedAppend> begin_append(const std::string& logical_name,
                                    const std::vector<StagedExtent>& extents);

  /// One logical write of whole buffers: begin_append with one piece per
  /// extent, each extent's bytes written as that piece, then commit.
  /// Returns the new records.  A single extent is the one-element case.
  Result<std::vector<IndexRecord>> append(const std::string& logical_name,
                                          const std::vector<Extent>& extents,
                                          std::optional<StreamState> stream = std::nullopt);

  /// The container's published index: records plus stream state.  A legacy
  /// v2 container that still holds a stream-state file is refused with
  /// kFailedPrecondition: its unsealed tail is not told apart in the index,
  /// so serving it as batch data would be wrong.
  Result<Index> read_index(const std::string& logical_name) const;

  /// Total bytes stored under `label` (0 if none).
  Result<std::uint64_t> label_size(const std::string& logical_name,
                                   const std::string& label) const;

  /// Delete the container from every backend.
  Status remove_container(const std::string& logical_name);

  /// Atomically replace container `to` with container `from` (a directory
  /// rename per backend): `from` ceases to exist, `to` carries its contents.
  /// The staging container `from` must exist; a pre-existing `to` is removed
  /// first.  Used by the overwrite ingest path to swap a fully written
  /// staging container into place.
  Status replace_container(const std::string& from, const std::string& to);

  /// Monotonic per-container mutation generation.  Bumped by every index
  /// write (create, append, rewrite/repair) and by container removal or
  /// replacement -- conservatively *before* the mutation is attempted, so a
  /// failed write can only cause a spurious cache miss, never staleness.
  /// Query-side caches (ada/query_cache.hpp) validate entries against it.
  /// Shared across copies/moves of this mount (one clock per open()).
  std::uint64_t mutation_generation(const std::string& logical_name) const;

  /// Monotonic per-container *rewrite* generation.  Unlike the mutation
  /// clock, this only advances on writes that can rewrite history --
  /// rewrite_index (repair, retention), remove_container, replace_container
  /// -- never on appends (stream flushes included) or watermark bumps.
  /// Cached frame-range blocks below a sealed watermark stay valid across
  /// chunk flushes by validating against this clock instead of the mutation
  /// clock.
  std::uint64_t rewrite_generation(const std::string& logical_name) const;

  /// Republish the current records with this stream state.  Bumps the
  /// mutation generation (watermark moves fence whole-subset cache entries)
  /// but not the rewrite generation.
  Status write_stream_state(const std::string& logical_name, const StreamState& state);

  /// Containers present (by index files on backend 0).
  Result<std::vector<std::string>> list_containers() const;

  // --- low-level accessors (fsck / tooling) ------------------------------------

  /// Host path of a dropping file.
  std::string dropping_host_path(std::uint32_t backend_id, const std::string& logical_name,
                                 const std::string& dropping) const;

  /// Dropping file names physically present in one backend's container dir
  /// (excludes the index file and "*.quarantined" files set aside by fsck).
  Result<std::vector<std::string>> list_dropping_files(std::uint32_t backend_id,
                                                       const std::string& logical_name) const;

  /// Publish `index` wholesale: repair and retention, which may rewrite
  /// history, so the rewrite generation advances too.  Normal writers go
  /// through append().
  Status rewrite_index(const std::string& logical_name, const Index& index);

 private:
  friend class StagedAppend;

  /// Per-container mutation generations, shared by every copy of the mount
  /// (fsck tooling operating on a copy still advances the same clock).
  /// Every bump takes the next stamp of one counter, and only live names
  /// keep an entry: a name with none (never written, or removed) reports
  /// the stamp of the clock's last removal, so each name's generations keep
  /// rising and a re-created name never repeats one.
  struct MutationClock {
    struct Stamps {
      std::uint64_t mutation = 0;
      std::uint64_t rewrite = 0;  // history-rewriting writes only
    };
    std::mutex mutex;
    std::uint64_t last = 0;     // the last stamp handed out
    std::uint64_t removed = 0;  // the stamp of the last removal
    std::map<std::string, Stamps> live;
  };

  explicit PlfsMount(std::vector<Backend> backends)
      : backends_(std::move(backends)), clock_(std::make_shared<MutationClock>()) {}

  std::string container_dir(std::uint32_t backend_id, const std::string& logical_name) const;
  std::string index_path(const std::string& logical_name) const;
  Status write_index(const std::string& logical_name, const Index& index) const;
  /// Stamps a mutation of `logical_name` (and, with `rewrite`, a history
  /// rewrite) from the clock's counter.
  void bump_generation(const std::string& logical_name, bool rewrite = false) const;
  /// Stamps the removal of `logical_name` and drops its entry.
  void forget_generation(const std::string& logical_name) const;
  /// The stamps `logical_name` reports; the caller holds the clock's mutex.
  MutationClock::Stamps stamps_of(const std::string& logical_name) const;

  std::vector<Backend> backends_;
  RetryPolicy retry_policy_;
  std::shared_ptr<MutationClock> clock_;
};

}  // namespace ada::plfs
