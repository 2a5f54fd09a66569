// Query-side subset cache: the memory tier of the read path.
//
// Visualization workloads re-request the same tagged subsets across
// animation replays (paper Section 3.5: the repeated decompress-and-filter
// VMD otherwise pays per replay).  QueryCache sits between Ada::query() and
// the I/O retriever and keeps recently served, CRC-verified subset images in
// memory under a byte budget, so a repeated-tag workload turns O(extents)
// disk reads per query into one memory hit.
//
// Design:
//   * Shard-locked LRU.  Entries are keyed by (logical_name, tag) and live
//     in one of N shards chosen by hashing the logical name, so concurrent
//     queries of different datasets never contend and invalidation of one
//     dataset scans exactly one shard.  Each shard owns budget/N bytes.
//   * Refcounted entries.  A hit hands out a shared_ptr to immutable
//     bytes; eviction merely drops the cache's reference, so an in-flight
//     reader is never invalidated mid-copy -- there is no entry lock to
//     hold across the copy-out.
//   * Safe invalidation.  Every entry records the container's mutation
//     generation (plfs::PlfsMount::mutation_generation) observed *before*
//     the backing read.  A lookup whose caller observes a newer generation
//     treats the entry as stale, drops it, and reports a miss -- so every
//     write-path mutation (re-ingest/overwrite, ingest_batch, IngestStream
//     chunk flushes and seal, `plfs fsck --repair`) invalidates without the
//     mutator knowing the cache exists.  explicit invalidate() is layered
//     on top for same-object overwrite.
//   * Verified fills only.  The cache never performs I/O; Ada inserts only
//     results that passed the retriever's per-extent CRC32C verification,
//     so an injected fault can fail a query but never poison the cache.
//   * Single-flight fills.  lookup_or_fill() hands exactly one caller per
//     (key, generation) a leadership claim; concurrent cold misses wait for
//     the leader's insert and share its image instead of each paying a
//     duplicate backend read (the duplicate_fills counter watches for
//     anything that still races around this).
//
// Observability: cache.hits / cache.misses / cache.evictions counters and a
// cache.bytes gauge (docs/observability.md); internal stats are kept
// unconditionally so benches work with metrics off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ada/tag.hpp"

namespace ada::core {

class QueryCache {
 public:
  /// Immutable cached subset image.  Holders keep the bytes alive across
  /// eviction; the pointed-to vector is never mutated after insert.
  using Image = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Point-in-time usage numbers (hits/misses/evictions are cumulative).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    /// Inserts that found a live entry for the same key and generation
    /// already present: each one means a concurrent cold miss paid a full
    /// CRC-verified backend read whose bytes were already in memory.
    /// lookup_or_fill() keeps this at zero; a nonzero count means some
    /// path inserted around the single flight.
    std::uint64_t duplicate_fills = 0;
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
  };

  /// `budget_bytes` bounds the cached payload bytes across all shards
  /// (keys and bookkeeping are not counted).  A zero budget caches nothing.
  explicit QueryCache(std::uint64_t budget_bytes, std::size_t shard_count = 8);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

 private:
  struct Shard;
  /// One in-flight backend fill that concurrent misses wait on instead of
  /// each paying their own read (the duplicate-fill race).
  struct Fill {
    std::uint64_t generation = 0;
    bool resolved = false;
    std::condition_variable cv;
  };

 public:
  /// RAII leadership claim on one in-flight fill (see lookup_or_fill).
  /// Destruction -- or reset() right after the insert -- resolves the
  /// claim: waiters wake, re-check the cache, and hit on the leader's
  /// inserted image (or elect the next leader if the read failed).
  class FillGuard {
   public:
    FillGuard() = default;
    FillGuard(FillGuard&& other) noexcept { *this = std::move(other); }
    FillGuard& operator=(FillGuard&& other) noexcept {
      if (this != &other) {
        reset();
        cache_ = other.cache_;
        shard_ = other.shard_;
        key_ = std::move(other.key_);
        fill_ = std::move(other.fill_);
        other.cache_ = nullptr;
        other.shard_ = nullptr;
        other.fill_ = nullptr;
      }
      return *this;
    }
    FillGuard(const FillGuard&) = delete;
    FillGuard& operator=(const FillGuard&) = delete;
    ~FillGuard() { reset(); }

    /// Holding a claim means the caller is the unique leader for its key.
    explicit operator bool() const noexcept { return fill_ != nullptr; }

    /// Resolve the claim now instead of at scope exit.
    void reset();

   private:
    friend class QueryCache;
    FillGuard(QueryCache* cache, Shard* shard, std::string key, std::shared_ptr<Fill> fill)
        : cache_(cache), shard_(shard), key_(std::move(key)), fill_(std::move(fill)) {}

    QueryCache* cache_ = nullptr;
    Shard* shard_ = nullptr;
    std::string key_;
    std::shared_ptr<Fill> fill_;
  };

  /// Single-flight lookup of the cached image for (logical_name, tag).
  /// `generation` is the container's current mutation generation as
  /// observed by the caller; an entry recorded under an older generation is
  /// stale -- it is dropped and the lookup misses.  A hit returns the image,
  /// possibly after blocking until a concurrent fill of the same
  /// (key, generation) lands.
  /// A true miss arms `*guard`: the caller is the unique leader expected to
  /// read the bytes and insert() them; every concurrent caller of the same
  /// key+generation waits on the guard instead of duplicating the backend
  /// read.  A leader whose read fails just drops the guard -- the first
  /// waiter is elected the new leader and retries.  A caller observing a
  /// newer generation never waits on a stale flight: it displaces the
  /// directory slot and fills independently.
  Image lookup_or_fill(const std::string& logical_name, const Tag& tag,
                       std::uint64_t generation, FillGuard* guard);

  /// Insert a verified subset image recorded under `generation` (observed
  /// BEFORE the backing read, so a write racing the read leaves the entry
  /// detectably stale).  Oversized images (> one shard's budget) are not
  /// cached; least-recently-used entries are evicted until the image fits.
  /// Returns the refcounted image now (or still) cached under the key --
  /// callers that serve the response from the return value share one
  /// allocation with every other holder.  If a live entry with the same
  /// generation is already present, the bytes just read were redundant:
  /// the existing image is kept, returned, and counted as a duplicate fill.
  Image insert(const std::string& logical_name, const Tag& tag, std::uint64_t generation,
               std::vector<std::uint8_t> bytes);

  /// Drop every entry of one dataset (all tags).
  void invalidate(const std::string& logical_name);

  /// Drop everything.
  void clear();

  std::uint64_t budget_bytes() const noexcept { return budget_; }
  Stats stats() const;

 private:
  struct Entry {
    std::string key;  // logical_name + '\0' + tag
    std::string logical_name;
    std::uint64_t generation = 0;
    Image image;
  };

  /// One lock domain: LRU list (front = most recent) + key directory +
  /// the in-flight fill directory.
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;
    std::map<std::string, std::list<Entry>::iterator> by_key;
    std::map<std::string, std::shared_ptr<Fill>> fills;
    std::uint64_t bytes = 0;
  };

  Shard& shard_of(const std::string& logical_name);
  /// Hit-or-stale-drop under the shard lock.  Sets `*stale_drop` when an
  /// older-generation entry was evicted.
  Image locked_lookup(Shard& shard, const std::string& key, std::uint64_t generation,
                      bool* stale_drop);
  /// Remove `fill` from the shard's flight directory (if still registered)
  /// and wake its waiters.
  void resolve_fill(Shard& shard, const std::string& key, const std::shared_ptr<Fill>& fill);
  /// Drop LRU entries until `needed` more bytes fit in `shard`.  Caller
  /// holds the shard mutex.
  void evict_for(Shard& shard, std::uint64_t needed);
  /// Publish the current payload size to the cache.bytes gauge.
  void publish_bytes() const;

  std::uint64_t budget_;
  std::uint64_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cumulative stats, kept even with obs disabled (the bench reads them).
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> invalidations_{0};
  mutable std::atomic<std::uint64_t> duplicate_fills_{0};
};

}  // namespace ada::core
