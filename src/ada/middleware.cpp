#include "ada/middleware.hpp"

#include <algorithm>
#include <numeric>

#include "ada/label_store.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "formats/raw_traj.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/warn.hpp"

namespace ada::core {

Ada::Ada(plfs::PlfsMount mount, AdaConfig config)
    : mount_(std::move(mount)),
      config_(std::move(config)),
      dispatcher_(mount_, config_.placement) {
  target_apps_upper_.reserve(config_.target_apps.size());
  for (const std::string& app : config_.target_apps) target_apps_upper_.push_back(to_upper(app));
  target_extensions_upper_.reserve(config_.target_extensions.size());
  for (const std::string& extension : config_.target_extensions) {
    target_extensions_upper_.push_back(to_upper(extension));
  }
  if (config_.cache_bytes != 0) cache_ = std::make_unique<QueryCache>(config_.cache_bytes);
}

bool Ada::should_intercept(const std::string& path, const std::string& app_id) const {
  const std::string app = to_upper(app_id);
  if (std::find(target_apps_upper_.begin(), target_apps_upper_.end(), app) ==
      target_apps_upper_.end()) {
    return false;
  }
  // Extension of the basename only: "/runs.2026/traj" has none, and the dot
  // in the directory component must never be parsed as one.
  const std::string extension = to_upper(path_extension(path));
  if (extension.empty()) return false;
  return std::find(target_extensions_upper_.begin(), target_extensions_upper_.end(), extension) !=
         target_extensions_upper_.end();
}

Result<IngestReport> Ada::ingest(const chem::System& structure,
                                 std::span<const std::uint8_t> xtc_image,
                                 const std::string& logical_name) {
  return ingest_with_labels(categorize_protein_misc(structure), xtc_image, logical_name);
}

Result<IngestReport> Ada::ingest_with_labels(const LabelMap& labels,
                                             std::span<const std::uint8_t> xtc_image,
                                             const std::string& logical_name) {
  const obs::Span span("ingest", logical_name);
  ADA_OBS_COUNT("ingest.calls", 1);
  ADA_OBS_COUNT("ingest.bytes_in", xtc_image.size());
  obs::trace_counter("ingest.bytes_in", xtc_image.size());
  if (!labels.is_partition()) {
    return invalid_argument("label map does not partition the atom range");
  }

  // Re-ingesting a live dataset must never append duplicate subsets (and a
  // second label file) onto its container.  Without overwrite, fail up front
  // -- before any decompression work; with it, stage the replacement in a
  // sibling container and swap it in atomically once fully written, so
  // concurrent queries see the old dataset or the new one, never a mix.
  std::string target = logical_name;
  const bool replacing = mount_.container_exists(logical_name);
  if (replacing) {
    if (!config_.overwrite) {
      return already_exists("dataset " + logical_name +
                            " already exists (set AdaConfig::overwrite to replace it)");
    }
    target = logical_name + ".overwrite.tmp";
    if (mount_.container_exists(target)) {
      ADA_RETURN_IF_ERROR(mount_.remove_container(target));  // crash leftover
    }
  }

  auto result = ingest_into(labels, xtc_image, target);
  if (replacing) {
    if (!result.is_ok()) {
      if (mount_.container_exists(target)) (void)mount_.remove_container(target);
      return result;
    }
    result.value().logical_name = logical_name;  // the dataset, not the staging name
    const Status swapped = mount_.replace_container(target, logical_name);
    if (!swapped.is_ok()) {
      if (mount_.container_exists(target)) (void)mount_.remove_container(target);
      return swapped.error();
    }
  }
  // The mutation generation already fences stale entries; the explicit drop
  // frees their memory immediately.
  if (result.is_ok() && cache_ != nullptr) cache_->invalidate(logical_name);
  return result;
}

Result<IngestReport> Ada::ingest_into(const LabelMap& labels,
                                      std::span<const std::uint8_t> xtc_image,
                                      const std::string& container_name) {
  const DataPreProcessor preprocessor(labels);
  IngestReport report;
  report.logical_name = container_name;

  // The label file rides in the container (reserved label) so that later
  // sessions -- and the indexer -- can resolve tags without the .pdb.  It is
  // published with the subsets (and the kept original) in one index image.
  const std::string label_text = encode_label_file(labels);
  std::vector<Blob> extras = {
      Blob{kLabelFileTag,
           std::span(reinterpret_cast<const std::uint8_t*>(label_text.data()),
                     label_text.size()),
           std::nullopt}};
  if (config_.keep_original) extras.push_back(Blob{kOriginalTag, xtc_image, std::nullopt});
  ADA_RETURN_IF_ERROR(dispatcher_.ingest(container_name, preprocessor, xtc_image, extras,
                                         &report.preprocess, config_.threads));
  for (const auto& [tag, bytes] : report.preprocess.subset_bytes) {
    report.backend_of_tag[tag] = dispatcher_.policy().backend_for(tag);
  }
  return report;
}

std::vector<Result<IngestReport>> Ada::ingest_batch(const chem::System& structure,
                                                    const std::vector<Phase>& phases) {
  // The label map is shared read-only across phases (one structure).
  const LabelMap labels = categorize_protein_misc(structure);
  std::vector<Result<IngestReport>> results(
      phases.size(), Result<IngestReport>(internal_error("not executed")));

  // Duplicate names would race on the same container: reject up front.
  // Sort a name index so the check is O(n log n), not the n^2 nested scan.
  std::vector<std::size_t> by_name(phases.size());
  std::iota(by_name.begin(), by_name.end(), std::size_t{0});
  std::sort(by_name.begin(), by_name.end(), [&](std::size_t a, std::size_t b) {
    return phases[a].logical_name < phases[b].logical_name;
  });
  for (std::size_t k = 1; k < by_name.size(); ++k) {
    if (phases[by_name[k - 1]].logical_name == phases[by_name[k]].logical_name) {
      const auto error =
          invalid_argument("duplicate phase name: " + phases[by_name[k]].logical_name);
      for (auto& r : results) r = error;
      return results;
    }
  }

  // Each job touches only its own container directory; the mount's file
  // operations on distinct containers are independent.
  ThreadPool::shared().run(phases.size(), config_.threads, [&](std::size_t i) {
    results[i] = ingest_with_labels(labels, phases[i].xtc_image, phases[i].logical_name);
  });
  return results;
}

Result<IngestStream> Ada::begin_stream(const LabelMap& labels, const std::string& logical_name,
                                       std::uint32_t chunk_frames) {
  return IngestStream::begin(dispatcher_, labels, logical_name, chunk_frames,
                             config_.retain_bytes);
}

void Ada::count_query_bytes(const Tag& tag, std::size_t bytes) const {
  if (!obs::enabled()) return;
  static obs::Counter& total = obs::Registry::global().counter("query.bytes_out");
  total.add(bytes);
  obs::Counter* per_tag = nullptr;
  {
    // Registry handles are stable for the life of the process, so each
    // tag pays the "query.bytes_out.<tag>" string build exactly once.
    const std::lock_guard<std::mutex> lock(query_counter_mutex_);
    auto it = query_bytes_counters_.find(tag);
    if (it == query_bytes_counters_.end()) {
      it = query_bytes_counters_
               .emplace(tag, &obs::Registry::global().counter("query.bytes_out." + tag))
               .first;
    }
    per_tag = it->second;
  }
  per_tag->add(bytes);
}

namespace {

Status check_user_tag(const Tag& tag) {
  if (tag == kLabelFileTag || tag == kOriginalTag) {
    return invalid_argument("tag '" + tag + "' is reserved");
  }
  return Status::ok();
}

}  // namespace

Result<Ada::Subset> Ada::read_subset(const std::string& logical_name, const Tag& tag,
                                     bool reserved_ok) const {
  if (!reserved_ok) ADA_RETURN_IF_ERROR(check_user_tag(tag));
  // The generation is observed BEFORE the index walk and any read: a write
  // racing them leaves the filled entry detectably stale instead of
  // poisoning later lookups with bytes from the middle of a mutation.  The
  // fill guard makes the miss single-flight: concurrent cold misses of the
  // same key wait for this read instead of each paying their own (it
  // resolves after the insert below, or on the error return).
  const std::uint64_t generation = subset_generation(logical_name);
  QueryCache::FillGuard fill_guard;
  if (cache_ != nullptr) {
    const obs::Span lookup_span("cache_lookup", tag);
    if (QueryCache::Image hit =
            cache_->lookup_or_fill(logical_name, tag, generation, &fill_guard)) {
      return Subset{std::move(hit), {}};
    }
  }
  Subset subset;
  {
    const obs::Span retrieve_span("retrieve", tag);
    ADA_ASSIGN_OR_RETURN(const auto extents, Indexer(mount_).locate(logical_name, tag));
    const obs::Span read_span("plfs_read", tag);
    ADA_ASSIGN_OR_RETURN(subset.owned, IoRetriever(mount_, config_.threads).retrieve(extents));
    obs::trace_counter("plfs.read.bytes", subset.owned.size());
  }
  if (cache_ != nullptr) {
    // Fill only from this CRC-verified read (IoRetriever checks every
    // extent): a faulted read errors out above and never lands here.
    // insert() returns the image now cached under the key -- the incumbent
    // if a concurrent fill won, so every racer still shares one allocation.
    const obs::Span fill_span("cache_fill", tag);
    subset.shared = cache_->insert(logical_name, tag, generation, std::move(subset.owned));
  }
  return subset;
}

Result<std::vector<std::uint8_t>> Ada::query(const std::string& logical_name,
                                             const Tag& tag) const {
  const obs::Span span("query", tag);
  ADA_OBS_COUNT("query.calls", 1);
  ADA_ASSIGN_OR_RETURN(auto subset, read_subset(logical_name, tag));
  count_query_bytes(tag, subset.bytes().size());
  if (subset.shared != nullptr) {
    const obs::Span copy_span("copy");
    return std::vector<std::uint8_t>(*subset.shared);  // the cached image stays immutable
  }
  return std::move(subset.owned);
}

Result<QueryCache::Image> Ada::query_image(const std::string& logical_name,
                                           const Tag& tag) const {
  const obs::Span span("query", tag);
  ADA_OBS_COUNT("query.calls", 1);
  ADA_ASSIGN_OR_RETURN(auto subset, read_subset(logical_name, tag));
  count_query_bytes(tag, subset.bytes().size());
  if (subset.shared != nullptr) return subset.shared;  // shared, not copied
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(subset.owned));
}

namespace {

// Frames per cached range block: large enough to amortize per-entry cache
// bookkeeping, small enough that a sparse stride never drags whole subsets
// into the budget.
constexpr std::uint64_t kFrameBlock = 32;

// Cache-key tag for one frame block.  '\x01' cannot appear in a label (the
// label file is line-oriented text), so block entries can never collide with
// whole-subset entries; both carry the logical name, so invalidation and
// generation fencing cover them identically.
std::string block_tag(const Tag& tag, std::uint64_t block) {
  return tag + '\x01' + std::to_string(block);
}

// Cache-key tag for a *partial* frame block: the growing open-tail block of a
// live stream, or a block straddling the retention floor.  Keying on the
// frame count makes a grown tail block miss (and re-fill) instead of hitting
// the shorter cached image; floor moves bump the rewrite generation, which
// fences the rest.  '\x02', like '\x01', cannot appear in a label.
std::string partial_block_tag(const Tag& tag, std::uint64_t block, std::uint64_t frames) {
  return tag + '\x01' + std::to_string(block) + '\x02' + std::to_string(frames);
}

}  // namespace

Result<Ada::IndexSnapshot> Ada::snapshot_index(const std::string& logical_name) const {
  // The generation is observed BEFORE the index read, so a racing write
  // leaves anything filled from it detectably stale.
  IndexSnapshot snapshot;
  snapshot.block_generation = cache_ != nullptr ? mount_.rewrite_generation(logical_name) : 0;
  ADA_ASSIGN_OR_RETURN(snapshot.index, mount_.read_index(logical_name));
  return snapshot;
}

Result<std::vector<std::uint8_t>> Ada::query(const std::string& logical_name, const Tag& tag,
                                             const FrameRange& range) const {
  ADA_ASSIGN_OR_RETURN(RangeImage answer,
                       query_range(logical_name, tag, range, std::nullopt, /*empty_header=*/true));
  return std::move(answer.image);
}

Result<Ada::RangeImage> Ada::query_range(const std::string& logical_name, const Tag& tag,
                                         const FrameRange& range,
                                         std::optional<IndexSnapshot> snapshot,
                                         bool empty_header) const {
  const obs::Span span("query_range", tag);
  ADA_OBS_COUNT("query.calls", 1);
  ADA_OBS_COUNT("query.range.calls", 1);
  ADA_RETURN_IF_ERROR(check_user_tag(tag));
  if (range.stride == 0) return invalid_argument("frame stride must be positive");

  // Fencing: frame blocks validate against the *rewrite* generation, which
  // only history-rewriting writes advance (retention, repair, overwrite).  A
  // streaming chunk flush bumps the mutation clock but not this one, so
  // sealed-prefix blocks stay hittable across flushes -- the flush extends
  // the readable prefix instead of invalidating it.
  if (!snapshot.has_value()) {
    ADA_ASSIGN_OR_RETURN(snapshot, snapshot_index(logical_name));
  }
  const std::uint64_t block_generation = snapshot->block_generation;
  // The retention floor: frames below it are gone (0 unless a stream dropped chunks).
  const std::uint64_t base_frame =
      snapshot->index.stream.has_value() ? snapshot->index.stream->floor_frames : 0;
  ADA_ASSIGN_OR_RETURN(const auto locations,
                       Indexer(mount_).locate(std::move(snapshot->index), logical_name, tag));
  if (range.begin < base_frame) {
    return out_of_range("frame " + std::to_string(range.begin) +
                        " is below the retention floor (" + std::to_string(base_frame) + ")");
  }

  // Frames are planned from stored shapes; older records have none until repair.
  if (!std::all_of(locations.begin(), locations.end(),
                   [](const DatasetLocation& l) { return l.atom_count.has_value(); })) {
    return failed_precondition("index records of " + logical_name + "/" + tag +
                               " store no frame shape; run `ada-inspect --repair` to rebuild them");
  }

  // A stored shape is checked once, here: spans contiguous from the floor,
  // one atom count, and each length exactly its span's frames of those atoms.
  const std::uint32_t atoms = *locations.front().atom_count;
  std::uint64_t total_frames = base_frame;
  for (const DatasetLocation& location : locations) {
    if (location.frame_base != total_frames || location.atom_count != atoms ||
        !formats::raw_file_has_shape(location.bytes, atoms, location.frame_count)) {
      return corrupt_data("index record of " + location.host_path + " states " +
                          std::to_string(location.frame_count) + " frames of " +
                          std::to_string(*location.atom_count) + " atoms from frame " +
                          std::to_string(location.frame_base) + " in " +
                          std::to_string(location.bytes) + " bytes, not the " +
                          std::to_string(atoms) + "-atom frames from frame " +
                          std::to_string(total_frames));
    }
    total_frames += location.frame_count;
  }
  std::vector<std::uint64_t> picked;  // the global frames the range selects
  for (std::uint64_t g = range.begin; g < std::min<std::uint64_t>(range.end, total_frames);
       g += range.stride) {
    picked.push_back(g);
  }

  // Owning extent of global frame `g`: last extent whose first frame is
  // <= g (ties from zero-frame extents resolve to the later, owning one).
  const auto extent_of = [&](std::uint64_t g) {
    const auto after =
        std::upper_bound(locations.begin(), locations.end(), g,
                         [](std::uint64_t f, const DatasetLocation& l) { return f < l.frame_base; });
    return static_cast<std::size_t>(after - locations.begin()) - 1;
  };

  // Plan: one pass over the picked blocks, ascending, resolves which the
  // cache already holds and which extents the rest touch.  A block's frames
  // are clamped to the retention floor below and the sealed prefix above; a
  // clamped (partial) block caches under a frame-count-suffixed key so a
  // later, longer version of the same block can never serve the shorter
  // cached image.  Each miss takes a single-flight claim: a concurrent query
  // touching the same block waits for our insert instead of reading the same
  // extents again.  Claims are taken in ascending block order, so two
  // queries can never wait on each other's blocks in a cycle.
  struct Block {
    std::uint64_t lo = 0;  // first global frame
    std::uint64_t hi = 0;  // one past the last
    std::string key;
    QueryCache::Image hit;
    QueryCache::FillGuard claim;
  };
  std::map<std::uint64_t, Block> blocks;
  std::vector<std::size_t> needed;  // ascending: picked and extent_of ascend
  for (const std::uint64_t g : picked) {
    const std::uint64_t b = g / kFrameBlock;
    const auto [slot, fresh] = blocks.try_emplace(b);
    if (!fresh) continue;
    Block& block = slot->second;
    block.lo = std::max(b * kFrameBlock, base_frame);
    block.hi = std::min((b + 1) * kFrameBlock, total_frames);
    const bool whole = block.lo == b * kFrameBlock && block.hi == (b + 1) * kFrameBlock;
    block.key = whole ? block_tag(tag, b) : partial_block_tag(tag, b, block.hi - block.lo);
    if (cache_ != nullptr) {
      block.hit = cache_->lookup_or_fill(logical_name, block.key, block_generation, &block.claim);
    }
    if (block.hit != nullptr) continue;
    for (std::uint64_t f = block.lo; f < block.hi; ++f) {
      const std::size_t e = extent_of(f);
      if (needed.empty() || needed.back() != e) needed.push_back(e);
    }
  }
  // Fetch: every extent the uncached blocks need, in one call.  These
  // CRC-verified, retried reads are the only bytes that may land in the
  // cache below.  Each must open as the RAW image its record describes; a
  // stored header that contradicts the record means the record lied.
  std::vector<DatasetLocation> want;
  want.reserve(needed.size());
  for (const std::size_t e : needed) want.push_back(locations[e]);
  ADA_ASSIGN_OR_RETURN(auto images,
                       IoRetriever(mount_, config_.threads).retrieve_extents(want));
  std::vector<std::optional<formats::RawTrajReader>> readers(locations.size());  // by extent
  for (std::size_t k = 0; k < needed.size(); ++k) {
    const std::size_t e = needed[k];
    auto reader = formats::RawTrajReader::open(images[k]);
    if (!reader.is_ok() || reader.value().frame_count() != locations[e].frame_count ||
        reader.value().atom_count() != atoms) {
      return corrupt_data("extent " + locations[e].host_path +
                          " does not hold the RAW frames its index record states");
    }
    readers[e] = reader.value();
  }

  // Assemble: the picked frames' records, verbatim, behind one canonical
  // header, each out of its (hit or built) block.  A built block is its
  // frames' records, back to back.
  const obs::Span copy_span("copy");
  if (picked.empty() && !empty_header) return RangeImage{};
  const std::uint64_t frame_bytes = formats::raw_frame_bytes(atoms);
  std::uint64_t current_block = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t current_lo = 0;     // first global frame of current block
  QueryCache::Image held;           // keeps the current block's image alive
  std::vector<std::uint8_t> local;  // block assembled from extents
  const std::vector<std::uint8_t>* image = nullptr;
  formats::RawTrajWriter out(atoms, picked.size());
  for (const std::uint64_t g : picked) {
    const std::uint64_t b = g / kFrameBlock;
    if (b != current_block) {
      current_block = b;
      Block& block = blocks.at(b);
      current_lo = block.lo;
      held = std::move(block.hit);
      if (held == nullptr) {
        local.clear();
        local.reserve((block.hi - block.lo) * frame_bytes);
        for (std::uint64_t f = block.lo; f < block.hi; ++f) {
          const std::size_t e = extent_of(f);
          const auto record =
              readers[e]->record(static_cast<std::uint32_t>(f - locations[e].frame_base));
          local.insert(local.end(), record.begin(), record.end());
        }
        if (cache_ != nullptr) cache_->insert(logical_name, block.key, block_generation, local);
      }
      image = held != nullptr ? held.get() : &local;
      // This block's fill landed (or was a hit): release any waiters now
      // rather than at function exit.
      block.claim.reset();
    }
    ADA_RETURN_IF_ERROR(out.append_record(
        std::span<const std::uint8_t>(*image).subspan((g - current_lo) * frame_bytes, frame_bytes)));
  }
  RangeImage result{out.finish(), picked.size()};
  count_query_bytes(tag, result.image.size());
  return result;
}

Result<Ada::TailChunk> Ada::query_tail(const std::string& logical_name, const Tag& tag,
                                       std::uint64_t from_frame) const {
  const obs::Span span("query_tail", tag);
  ADA_OBS_COUNT("stream.tail_polls", 1);
  ADA_RETURN_IF_ERROR(check_user_tag(tag));
  // One index image serves both the frames and the state they were sealed
  // under, so the chunk and its `sealed` flag always agree.
  ADA_ASSIGN_OR_RETURN(IndexSnapshot snapshot, snapshot_index(logical_name));
  const std::optional<plfs::StreamState> state = snapshot.index.stream;
  TailChunk chunk;
  chunk.from_frame = from_frame;
  chunk.sealed = !state.has_value() || state->sealed;  // batch containers are all sealed
  // A cursor at or above a stream's watermark (a stream that has sealed
  // nothing yet included) has nothing new: the index alone answers it.
  if (state.has_value() && from_frame >= state->sealed_frames) return chunk;
  // Frame counts are u32, so a cursor past u32 range selects nothing
  // (clamped, never truncated into an earlier frame).  A cursor below a
  // stream's retention floor is kOutOfRange.
  const auto begin = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(from_frame, std::numeric_limits<std::uint32_t>::max()));
  ADA_ASSIGN_OR_RETURN(RangeImage answer, query_range(logical_name, tag, FrameRange{begin},
                                                      std::move(snapshot), false));
  chunk.frames = answer.frames;
  chunk.image = std::move(answer.image);
  return chunk;
}

Result<std::optional<plfs::StreamState>> Ada::stream_progress(
    const std::string& logical_name) const {
  ADA_ASSIGN_OR_RETURN(const plfs::Index index, mount_.read_index(logical_name));
  return index.stream;
}

std::vector<std::uint8_t> Ada::PartialQuery::concat() const {
  std::vector<std::uint8_t> out;
  std::size_t total = 0;
  for (const auto& [tag, bytes] : subsets) total += bytes.size();
  out.reserve(total);
  for (const auto& [tag, bytes] : subsets) out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

Result<Ada::PartialQuery> Ada::query_degraded(const std::string& logical_name) const {
  const obs::Span span("query_degraded", logical_name);
  ADA_OBS_COUNT("query.degraded.calls", 1);
  // Only an unreadable index is fatal: with no tag list there is nothing to
  // degrade to.
  ADA_ASSIGN_OR_RETURN(const auto tag_list, tags(logical_name));
  PartialQuery out;
  for (const Tag& tag : tag_list) {
    auto subset = query(logical_name, tag);
    if (subset.is_ok()) {
      out.subsets.emplace(tag, std::move(subset).value());
    } else {
      ADA_OBS_COUNT("query.degraded.failed_tags", 1);
      obs::warn(obs::WarnSeverity::kWarn, "degraded-read",
                logical_name + "/" + tag + ": " + subset.error().to_string());
      out.failed.push_back(TagFailure{tag, subset.error()});
    }
  }
  if (out.partial()) ADA_OBS_COUNT("query.degraded.partial", 1);
  return out;
}

Result<LabelMap> Ada::labels(const std::string& logical_name) const {
  ADA_ASSIGN_OR_RETURN(const Subset file,
                       read_subset(logical_name, kLabelFileTag, /*reserved_ok=*/true));
  const auto bytes = file.bytes();
  return decode_label_file(std::string(bytes.begin(), bytes.end()));
}

Result<std::vector<Tag>> Ada::tags(const std::string& logical_name) const {
  return Indexer(mount_).tags(logical_name);
}

Result<std::uint64_t> Ada::subset_bytes(const std::string& logical_name, const Tag& tag) const {
  return mount_.label_size(logical_name, tag);
}

}  // namespace ada::core
