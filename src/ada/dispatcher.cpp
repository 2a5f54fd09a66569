#include "ada/dispatcher.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "formats/raw_traj.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::core {

namespace {

// Per-tag dispatch accounting (dynamic names; registry lookup is amortized
// over whole subsets, never per frame).
void count_dispatched(const Tag& tag, std::size_t bytes) {
  if (!obs::enabled()) return;
  obs::Registry& registry = obs::Registry::global();
  registry.counter("ingest.dispatched_bytes").add(bytes);
  registry.counter("ingest.dispatched_bytes." + tag).add(bytes);
}

// The shape a blob's record stores: its frame span (a streamed chunk's, or
// [0, frames) for a batch blob) with the atom count of its own RAW header.
// A reserved label (label files and kept originals are not RAW
// trajectories), or a payload that is not one canonical RAW image of the
// span, stores no atom count; a batch one stores no span either.  A missing
// shape only costs range queries their planned path -- it must never fail
// the ingest.
std::optional<plfs::FrameSpan> shape_of(const Blob& blob) {
  if (blob.tag == kLabelFileTag || blob.tag == kOriginalTag) return blob.span;
  const auto raw = formats::RawTrajReader::open(blob.bytes);
  if (!raw.is_ok()) return blob.span;
  plfs::FrameSpan shape = blob.span.value_or(plfs::FrameSpan{0, raw.value().frame_count()});
  if (shape.count == raw.value().frame_count()) shape.atoms = raw.value().atom_count();
  return shape;
}

/// The pipelined ingest's frame sink: a staged append with one dropping
/// per label group (a RAW header piece, then one piece per frame) and one
/// per extra.  Each slot's staging buffer holds one frame's records for
/// every tag; the worker decodes a frame straight into its slot's records,
/// and the staged append checksums and writes each record at the frame's
/// offset of that tag's dropping while it is still in cache.
class DroppingSink final : public FrameSink {
 public:
  DroppingSink(plfs::PlfsMount& mount, const PlacementPolicy& policy,
               const std::string& logical_name, const LabelMap& labels,
               std::span<const Blob> extras)
      : mount_(mount),
        policy_(policy),
        logical_name_(logical_name),
        labels_(labels),
        extras_(extras) {}

  Status open(std::uint32_t frames, std::size_t slots) override {
    std::vector<plfs::StagedExtent> extents;
    extents.reserve(labels_.groups.size() + extras_.size());
    std::size_t slot_bytes = 0;  // one frame's records, every tag's
    for (const auto& [tag, selection] : labels_.groups) {
      const auto atoms = static_cast<std::uint32_t>(selection.count());
      groups_.push_back(Group{atoms, slot_bytes});
      slot_bytes += formats::raw_frame_bytes(atoms);
      extents.push_back(plfs::StagedExtent{tag, policy_.backend_for(tag),
                                           formats::raw_file_bytes(atoms, frames),
                                           std::size_t{1} + frames,
                                           plfs::FrameSpan{0, frames, atoms}});
    }
    for (const Blob& blob : extras_) {
      extents.push_back(plfs::StagedExtent{blob.tag, policy_.backend_for(blob.tag),
                                           blob.bytes.size(), 1, shape_of(blob)});
    }
    auto staged = mount_.begin_append(logical_name_, extents);
    if (!staged.is_ok()) return staged.error();
    staged_.emplace(std::move(staged).value());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      std::uint8_t header[formats::kRawHeaderBytes];
      formats::encode_raw_header(header, groups_[g].atoms, frames);
      ADA_RETURN_IF_ERROR(staged_.value().write(g, 0, 0, header));
    }
    records_.resize(slots * groups_.size());
    // Sized last, after everything that outlives the ingest.
    staging_ = std::make_unique_for_overwrite<std::uint8_t[]>(slots * slot_bytes);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        records_[slot * groups_.size() + g] =
            staging_.get() + slot * slot_bytes + groups_[g].offset;
      }
    }
    return Status::ok();
  }

  std::span<std::uint8_t* const> records(std::size_t slot, std::uint32_t /*f*/) override {
    return std::span(records_.data() + slot * groups_.size(), groups_.size());
  }

  Status frame(std::size_t slot, std::uint32_t f, const formats::FrameStamp& stamp) override {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      std::uint8_t* const record = records_[slot * groups_.size() + g];
      formats::encode_raw_frame_header(record, stamp);
      ADA_RETURN_IF_ERROR(staged_.value().write(
          g, std::size_t{1} + f, formats::raw_file_bytes(groups_[g].atoms, f),
          std::span(record, formats::raw_frame_bytes(groups_[g].atoms))));
    }
    return Status::ok();
  }

  /// After the decode: write the extras and publish the one index image.
  Result<std::vector<plfs::IndexRecord>> commit() {
    for (std::size_t e = 0; e < extras_.size(); ++e) {
      ADA_RETURN_IF_ERROR(staged_.value().write(groups_.size() + e, 0, 0, extras_[e].bytes));
    }
    return staged_.value().commit();
  }

 private:
  struct Group {
    std::uint32_t atoms;
    std::size_t offset;  // of the group's record in a slot's staging
  };

  plfs::PlfsMount& mount_;
  const PlacementPolicy& policy_;
  const std::string& logical_name_;
  const LabelMap& labels_;
  const std::span<const Blob> extras_;
  std::vector<Group> groups_;
  std::optional<plfs::StagedAppend> staged_;
  std::vector<std::uint8_t*> records_;       // each slot's records, by group
  std::unique_ptr<std::uint8_t[]> staging_;  // one frame's records per slot
};

}  // namespace

PlacementPolicy PlacementPolicy::active_on_ssd(std::uint32_t ssd_backend,
                                               std::uint32_t hdd_backend) {
  PlacementPolicy policy;
  policy.backend_of_tag[kProteinTag] = ssd_backend;
  policy.default_backend = hdd_backend;
  return policy;
}

PlacementPolicy PlacementPolicy::single_backend(std::uint32_t backend) {
  PlacementPolicy policy;
  policy.default_backend = backend;
  return policy;
}

std::uint32_t PlacementPolicy::backend_for(const Tag& tag) const {
  const auto it = backend_of_tag.find(tag);
  return it == backend_of_tag.end() ? default_backend : it->second;
}

Status IoDispatcher::dispatch(const std::string& logical_name,
                              const std::map<Tag, std::vector<std::uint8_t>>& subsets,
                              std::span<const Blob> extras) {
  ADA_RETURN_IF_ERROR(mount_.create_container(logical_name));
  std::vector<Blob> blobs;
  blobs.reserve(subsets.size() + extras.size());
  for (const auto& [tag, bytes] : subsets) blobs.push_back(Blob{tag, bytes, std::nullopt});
  blobs.insert(blobs.end(), extras.begin(), extras.end());
  return publish(logical_name, blobs).status();
}

Status IoDispatcher::ingest(const std::string& logical_name,
                            const DataPreProcessor& preprocessor,
                            std::span<const std::uint8_t> xtc_image,
                            std::span<const Blob> extras, PreprocessStats* stats,
                            unsigned threads) {
  ADA_RETURN_IF_ERROR(mount_.create_container(logical_name));
  auto records = [&]() -> Result<std::vector<plfs::IndexRecord>> {
    DroppingSink sink(mount_, policy_, logical_name, preprocessor.labels(), extras);
    ADA_RETURN_IF_ERROR(preprocessor.decode(xtc_image, sink, stats, threads));
    const obs::Span span("dispatch");
    return sink.commit();
  }();
  if (!records.is_ok()) {
    (void)mount_.remove_container(logical_name);
    return records.error();
  }
  for (const plfs::IndexRecord& record : records.value()) {
    count_dispatched(record.label, record.length);
  }
  return Status::ok();
}

Result<std::vector<plfs::IndexRecord>> IoDispatcher::publish(
    const std::string& logical_name, std::span<const Blob> blobs,
    std::optional<plfs::StreamState> stream) {
  const obs::Span span("dispatch", blobs.size() == 1 ? std::string_view(blobs.front().tag)
                                                     : std::string_view{});
  std::vector<plfs::Extent> extents;
  extents.reserve(blobs.size());
  for (const Blob& blob : blobs) {
    extents.push_back(
        plfs::Extent{blob.tag, policy_.backend_for(blob.tag), blob.bytes, shape_of(blob)});
  }
  auto records = mount_.append(logical_name, extents, stream);
  if (records.is_ok()) {
    for (const Blob& blob : blobs) count_dispatched(blob.tag, blob.bytes.size());
  }
  return records;
}

Result<plfs::IndexRecord> IoDispatcher::dispatch_one(const std::string& logical_name,
                                                     const Tag& tag,
                                                     std::span<const std::uint8_t> bytes,
                                                     const std::uint64_t* frame_base,
                                                     std::uint32_t frame_count) {
  std::optional<plfs::FrameSpan> streamed;
  if (frame_base != nullptr) streamed = plfs::FrameSpan{*frame_base, frame_count};
  const Blob blob{tag, bytes, streamed};
  ADA_ASSIGN_OR_RETURN(auto records, publish(logical_name, std::span(&blob, 1)));
  return std::move(records.front());
}

}  // namespace ada::core
