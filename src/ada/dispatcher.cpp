#include "ada/dispatcher.hpp"

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

// The frame span of a batch blob, or nullopt when disabled, the label is
// reserved (label files and kept originals are not RAW trajectories), or the
// payload is not one canonical RAW image.  A missing span only costs range
// queries their fast path -- it must never fail the ingest.
std::optional<plfs::FrameSpan> batch_span(bool enabled, const Tag& tag,
                                          std::span<const std::uint8_t> bytes) {
  if (!enabled || tag == kLabelFileTag || tag == kOriginalTag) return std::nullopt;
  const auto raw = formats::RawTrajReader::open(bytes);
  if (!raw.is_ok()) return std::nullopt;
  return plfs::FrameSpan{0, raw.value().frame_count()};
}

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

Result<std::vector<plfs::IndexRecord>> IoDispatcher::publish(
    const std::string& logical_name, std::span<const Blob> blobs,
    std::optional<plfs::StreamState> stream) {
  const obs::Span span("dispatch", blobs.size() == 1 ? std::string_view(blobs.front().tag)
                                                     : std::string_view{});
  std::vector<plfs::Extent> extents;
  extents.reserve(blobs.size());
  for (const Blob& blob : blobs) {
    extents.push_back(plfs::Extent{
        blob.tag, policy_.backend_for(blob.tag), blob.bytes,
        blob.span.has_value() ? blob.span : batch_span(frame_tables_, blob.tag, blob.bytes)});
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
