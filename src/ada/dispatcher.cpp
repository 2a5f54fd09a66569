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

// Frame table for one extent, or nullopt when disabled, the label is
// reserved (label files and kept originals are not RAW trajectories), or the
// payload does not parse as a RAW image.  A missing table only costs range
// queries their fast path -- it must never fail the ingest.
std::optional<std::vector<std::uint64_t>> frame_table_for(bool enabled, const Tag& tag,
                                                          std::span<const std::uint8_t> bytes) {
  if (!enabled || tag == kLabelFileTag || tag == kOriginalTag) return std::nullopt;
  auto offsets = formats::scan_raw_frame_offsets(bytes);
  if (!offsets.is_ok()) return std::nullopt;
  return std::move(offsets).value();
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
                              const std::map<Tag, std::vector<std::uint8_t>>& subsets) {
  const obs::Span span("dispatch");
  ADA_RETURN_IF_ERROR(mount_.create_container(logical_name));
  for (const auto& [tag, bytes] : subsets) {
    const auto table = frame_table_for(frame_tables_, tag, bytes);
    ADA_RETURN_IF_ERROR(mount_
                            .append(logical_name, tag, policy_.backend_for(tag), bytes,
                                    table.has_value() ? &*table : nullptr)
                            .status());
    count_dispatched(tag, bytes.size());
  }
  return Status::ok();
}

Result<plfs::IndexRecord> IoDispatcher::dispatch_one(const std::string& logical_name,
                                                     const Tag& tag,
                                                     std::span<const std::uint8_t> bytes,
                                                     const std::uint64_t* frame_base,
                                                     std::uint32_t frame_count) {
  const obs::Span span("dispatch", tag);
  const auto table = frame_table_for(frame_tables_, tag, bytes);
  auto record = mount_.append(logical_name, tag, policy_.backend_for(tag), bytes,
                              table.has_value() ? &*table : nullptr, frame_base, frame_count);
  if (record.is_ok()) count_dispatched(tag, bytes.size());
  return record;
}

}  // namespace ada::core
