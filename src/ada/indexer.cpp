#include "ada/indexer.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "common/admission.hpp"
#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "common/parallel.hpp"
#include "common/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::core {

Result<std::vector<DatasetLocation>> Indexer::locate(const std::string& logical_name,
                                                     const Tag& tag) const {
  ADA_ASSIGN_OR_RETURN(plfs::Index index, mount_.read_index(logical_name));
  return locate(std::move(index), logical_name, tag);
}

Result<std::vector<DatasetLocation>> Indexer::locate(plfs::Index index,
                                                     const std::string& logical_name,
                                                     const Tag& tag) const {
  auto& records = index.records;
  std::erase_if(records, [&](const plfs::IndexRecord& r) { return r.label != tag; });
  // Live-streamed containers publish a sealed-frame watermark; only extents
  // entirely below it are safe to serve.  Records and watermark come from
  // one image, and records carry their own global frame span, so a record
  // published ahead of its watermark stays hidden until the watermark moves.
  if (index.stream.has_value()) {
    std::erase_if(records, [&](const plfs::IndexRecord& r) {
      return r.has_frame_span() && r.frame_base + r.frame_count > index.stream->sealed_frames;
    });
  }
  if (records.empty()) {
    return not_found("no subset tagged '" + tag + "' in " + logical_name);
  }
  std::sort(records.begin(), records.end(),
            [](const plfs::IndexRecord& a, const plfs::IndexRecord& b) {
              return a.logical_offset < b.logical_offset;
            });
  std::vector<DatasetLocation> out;
  out.reserve(records.size());
  for (const plfs::IndexRecord& record : records) {
    if (record.backend >= mount_.backend_count()) {
      return corrupt_data("extent of " + logical_name + " on unknown backend " +
                          std::to_string(record.backend));
    }
    DatasetLocation location;
    location.backend = record.backend;
    location.backend_name = mount_.backend(record.backend).name;
    location.host_path =
        mount_.backend(record.backend).host_root + "/" + logical_name + "/" + record.dropping;
    location.bytes = record.length;
    location.physical_offset = record.physical_offset;
    location.crc32c = record.crc32c;
    location.has_crc = record.has_checksum();
    location.frame_base = record.frame_base;
    location.frame_count = record.frame_count;
    if (record.has_atom_count()) location.atom_count = record.atom_count;
    out.push_back(std::move(location));
  }
  return out;
}

Result<std::vector<Tag>> Indexer::tags(const std::string& logical_name) const {
  ADA_ASSIGN_OR_RETURN(const plfs::Index index, mount_.read_index(logical_name));
  std::vector<Tag> out;
  for (const plfs::IndexRecord& record : index.records) {
    if (record.label == kLabelFileTag || record.label == kOriginalTag) continue;
    if (std::find(out.begin(), out.end(), record.label) == out.end()) out.push_back(record.label);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::uint8_t>> IoRetriever::retrieve(
    std::span<const DatasetLocation> locations) const {
  // A one-extent subset (every batch-ingested tag) is its extent's buffer.
  if (locations.size() == 1) return retrieve_extent(locations.front());
  // Otherwise each extent is read into its slot of one image.  Slots are
  // sized from the index, so a length is trusted only once its dropping is
  // seen to hold it: an extent that does not fit (or whose dropping is gone)
  // gets an empty slot and fails its read below before asking for a buffer.
  std::vector<std::uint64_t> slot(locations.size() + 1, 0);
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const DatasetLocation& location = locations[i];
    const bool fits =
        plfs::extent_fits(location.host_path, location.physical_offset, location.bytes);
    slot[i + 1] = slot[i] + (fits ? location.bytes : 0);
  }
  std::vector<std::uint8_t> image(slot.back());
  ADA_RETURN_IF_ERROR(fetch(locations, [&](std::size_t i) {
    return read_verified(locations[i], [&] {
      return std::span(image).subspan(slot[i], slot[i + 1] - slot[i]);
    });
  }));
  return image;
}

Result<std::vector<std::vector<std::uint8_t>>> IoRetriever::retrieve_extents(
    std::span<const DatasetLocation> locations) const {
  std::vector<std::vector<std::uint8_t>> out(locations.size());
  ADA_RETURN_IF_ERROR(fetch(locations, [&](std::size_t i) {
    return read_verified(locations[i], [&] {
      out[i].resize(locations[i].bytes);
      return std::span(out[i]);
    });
  }));
  return out;
}

Result<std::vector<std::uint8_t>> IoRetriever::retrieve_extent(
    const DatasetLocation& location) const {
  ADA_ASSIGN_OR_RETURN(auto extents, retrieve_extents(std::span(&location, 1)));
  return std::move(extents.front());
}

Status IoRetriever::fetch(std::span<const DatasetLocation> locations,
                          const std::function<Status(std::size_t)>& read) const {
  if (locations.empty()) return Status::ok();  // nothing to read: no read call
  const bool fan_out = options_.threads > 1 && locations.size() > 1;
  if (fan_out) {
    ADA_OBS_COUNT("retrieve.sg.calls", 1);
    ADA_OBS_COUNT("retrieve.sg.extents", locations.size());
  }

  // One read in flight runs in logical order.  A fan-out groups extents by
  // owning backend (locality: within a backend, reads stay in logical order
  // -- sequential on a spinning server), then interleaves the groups
  // round-robin so the pool's in-order task claim spreads across backends
  // instead of queueing behind one server's admission window.
  std::uint32_t backends = 0;
  for (const DatasetLocation& location : locations) {
    backends = std::max(backends, location.backend + 1);
  }
  std::vector<std::size_t> order(locations.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (fan_out) {
    std::vector<std::vector<std::size_t>> by_backend(backends);
    for (std::size_t i = 0; i < locations.size(); ++i) {
      by_backend[locations[i].backend].push_back(i);
    }
    order.clear();
    for (std::size_t round = 0; order.size() < locations.size(); ++round) {
      for (const auto& group : by_backend) {
        if (round < group.size()) order.push_back(group[round]);
      }
    }
  }

  // Per-backend admission window: a query may keep at most queue_depth
  // extent reads in flight against any one backend.  A task holds exactly
  // one slot while it reads, so blocked acquires always wait on running
  // tasks and the batch drains (common/admission.hpp).
  AdmissionWindow window(backends, fan_out ? options_.queue_depth : 0);
  std::vector<Status> results(locations.size(), internal_error("extent read not executed"));
  run_until_failure(order, options_.threads, [&](std::size_t index) {
    const DatasetLocation& location = locations[index];
    const std::uint64_t waits = window.acquire(location.backend);
    if (waits != 0) ADA_OBS_COUNT("retrieve.sg.admission_waits", waits);
    {
      // Read + CRC verify pipelined on the worker: while this extent
      // transfers, siblings verify, so transfer overlaps decode.
      std::optional<obs::Span> span;
      if (fan_out) span.emplace("sg_extent", location.backend_name);
      results[index] = read(index);
    }
    window.release(location.backend);
    return results[index].is_ok();
  });

  // Ordered merge: tasks completed in whatever order the pool ran them, but
  // the first failure in logical order wins (run_until_failure skips only
  // reads past it).
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < locations.size(); ++i) {
    if (!results[i].is_ok()) return results[i];
    bytes += locations[i].bytes;
  }
  ADA_OBS_COUNT("plfs.read.calls", 1);
  ADA_OBS_COUNT("plfs.read.bytes", bytes);
  if (fan_out) ADA_OBS_COUNT("retrieve.sg.bytes", bytes);
  return Status::ok();
}

Status IoRetriever::read_verified(const DatasetLocation& location,
                                  const plfs::ExtentSink& sink) const {
  std::span<std::uint8_t> extent;
  {
    const obs::Span read_span("read");
    ADA_ASSIGN_OR_RETURN(extent, retry_sync("retrieve_dropping", mount_.retry_policy(), [&] {
                           return plfs::read_dropping_extent(location.host_path,
                                                             location.physical_offset,
                                                             location.bytes, sink);
                         }));
  }
  const obs::Span crc_span("crc");
  if (location.has_crc && crc32c(extent.data(), extent.size()) != location.crc32c) {
    ADA_OBS_COUNT("plfs.crc_mismatch", 1);
    return corrupt_data("checksum mismatch on " + location.host_path);
  }
  return Status::ok();
}

}  // namespace ada::core
