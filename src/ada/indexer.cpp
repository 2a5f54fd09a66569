#include "ada/indexer.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/admission.hpp"
#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "common/parallel.hpp"
#include "common/retry.hpp"
#include "common/thread_pool.hpp"
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

namespace {

/// Extents one fetch round opens at most, so a fetch over a long stream's
/// chunks never holds more descriptors open than this.
constexpr std::size_t kRoundExtents = 64;

/// One piece of a round: a slice of one of its open extents.
struct Piece {
  std::size_t extent = 0;  // index into the round's readers
  std::uint64_t begin = 0;
  std::uint64_t size = 0;
};

}  // namespace

Result<std::vector<std::uint8_t>> IoRetriever::retrieve(
    std::span<const DatasetLocation> locations) const {
  // A one-extent subset (every batch-ingested tag) is its extent's buffer.
  if (locations.size() == 1) return retrieve_extent(locations.front());
  // Otherwise each extent is read into its slot of one image.  Slots are
  // sized from the index, so a length is trusted only once its dropping is
  // seen to hold it: an extent that does not fit (or whose dropping is gone)
  // gets an empty slot and fails its open below before asking for a buffer.
  std::vector<std::uint64_t> slot(locations.size() + 1, 0);
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const DatasetLocation& location = locations[i];
    const bool fits =
        plfs::extent_fits(location.host_path, location.physical_offset, location.bytes);
    slot[i + 1] = slot[i] + (fits ? location.bytes : 0);
  }
  std::vector<std::uint8_t> image(slot.back());
  ADA_RETURN_IF_ERROR(fetch(locations, [&](std::size_t i) {
    return std::span(image).subspan(slot[i], slot[i + 1] - slot[i]);
  }));
  return image;
}

Result<std::vector<std::vector<std::uint8_t>>> IoRetriever::retrieve_extents(
    std::span<const DatasetLocation> locations) const {
  std::vector<std::vector<std::uint8_t>> out(locations.size());
  ADA_RETURN_IF_ERROR(fetch(locations, [&](std::size_t i) {
    out[i].resize(locations[i].bytes);
    return std::span(out[i]);
  }));
  return out;
}

Result<std::vector<std::uint8_t>> IoRetriever::retrieve_extent(
    const DatasetLocation& location) const {
  ADA_ASSIGN_OR_RETURN(auto extents, retrieve_extents(std::span(&location, 1)));
  return std::move(extents.front());
}

Status IoRetriever::fetch(std::span<const DatasetLocation> locations,
                          const Buffers& buffer) const {
  if (locations.empty()) return Status::ok();  // nothing to read: no read call
  // Each round is one attempt under the mount's retry policy: a round that
  // verified no extent is retried whole (its extents re-opened, so the fault
  // site is hit again); one that verified some is progress, and the next
  // round starts with a fresh budget at the first extent not yet verified.
  for (std::size_t done = 0; done < locations.size();) {
    ADA_RETURN_IF_ERROR(retry_sync("retrieve_dropping", mount_.retry_policy(),
                                   [&] { return fetch_round(locations, buffer, &done); }));
  }
  std::uint64_t bytes = 0;
  for (const DatasetLocation& location : locations) bytes += location.bytes;
  ADA_OBS_COUNT("plfs.read.calls", 1);
  ADA_OBS_COUNT("plfs.read.bytes", bytes);
  return Status::ok();
}

Status IoRetriever::fetch_round(std::span<const DatasetLocation> locations,
                                const Buffers& buffer, std::size_t* done) const {
  const std::size_t first = *done;
  const std::size_t last = std::min(locations.size(), first + kRoundExtents);
  // Open in location order: the fault site and the bounds check, so an
  // injected error or delay acts before any pread of its extent and site
  // hits follow the serial order.  The first failure stops the opening; the
  // extents before it are still read and verified.
  std::vector<plfs::ExtentReader> readers;
  readers.reserve(last - first);
  Status failure = Status::ok();
  for (std::size_t i = first; i < last; ++i) {
    const DatasetLocation& location = locations[i];
    const obs::Span open_span("read");  // the read layer: open + every pread
    auto reader = plfs::ExtentReader::open(location.host_path, location.physical_offset,
                                           location.bytes, /*fault_site=*/true);
    if (!reader.is_ok()) {
      failure = reader.error();
      break;
    }
    readers.push_back(std::move(reader).value());
  }

  // The round's bookkeeping is allocated before the extents' buffers, so
  // none of it sits above an answer in the heap once the answer is freed.
  std::vector<Piece> pieces;
  std::uint32_t backends = 0;
  for (std::size_t e = 0; e < readers.size(); ++e) {
    const std::uint64_t length = readers[e].length();
    for (std::uint64_t begin = 0; begin < length; begin += kPieceBytes) {
      pieces.push_back(Piece{e, begin, std::min(kPieceBytes, length - begin)});
    }
    backends = std::max(backends, locations[first + e].backend + 1);
  }
  ADA_OBS_COUNT("retrieve.pieces", pieces.size());
  const bool fan_out = pieces.size() > 1 && ThreadPool::shared().budget(threads_) > 1;
  if (fan_out) {
    ADA_OBS_COUNT("retrieve.sg.calls", 1);
    ADA_OBS_COUNT("retrieve.sg.extents", readers.size());
  }
  const auto backend_of = [&](const Piece& piece) {
    return locations[first + piece.extent].backend;
  };

  // One piece in flight runs in location order.  A fan-out groups pieces by
  // owning backend (locality: within a backend, reads stay in location
  // order -- sequential on a spinning server), then interleaves the groups
  // round-robin so the pool's in-order task claim spreads across backends
  // instead of queueing behind one server's admission window.
  std::vector<std::size_t> order(pieces.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (fan_out && backends > 1) {
    std::vector<std::vector<std::size_t>> by_backend(backends);
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      by_backend[backend_of(pieces[p])].push_back(p);
    }
    order.clear();
    for (std::size_t round = 0; order.size() < pieces.size(); ++round) {
      for (const auto& group : by_backend) {
        if (round < group.size()) order.push_back(group[round]);
      }
    }
  }
  // A piece skipped past a failure keeps its OK status: the fold below
  // stops at that failure before it reaches the skipped piece.
  std::vector<Status> results(pieces.size());
  std::vector<std::uint32_t> crcs(pieces.size(), 0);
  AdmissionWindow window(backends, fan_out ? kBackendDepth : 0);
  std::vector<std::span<std::uint8_t>> slots;
  slots.reserve(readers.size());
  for (std::size_t e = 0; e < readers.size(); ++e) {
    slots.push_back(buffer(first + e));
    if (slots.back().size() != readers[e].length()) {
      return internal_error("extent buffer of the wrong size for " +
                            locations[first + e].host_path);
    }
  }

  // Each piece task preads its slice and checksums it while the bytes are
  // in cache.  A task holds exactly one admission slot while it reads, so
  // blocked acquires always wait on running tasks and the batch drains
  // (common/admission.hpp).
  run_until_failure(order, threads_, [&](std::size_t p) {
    const Piece& piece = pieces[p];
    const std::uint32_t backend = backend_of(piece);
    const std::uint64_t waits = window.acquire(backend);
    if (waits != 0) ADA_OBS_COUNT("retrieve.sg.admission_waits", waits);
    const std::span<std::uint8_t> bytes = slots[piece.extent].subspan(piece.begin, piece.size);
    {
      const obs::Span read_span("read");
      results[p] = readers[piece.extent].read(piece.begin, bytes);
    }
    if (results[p].is_ok()) {
      const obs::Span crc_span("crc");
      crcs[p] = crc32c(bytes.data(), bytes.size());
    }
    window.release(backend);
    return results[p].is_ok();
  });

  // Fold each extent's piece checksums in piece order and verify, in
  // location order: the first failure is the one a serial loop stops on
  // (run_until_failure skips only pieces past it).  A transient failure
  // after progress ends the round as progress, so it is retried next round.
  const auto end_round = [&](Status status) {
    return *done > first && is_transient(status.error().code()) ? Status::ok() : status;
  };
  std::uint64_t round_bytes = 0;
  std::size_t p = 0;
  for (std::size_t e = 0; e < readers.size(); ++e) {
    const obs::Span fold_span("crc");
    std::uint32_t crc = 0;
    for (; p < pieces.size() && pieces[p].extent == e; ++p) {
      if (!results[p].is_ok()) return end_round(results[p]);
      crc = crc32c_combine(crc, crcs[p], pieces[p].size);
    }
    const DatasetLocation& location = locations[first + e];
    if (location.has_crc && crc != location.crc32c) {
      ADA_OBS_COUNT("plfs.crc_mismatch", 1);
      return corrupt_data("checksum mismatch on " + location.host_path);
    }
    round_bytes += location.bytes;
    ++*done;
  }
  if (fan_out) ADA_OBS_COUNT("retrieve.sg.bytes", round_bytes);
  return failure.is_ok() ? Status::ok() : end_round(failure);
}

}  // namespace ada::core
