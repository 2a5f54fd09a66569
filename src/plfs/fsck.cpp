#include "plfs/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "common/crc32c.hpp"
#include "formats/raw_traj.hpp"

namespace ada::plfs {

Result<VerifyReport> verify_container(const PlfsMount& mount, const std::string& logical_name) {
  VerifyReport report;
  ADA_ASSIGN_OR_RETURN(Index index, mount.read_index(logical_name));
  const std::optional<StreamState>& state = index.stream;
  report.stream_open = state.has_value() && !state->sealed;

  // Live-stream state: extents above the sealed watermark are the open tail
  // -- published ahead of their watermark and possibly damaged when the
  // stream died, so they are classified here and exempted from the
  // broken/checksum/shape checks below.
  const auto is_open_tail = [&](const IndexRecord& r) {
    return state.has_value() && r.has_frame_span() &&
           r.frame_base + r.frame_count > state->sealed_frames;
  };

  // Shapes follow the rule a range query plans by: per label, in logical
  // order, each RAW extent holds its header's frames and atoms right after
  // the frames before it, from the floor.  A damaged record keeps its
  // stored count in the running base; repair cuts a stream below it.
  const std::uint64_t floor = state.has_value() ? state->floor_frames : 0;
  std::stable_sort(index.records.begin(), index.records.end(),
                   [](const IndexRecord& a, const IndexRecord& b) {
                     return a.logical_offset < b.logical_offset;
                   });
  std::map<std::string, std::uint64_t> next_frame;  // per label
  std::vector<std::set<std::string>> referenced(mount.backend_count());  // per backend
  for (const IndexRecord& record : index.records) {
    if (is_open_tail(record)) {
      report.open_tail_records.push_back(record);
      if (record.backend < mount.backend_count()) {
        referenced[record.backend].insert(record.dropping);  // tail, not orphan
      }
      continue;
    }
    std::uint64_t& base = next_frame.try_emplace(record.label, floor).first->second;
    const std::uint64_t stored_frames = record.has_frame_span() ? record.frame_count : 0;
    std::string path;
    bool broken = record.backend >= mount.backend_count();
    if (!broken) {
      referenced[record.backend].insert(record.dropping);
      path = mount.dropping_host_path(record.backend, logical_name, record.dropping);
      broken = !extent_fits(path, record.physical_offset, record.length);
    }
    if (broken) {
      report.broken_records.push_back(record);
      base += stored_frames;
      continue;
    }
    // The extent fits its dropping: read exactly it and verify the stored
    // checksum (v1 records carry none, so their bytes are taken as they are).
    ADA_ASSIGN_OR_RETURN(const ExtentReader reader,
                         ExtentReader::open(path, record.physical_offset, record.length,
                                            /*fault_site=*/false));
    std::vector<std::uint8_t> extent(record.length);
    ADA_RETURN_IF_ERROR(reader.read(0, extent));
    if (record.has_checksum() && crc32c(extent.data(), extent.size()) != record.crc32c) {
      report.checksum_bad_records.push_back(record);
      base += stored_frames;
      continue;
    }
    const auto raw = formats::RawTrajReader::open(extent);
    if (!raw.is_ok()) {
      if (record.has_frame_span()) report.wrong_shapes.push_back({record, std::nullopt});
      continue;
    }
    const FrameSpan shape{base, raw.value().frame_count(), raw.value().atom_count()};
    base += shape.count;
    if (!record.has_atom_count()) {
      report.shapeless_records.push_back({record, shape});
    } else if (record.frame_base != shape.base || record.frame_count != shape.count ||
               record.atom_count != *shape.atoms) {
      report.wrong_shapes.push_back({record, shape});
    }
  }

  for (std::uint32_t b = 0; b < mount.backend_count(); ++b) {
    ADA_ASSIGN_OR_RETURN(const auto files, mount.list_dropping_files(b, logical_name));
    for (const std::string& file : files) {
      if (referenced[b].count(file) == 0) report.orphan_droppings.emplace_back(b, file);
    }
  }

  // Retention deletes the oldest records, so a retained stream tiles from
  // its first live extent, not from offset 0.
  const bool retained = state.has_value() && state->floor_frames > 0;
  report.extents_complete = report.broken_records.empty() &&
                            report.checksum_bad_records.empty() &&
                            is_complete(index.records, retained);
  return report;
}

Result<RepairActions> repair_container(PlfsMount& mount, const std::string& logical_name) {
  ADA_ASSIGN_OR_RETURN(const VerifyReport report, verify_container(mount, logical_name));
  RepairActions actions;
  // clean() tolerates an open stream (a live producer is not damage), but
  // repair is the operator declaring the producer dead: an open stream must
  // still be sealed even when nothing else needs fixing.
  if (report.clean() && !report.stream_open) return actions;
  ADA_ASSIGN_OR_RETURN(Index index, mount.read_index(logical_name));
  const auto listed = [](const std::vector<IndexRecord>& list, const IndexRecord& record) {
    return std::find(list.begin(), list.end(), record) != list.end();
  };
  const auto damaged = [&](const IndexRecord& record) {
    return listed(report.broken_records, record) || listed(report.checksum_bad_records, record);
  };

  // A damaged chunk below a stream's watermark breaks the promise that
  // every sealed frame reads on every tag.  Cut the stream at its first
  // damaged frame and set everything above the cut aside with the open
  // tail, so each tag again reads a byte-prefix of the stream.  This is the
  // one write that lowers a watermark, and only on a stream declared dead.
  std::vector<IndexRecord> tail = report.open_tail_records;
  if (index.stream.has_value()) {
    StreamState& state = *index.stream;
    std::uint64_t cut = state.sealed_frames;
    for (const IndexRecord& record : index.records) {
      if (record.has_frame_span() && damaged(record)) cut = std::min(cut, record.frame_base);
    }
    state.sealed_frames = std::max(cut, state.floor_frames);
    for (const IndexRecord& record : index.records) {
      if (record.has_frame_span() && record.frame_base + record.frame_count > state.sealed_frames &&
          !damaged(record) && !listed(tail, record)) {
        tail.push_back(record);
      }
    }
  }

  // Set aside checksum-bad droppings and the tail's droppings before the
  // publish, so a failure mid-repair never leaves a bad extent referenced
  // and unmarked.
  const auto quarantine = [&](const IndexRecord& record) -> Status {
    const std::string path =
        mount.dropping_host_path(record.backend, logical_name, record.dropping);
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (ec) return io_error("cannot quarantine " + record.dropping + ": " + ec.message());
    return Status::ok();
  };
  for (const IndexRecord& record : report.checksum_bad_records) {
    ADA_RETURN_IF_ERROR(quarantine(record));
    ++actions.extents_quarantined;
  }
  for (const IndexRecord& record : tail) {
    // A missing tail dropping just means the crash came even earlier.
    if (record.backend < mount.backend_count()) (void)quarantine(record);
    ++actions.tail_records_dropped;
  }

  // One publication: the records without the dropped ones, with the kept
  // ones' listed shapes rebuilt, and, for an interrupted stream, the seal at
  // its watermark.  The sealed prefix below the watermark stays readable.
  const bool drops = !report.broken_records.empty() || !report.checksum_bad_records.empty() ||
                     !tail.empty();
  const bool reshapes = !report.wrong_shapes.empty() || !report.shapeless_records.empty();
  if (drops || reshapes || report.stream_open) {
    std::erase_if(index.records, [&](const IndexRecord& record) {
      return damaged(record) || listed(tail, record);
    });
    for (const auto* findings : {&report.wrong_shapes, &report.shapeless_records}) {
      for (const ShapeFinding& finding : *findings) {
        const auto it = std::find(index.records.begin(), index.records.end(), finding.record);
        if (it == index.records.end()) continue;  // set aside above a stream's cut
        it->flags &= IndexRecord::kHasChecksum;  // the stored shape goes
        it->frame_base = it->frame_count = it->atom_count = 0;
        if (finding.shape.has_value()) it->set_frame_span(*finding.shape);
        ++actions.shapes_rebuilt;
      }
    }
    if (index.stream.has_value()) index.stream->sealed = true;
    // Dropping records or shapes rewrites history; a bare seal moves no frames.
    ADA_RETURN_IF_ERROR(drops || reshapes ? mount.rewrite_index(logical_name, index)
                                          : mount.write_stream_state(logical_name, *index.stream));
    actions.records_dropped = report.broken_records.size();
  }

  for (const auto& [backend, file] : report.orphan_droppings) {
    std::error_code ec;
    std::filesystem::remove(mount.dropping_host_path(backend, logical_name, file), ec);
    if (ec) return io_error("cannot remove orphan " + file + ": " + ec.message());
    ++actions.orphans_removed;
  }
  return actions;
}

}  // namespace ada::plfs
