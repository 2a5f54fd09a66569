#include "plfs/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/crc32c.hpp"

namespace ada::plfs {

Result<VerifyReport> verify_container(const PlfsMount& mount, const std::string& logical_name) {
  VerifyReport report;
  ADA_ASSIGN_OR_RETURN(const auto records, mount.read_index(logical_name));

  // Live-stream state: extents above the sealed watermark are the open tail
  // -- possibly mid-write when the stream died, so they are classified here
  // and exempted from the broken/checksum checks below (a short or torn
  // tail dropping is expected, not corruption).
  std::optional<StreamState> state;
  {
    auto state_result = mount.read_stream_state(logical_name);
    if (!state_result.is_ok()) {
      report.stream_state_corrupt = true;
    } else {
      state = state_result.value();
      report.stream_open = state.has_value() && !state->sealed;
    }
  }
  const auto is_open_tail = [&](const IndexRecord& r) {
    return state.has_value() && r.has_frame_base() &&
           r.frame_base + r.frame_count > state->sealed_frames;
  };

  // Referenced droppings, per backend.
  std::vector<std::set<std::string>> referenced(mount.backend_count());
  std::vector<IndexRecord> intact;
  for (const IndexRecord& record : records) {
    if (is_open_tail(record)) {
      report.open_tail_records.push_back(record);
      if (record.backend < mount.backend_count()) {
        referenced[record.backend].insert(record.dropping);  // tail, not orphan
      }
      continue;
    }
    bool broken = record.backend >= mount.backend_count();
    if (!broken && record.has_frame_table()) {
      // Frame tables must address strictly increasing offsets inside the
      // extent; anything else would let a range query read out of bounds.
      std::uint64_t prev = 0;
      bool first = true;
      for (const std::uint64_t off : record.frame_offsets) {
        if (off >= record.length || (!first && off <= prev)) {
          broken = true;
          break;
        }
        prev = off;
        first = false;
      }
    }
    std::string path;
    if (!broken) {
      referenced[record.backend].insert(record.dropping);
      path = mount.dropping_host_path(record.backend, logical_name, record.dropping);
      broken = !extent_fits(path, record.physical_offset, record.length);
    }
    if (broken) {
      report.broken_records.push_back(record);
      continue;
    }
    // The extent fits its dropping: read exactly it and verify the stored
    // checksum (v1 records carry none and are treated as intact).
    bool checksum_bad = false;
    if (record.has_checksum()) {
      std::vector<std::uint8_t> buffer;
      ADA_ASSIGN_OR_RETURN(const auto extent,
                           read_extent(path, record.physical_offset, record.length, [&] {
                             buffer.resize(record.length);
                             return std::span(buffer);
                           }));
      checksum_bad = crc32c(extent.data(), extent.size()) != record.crc32c;
    }
    if (checksum_bad) {
      report.checksum_bad_records.push_back(record);
    } else {
      intact.push_back(record);
    }
  }

  for (std::uint32_t b = 0; b < mount.backend_count(); ++b) {
    ADA_ASSIGN_OR_RETURN(const auto files, mount.list_dropping_files(b, logical_name));
    for (const std::string& file : files) {
      if (referenced[b].count(file) == 0) report.orphan_droppings.emplace_back(b, file);
    }
  }

  report.extents_complete = report.broken_records.empty() &&
                            report.checksum_bad_records.empty() && is_complete(records);
  return report;
}

Result<RepairActions> repair_container(PlfsMount& mount, const std::string& logical_name) {
  ADA_ASSIGN_OR_RETURN(const VerifyReport report, verify_container(mount, logical_name));
  RepairActions actions;
  // clean() tolerates an open stream (a live producer is not damage), but
  // repair is the operator declaring the producer dead: an open stream must
  // still be sealed even when nothing else needs fixing.
  if (report.clean() && !report.stream_open) return actions;

  // Quarantine checksum-bad droppings before touching the index, so a
  // failure mid-repair never leaves a bad extent referenced and unmarked.
  for (const IndexRecord& record : report.checksum_bad_records) {
    const std::string path =
        mount.dropping_host_path(record.backend, logical_name, record.dropping);
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (ec) return io_error("cannot quarantine " + record.dropping + ": " + ec.message());
    ++actions.extents_quarantined;
  }

  if (!report.broken_records.empty() || !report.checksum_bad_records.empty()) {
    ADA_ASSIGN_OR_RETURN(auto records, mount.read_index(logical_name));
    const auto is_bad = [&](const IndexRecord& record) {
      return std::find(report.broken_records.begin(), report.broken_records.end(), record) !=
                 report.broken_records.end() ||
             std::find(report.checksum_bad_records.begin(), report.checksum_bad_records.end(),
                       record) != report.checksum_bad_records.end();
    };
    std::erase_if(records, is_bad);
    ADA_RETURN_IF_ERROR(mount.rewrite_index(logical_name, records));
    actions.records_dropped = report.broken_records.size();
  }

  for (const auto& [backend, file] : report.orphan_droppings) {
    std::error_code ec;
    std::filesystem::remove(mount.dropping_host_path(backend, logical_name, file), ec);
    if (ec) return io_error("cannot remove orphan " + file + ": " + ec.message());
    ++actions.orphans_removed;
  }

  // Interrupted stream: quarantine the open tail and seal at the watermark.
  // The sealed prefix below it is untouched and stays readable.  An open
  // stream with NO tail (the producer died exactly between flushes) is
  // sealed too -- invoking repair declares the producer dead, and a stream
  // nobody will ever finish must not keep followers polling forever.
  if (!report.open_tail_records.empty() || report.stream_state_corrupt || report.stream_open) {
    ADA_ASSIGN_OR_RETURN(auto records, mount.read_index(logical_name));
    StreamState sealed_state;
    if (report.stream_state_corrupt) {
      // Reconstruct conservatively from the surviving index: each tag's
      // streamed extents cover [begin, end); the largest prefix durable on
      // EVERY tag ends at the minimum end, and nothing exists below the
      // maximum begin (retention may have dropped different amounts).
      std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> span;
      for (const IndexRecord& r : records) {
        if (!r.has_frame_base()) continue;
        const auto [it, fresh] =
            span.try_emplace(r.label, r.frame_base, r.frame_base + r.frame_count);
        if (!fresh) {
          it->second.first = std::min(it->second.first, r.frame_base);
          it->second.second = std::max(it->second.second, r.frame_base + r.frame_count);
        }
      }
      bool first = true;
      for (const auto& [label, covered] : span) {
        sealed_state.floor_frames =
            first ? covered.first : std::max(sealed_state.floor_frames, covered.first);
        sealed_state.sealed_frames =
            first ? covered.second : std::min(sealed_state.sealed_frames, covered.second);
        first = false;
      }
      sealed_state.floor_frames = std::min(sealed_state.floor_frames, sealed_state.sealed_frames);
    } else {
      ADA_ASSIGN_OR_RETURN(const auto state, mount.read_stream_state(logical_name));
      if (state.has_value()) sealed_state = *state;
    }
    // Everything above the (possibly reconstructed) watermark is tail: set
    // the droppings aside and drop the records.
    std::vector<IndexRecord> keep;
    keep.reserve(records.size());
    for (IndexRecord& r : records) {
      if (r.has_frame_base() && r.frame_base + r.frame_count > sealed_state.sealed_frames) {
        if (r.backend < mount.backend_count()) {
          const std::string path =
              mount.dropping_host_path(r.backend, logical_name, r.dropping);
          std::error_code ec;
          std::filesystem::rename(path, path + ".quarantined", ec);
          // A missing tail dropping just means the crash came even earlier.
        }
        ++actions.tail_records_dropped;
      } else {
        keep.push_back(std::move(r));
      }
    }
    if (actions.tail_records_dropped != 0) {
      ADA_RETURN_IF_ERROR(mount.rewrite_index(logical_name, keep));
    }
    sealed_state.sealed = true;
    ADA_RETURN_IF_ERROR(mount.write_stream_state(logical_name, sealed_state));
  }
  return actions;
}

}  // namespace ada::plfs
