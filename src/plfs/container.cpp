#include "plfs/container.hpp"

#include <algorithm>
#include <cstring>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"

namespace ada::plfs {

namespace {
constexpr std::uint8_t kIndexMagicV1[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '1'};
constexpr std::uint8_t kIndexMagicV2[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '2'};
constexpr std::uint8_t kIndexMagicV3[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '3'};
// v2 only: the record carries a per-frame u64 offset table.
constexpr std::uint8_t kV2FrameTable = 0x02;
// Smallest encoded record (v1: no checksum or flags), to bound a lying count.
constexpr std::size_t kMinRecordBytes = 8 + 8 + 4 + 4 + 4 + 8;

bool has_magic(std::span<const std::uint8_t> image, const std::uint8_t (&magic)[8]) {
  return image.size() >= 8 && std::memcmp(image.data(), magic, 8) == 0;
}

/// The records (and, for v3, the stream state) after the magic.
Result<Index> decode_body(ByteReader& r, int version) {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t count, r.get_u32_le());
  Index index;
  index.records.reserve(std::min<std::size_t>(count, r.remaining() / kMinRecordBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    IndexRecord record;
    ADA_ASSIGN_OR_RETURN(record.logical_offset, r.get_u64_le());
    ADA_ASSIGN_OR_RETURN(record.length, r.get_u64_le());
    ADA_ASSIGN_OR_RETURN(record.backend, r.get_u32_le());
    ADA_ASSIGN_OR_RETURN(record.label, r.get_string_le());
    ADA_ASSIGN_OR_RETURN(record.dropping, r.get_string_le());
    ADA_ASSIGN_OR_RETURN(record.physical_offset, r.get_u64_le());
    if (version >= 2) {
      ADA_ASSIGN_OR_RETURN(record.crc32c, r.get_u32_le());
      ADA_ASSIGN_OR_RETURN(record.flags, r.get_u8());
    }
    const std::uint8_t known = IndexRecord::kHasChecksum | IndexRecord::kHasFrameSpan |
                               (version == 2 ? kV2FrameTable : 0) |
                               (version == 3 ? IndexRecord::kHasAtomCount : 0);
    if ((record.flags & ~known) != 0) return corrupt_data("unknown index record flags");
    if (record.has_atom_count() && !record.has_frame_span()) {
      return corrupt_data("index record has an atom count but no frame span");
    }
    // v2 frame table: per-frame u64 offsets, skipped (get_bytes checks the
    // count against the bytes present before it allocates, so a lying count
    // fails cheaply).  The record keeps only what its flags state; fsck
    // --repair rebuilds its shape.
    if ((record.flags & kV2FrameTable) != 0) {
      ADA_ASSIGN_OR_RETURN(const std::uint32_t table_frames, r.get_u32_le());
      ADA_RETURN_IF_ERROR(r.get_bytes(std::size_t{8} * table_frames).status());
      record.flags &= static_cast<std::uint8_t>(~kV2FrameTable);
    }
    if (record.has_frame_span()) {
      ADA_ASSIGN_OR_RETURN(record.frame_base, r.get_u64_le());
      ADA_ASSIGN_OR_RETURN(record.frame_count, r.get_u32_le());
      if (record.has_atom_count()) {
        ADA_ASSIGN_OR_RETURN(record.atom_count, r.get_u32_le());
      }
    }
    index.records.push_back(std::move(record));
  }
  if (version == 3) {
    ADA_ASSIGN_OR_RETURN(const std::uint8_t streamed, r.get_u8());
    if (streamed > 1) return corrupt_data("bad stream state flag");
    if (streamed == 1) {
      StreamState state;
      ADA_ASSIGN_OR_RETURN(const std::uint8_t sealed, r.get_u8());
      if (sealed > 1) return corrupt_data("bad stream sealed flag");
      state.sealed = sealed != 0;
      ADA_ASSIGN_OR_RETURN(state.sealed_frames, r.get_u64_le());
      ADA_ASSIGN_OR_RETURN(state.sealed_chunks, r.get_u64_le());
      ADA_ASSIGN_OR_RETURN(state.floor_frames, r.get_u64_le());
      ADA_ASSIGN_OR_RETURN(state.retention_drops, r.get_u64_le());
      if (state.floor_frames > state.sealed_frames) {
        return corrupt_data("stream floor above the watermark");
      }
      index.stream = state;
    }
  }
  if (!r.at_end()) return corrupt_data("trailing bytes after plfs index records");
  return index;
}

}  // namespace

std::vector<std::uint8_t> encode_index(const Index& index) {
  ByteWriter w;
  w.put_bytes(kIndexMagicV3);
  w.put_u32_le(static_cast<std::uint32_t>(index.records.size()));
  for (const IndexRecord& r : index.records) {
    w.put_u64_le(r.logical_offset);
    w.put_u64_le(r.length);
    w.put_u32_le(r.backend);
    w.put_string_le(r.label);
    w.put_string_le(r.dropping);
    w.put_u64_le(r.physical_offset);
    w.put_u32_le(r.crc32c);
    w.put_u8(r.flags);
    if (r.has_frame_span()) {
      w.put_u64_le(r.frame_base);
      w.put_u32_le(r.frame_count);
    }
    if (r.has_atom_count()) w.put_u32_le(r.atom_count);
  }
  w.put_u8(index.stream.has_value() ? 1 : 0);
  if (index.stream.has_value()) {
    const StreamState& state = *index.stream;
    w.put_u8(state.sealed ? 1 : 0);
    w.put_u64_le(state.sealed_frames);
    w.put_u64_le(state.sealed_chunks);
    w.put_u64_le(state.floor_frames);
    w.put_u64_le(state.retention_drops);
  }
  w.put_u32_le(crc32c(w.bytes()));
  return w.take();
}

bool is_legacy_index(std::span<const std::uint8_t> image) {
  return has_magic(image, kIndexMagicV1) || has_magic(image, kIndexMagicV2);
}

Result<Index> decode_index(std::span<const std::uint8_t> image) {
  int version = 0;
  if (has_magic(image, kIndexMagicV3)) {
    version = 3;
    // The CRC seals the whole image: a torn or bit-flipped index is never
    // parsed, let alone trusted.
    if (image.size() < 8 + 4 + 1 + 4) return corrupt_data("short plfs index");
    ByteReader crc_reader(image.last(4));
    const std::uint32_t stored = crc_reader.get_u32_le().value();
    image = image.first(image.size() - 4);
    if (stored != crc32c(image.data(), image.size())) {
      return corrupt_data("plfs index crc mismatch");
    }
  } else if (has_magic(image, kIndexMagicV2)) {
    version = 2;
  } else if (has_magic(image, kIndexMagicV1)) {
    version = 1;
  } else {
    return corrupt_data("bad plfs index magic");
  }
  ByteReader r(image.subspan(8));
  auto index = decode_body(r, version);
  if (!index.is_ok() && index.error().code() != ErrorCode::kCorruptData) {
    return corrupt_data("malformed plfs index: " + index.error().message());
  }
  return index;
}

std::uint64_t logical_size(const std::vector<IndexRecord>& records) {
  std::uint64_t end = 0;
  for (const IndexRecord& r : records) end = std::max(end, r.logical_offset + r.length);
  return end;
}

bool is_complete(const std::vector<IndexRecord>& records, bool from_first) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(records.size());
  for (const IndexRecord& r : records) {
    if (r.length > 0) extents.emplace_back(r.logical_offset, r.logical_offset + r.length);
  }
  std::sort(extents.begin(), extents.end());
  std::uint64_t cursor = from_first && !extents.empty() ? extents.front().first : 0;
  for (const auto& [begin, end] : extents) {
    if (begin != cursor) return false;  // hole or overlap
    cursor = end;
  }
  return true;
}

}  // namespace ada::plfs
