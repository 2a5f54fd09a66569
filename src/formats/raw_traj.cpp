#include "formats/raw_traj.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/binary_io.hpp"
#include "common/check.hpp"

namespace ada::formats {

namespace {

constexpr std::uint8_t kRawMagic[8] = {'A', 'D', 'A', 'R', 'A', 'W', '1', '\0'};

void encode_frame_header(std::uint8_t* out, std::uint32_t step, float time_ps,
                         const chem::Box& box) {
  std::uint32_t words[11];
  words[0] = to_little_endian32(step);
  words[1] = to_little_endian32(std::bit_cast<std::uint32_t>(time_ps));
  for (std::size_t i = 0; i < 9; ++i) {
    words[2 + i] = to_little_endian32(std::bit_cast<std::uint32_t>(box.matrix[i]));
  }
  static_assert(sizeof(words) == kRawFrameHeaderBytes);
  std::memcpy(out, words, sizeof(words));
}

/// `values` as little-endian float32 at `out`; returns the end.
std::uint8_t* encode_floats(std::uint8_t* out, std::span<const float> values) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, values.data(), values.size_bytes());
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::uint32_t wire = to_little_endian32(std::bit_cast<std::uint32_t>(values[i]));
      std::memcpy(out + 4 * i, &wire, 4);
    }
  }
  return out + values.size_bytes();
}

/// One frame record of `atoms` atoms, decoded.
Result<TrajFrame> decode_record(std::span<const std::uint8_t> record, std::uint32_t atoms) {
  ByteReader r(record);
  TrajFrame out;
  ADA_ASSIGN_OR_RETURN(out.step, r.get_u32_le());
  ADA_ASSIGN_OR_RETURN(out.time_ps, r.get_f32_le());
  for (float& v : out.box.matrix) {
    ADA_ASSIGN_OR_RETURN(v, r.get_f32_le());
  }
  out.coords.resize(std::size_t{3} * atoms);
  for (float& v : out.coords) {
    ADA_ASSIGN_OR_RETURN(v, r.get_f32_le());
  }
  return out;
}

/// Every frame of `reader`, decoded in order.
template <typename Reader>
Result<std::vector<TrajFrame>> read_frames(const Reader& reader) {
  std::vector<TrajFrame> frames;
  frames.reserve(reader.frame_count());
  for (std::uint32_t i = 0; i < reader.frame_count(); ++i) {
    ADA_ASSIGN_OR_RETURN(TrajFrame f, reader.frame(i));
    frames.push_back(std::move(f));
  }
  return frames;
}

}  // namespace

bool looks_like_raw(std::span<const std::uint8_t> data) {
  return data.size() >= 8 && std::memcmp(data.data(), kRawMagic, 8) == 0;
}

void encode_raw_header(std::uint8_t* out, std::uint32_t atom_count, std::uint32_t frames) {
  const std::uint32_t counts[2] = {to_little_endian32(atom_count), to_little_endian32(frames)};
  std::memcpy(out, kRawMagic, 8);
  std::memcpy(out + 8, counts, 8);
}

std::vector<std::uint8_t> make_raw_image(std::uint32_t atom_count, std::uint32_t frames) {
  std::vector<std::uint8_t> image(raw_file_bytes(atom_count, frames));
  encode_raw_header(image.data(), atom_count, frames);
  return image;
}

void encode_raw_frame_header(std::uint8_t* out, const FrameStamp& stamp) {
  encode_frame_header(out, stamp.step, stamp.time_ps, stamp.box);
}

std::vector<codec::ScatterRun> raw_scatter_plan(std::span<const chem::Selection* const> groups) {
  struct Piece {
    chem::Run run;
    std::uint32_t group;
    std::uint32_t before;  // the group's atoms ahead of the run
  };
  std::vector<Piece> pieces;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::uint32_t before = 0;
    for (const chem::Run& run : groups[g]->runs()) {
      pieces.push_back(Piece{run, static_cast<std::uint32_t>(g), before});
      before += run.size();
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.run.begin < b.run.begin; });
  std::vector<codec::ScatterRun> plan;
  plan.reserve(pieces.size());
  for (const Piece& piece : pieces) {
    ADA_CHECK(piece.run.begin == (plan.empty() ? 0 : plan.back().end));
    plan.push_back(codec::ScatterRun{piece.run.end, piece.group, raw_coords_offset(piece.before)});
  }
  return plan;
}

void encode_raw_coords(std::span<const codec::ScatterRun> plan, std::span<const float> full_coords,
                       std::span<std::uint8_t* const> records) {
  std::uint32_t begin = 0;
  for (const codec::ScatterRun& run : plan) {
    encode_floats(records[run.target] + run.offset,
                  full_coords.subspan(std::size_t{3} * begin, std::size_t{3} * (run.end - begin)));
    begin = run.end;
  }
}

void encode_raw_frame(std::uint8_t* out, std::uint32_t step, float time_ps, const chem::Box& box,
                      std::span<const float> full_coords, const chem::Selection& selection) {
  encode_frame_header(out, step, time_ps, box);
  out += kRawFrameHeaderBytes;
  for (const chem::Run& run : selection.runs()) {
    out = encode_floats(
        out, full_coords.subspan(std::size_t{3} * run.begin, std::size_t{3} * run.size()));
  }
}

RawTrajWriter::RawTrajWriter(std::uint32_t atom_count, std::uint64_t reserve_frames)
    : atom_count_(atom_count), buffer_(make_raw_image(atom_count, 0)) {
  buffer_.reserve(raw_file_bytes(atom_count, reserve_frames));
}

std::uint8_t* RawTrajWriter::append_frame() {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + raw_frame_bytes(atom_count_));
  ++frame_count_;
  return buffer_.data() + at;
}

Status RawTrajWriter::add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                                std::span<const float> coords) {
  if (coords.size() != std::size_t{3} * atom_count_) {
    return invalid_argument("frame has " + std::to_string(coords.size() / 3) + " atoms, expected " +
                            std::to_string(atom_count_));
  }
  std::uint8_t* out = append_frame();
  encode_frame_header(out, step, time_ps, box);
  encode_floats(out + kRawFrameHeaderBytes, coords);
  return Status::ok();
}

Status RawTrajWriter::add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                                std::span<const float> full_coords,
                                const chem::Selection& selection) {
  const auto& runs = selection.runs();
  if (selection.count() != atom_count_) {
    return invalid_argument("selection has " + std::to_string(selection.count()) +
                            " atoms, expected " + std::to_string(atom_count_));
  }
  if (!runs.empty() && std::size_t{3} * runs.back().end > full_coords.size()) {
    return invalid_argument("selection reaches atom " + std::to_string(runs.back().end - 1) +
                            " of a " + std::to_string(full_coords.size() / 3) + "-atom frame");
  }
  encode_raw_frame(append_frame(), step, time_ps, box, full_coords, selection);
  return Status::ok();
}

Status RawTrajWriter::append_record(std::span<const std::uint8_t> record) {
  if (record.size() != raw_frame_bytes(atom_count_)) {
    return invalid_argument("frame record is " + std::to_string(record.size()) +
                            " bytes, expected " + std::to_string(raw_frame_bytes(atom_count_)));
  }
  buffer_.insert(buffer_.end(), record.begin(), record.end());
  ++frame_count_;
  return Status::ok();
}

std::vector<std::uint8_t> RawTrajWriter::finish() {
  const std::uint32_t wire = to_little_endian32(frame_count_);
  std::memcpy(buffer_.data() + 12, &wire, 4);
  return std::move(buffer_);
}

Result<RawTrajReader> RawTrajReader::open_prefix(std::span<const std::uint8_t> data) {
  if (data.size() < 16 || !looks_like_raw(data)) return corrupt_data("bad raw trajectory header");
  ByteReader r(data.subspan(8));
  ADA_ASSIGN_OR_RETURN(const std::uint32_t atoms, r.get_u32_le());
  ADA_ASSIGN_OR_RETURN(const std::uint32_t frames, r.get_u32_le());
  // Divide rather than multiply: a hostile header's frames x frame size can
  // wrap 64 bits back onto the real length.
  if (frames != 0 && (data.size() - 16) / frames < raw_frame_bytes(atoms)) {
    return corrupt_data("raw trajectory truncated: " + std::to_string(data.size()) +
                        " bytes hold no " + std::to_string(frames) + " frames of " +
                        std::to_string(atoms) + " atoms");
  }
  return RawTrajReader(data.first(raw_file_bytes(atoms, frames)), atoms, frames);
}

Result<RawTrajReader> RawTrajReader::open(std::span<const std::uint8_t> data) {
  ADA_ASSIGN_OR_RETURN(const RawTrajReader reader, open_prefix(data));
  if (reader.data_.size() != data.size()) {
    return corrupt_data("raw trajectory size mismatch: file " + std::to_string(data.size()) +
                        " bytes, header implies " + std::to_string(reader.data_.size()));
  }
  return reader;
}

Result<TrajFrame> RawTrajReader::frame(std::uint32_t index) const {
  if (index >= frame_count_) {
    return out_of_range("frame " + std::to_string(index) + " of " + std::to_string(frame_count_));
  }
  return decode_record(record(index), atom_count_);
}

std::span<const std::uint8_t> RawTrajReader::record(std::uint32_t index) const {
  ADA_CHECK(index < frame_count_);
  return data_.subspan(raw_file_bytes(atom_count_, index), raw_frame_bytes(atom_count_));
}

Result<std::vector<TrajFrame>> RawTrajReader::read_all() const { return read_frames(*this); }

Result<RawTrajCatReader> RawTrajCatReader::open(std::span<const std::uint8_t> data) {
  RawTrajCatReader cat;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto segment = RawTrajReader::open_prefix(data.subspan(offset));
    if (!segment.is_ok()) {
      return corrupt_data("raw segment at offset " + std::to_string(offset) + ": " +
                          segment.error().message());
    }
    const RawTrajReader& reader = segment.value();
    if (cat.segments_.empty()) {
      cat.atom_count_ = reader.atom_count();
    } else if (reader.atom_count() != cat.atom_count_) {
      return corrupt_data("raw segments disagree on atom count: " +
                          std::to_string(reader.atom_count()) + " vs " +
                          std::to_string(cat.atom_count_));
    }
    cat.segments_.push_back(Segment{reader, cat.frame_count_});
    cat.frame_count_ += reader.frame_count();
    offset += reader.data_.size();
  }
  return cat;
}

Result<TrajFrame> RawTrajCatReader::frame(std::uint32_t index) const {
  if (index >= frame_count_) {
    return out_of_range("frame " + std::to_string(index) + " of " + std::to_string(frame_count_));
  }
  return decode_record(record(index), atom_count_);
}

std::span<const std::uint8_t> RawTrajCatReader::record(std::uint32_t index) const {
  ADA_CHECK(index < frame_count_);
  // The owning segment is the last one starting at or before `index` (ties
  // from zero-frame segments resolve to the later, owning one).
  const Segment& segment =
      *(std::upper_bound(segments_.begin(), segments_.end(), index,
                         [](std::uint32_t i, const Segment& s) { return i < s.first_frame; }) -
        1);
  return segment.reader.record(index - segment.first_frame);
}

Result<std::vector<TrajFrame>> RawTrajCatReader::read_all() const { return read_frames(*this); }

}  // namespace ada::formats
