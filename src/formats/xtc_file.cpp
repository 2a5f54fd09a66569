#include "formats/xtc_file.hpp"

#include "xdr/xdr.hpp"

namespace ada::formats {

namespace {

constexpr std::uint32_t kMaxPredictorId =
    static_cast<std::uint32_t>(codec::Predictor::kLinear);

/// One frame's fields as the XDR stream carries them, its coordinate
/// payload left in the image.
struct ParsedFrame {
  std::uint32_t step = 0;
  float time_ps = 0.0f;
  chem::Box box;
  bool v2 = false;
  codec::CompressedFrame coords;  // coordinate-block header; payload not copied
  std::span<const std::uint8_t> payload;
  std::size_t bytes = 0;  // encoded size of the whole frame
};

/// Parse and validate the frame at the start of `data`.
Result<ParsedFrame> parse_frame(std::span<const std::uint8_t> data) {
  xdr::XdrReader r(data);
  ADA_ASSIGN_OR_RETURN(const std::int32_t magic, r.get_i32());
  if (magic != kXtcMagic) return corrupt_data("bad xtc frame magic: " + std::to_string(magic));

  ParsedFrame out;
  codec::CompressedFrame& frame = out.coords;
  ADA_ASSIGN_OR_RETURN(frame.atom_count, r.get_u32());
  ADA_ASSIGN_OR_RETURN(out.step, r.get_u32());
  ADA_ASSIGN_OR_RETURN(out.time_ps, r.get_f32());
  for (float& v : out.box.matrix) {
    ADA_ASSIGN_OR_RETURN(v, r.get_f32());
  }
  ADA_ASSIGN_OR_RETURN(const std::uint32_t codec_magic, r.get_u32());
  out.v2 = codec_magic == kAda3dV2Magic;
  if (!out.v2 && codec_magic != kAda3dMagic) {
    return corrupt_data("unsupported xtc coordinate codec: " + std::to_string(codec_magic));
  }
  if (out.v2) {
    ADA_ASSIGN_OR_RETURN(const std::uint32_t predictor, r.get_u32());
    if (predictor > kMaxPredictorId) {
      return corrupt_data("bad predictor id: " + std::to_string(predictor));
    }
    frame.predictor = static_cast<codec::Predictor>(predictor);
  }
  ADA_ASSIGN_OR_RETURN(frame.precision, r.get_f32());
  for (int d = 0; d < 3; ++d) {
    ADA_ASSIGN_OR_RETURN(frame.min_quantum[d], r.get_i32());
  }
  for (int d = 0; d < 3; ++d) {
    ADA_ASSIGN_OR_RETURN(const std::uint32_t bits, r.get_u32());
    if (bits > 32) return corrupt_data("bad full_bits field");
    frame.full_bits[d] = static_cast<std::uint8_t>(bits);
  }
  ADA_ASSIGN_OR_RETURN(const std::uint32_t small_bits, r.get_u32());
  if (small_bits > (out.v2 ? 32u : 31u)) return corrupt_data("bad small_bits field");
  frame.small_bits = static_cast<std::uint8_t>(small_bits);
  ADA_ASSIGN_OR_RETURN(const std::uint32_t bits_hi, r.get_u32());
  ADA_ASSIGN_OR_RETURN(const std::uint32_t bits_lo, r.get_u32());
  frame.payload_bits = (static_cast<std::uint64_t>(bits_hi) << 32) | bits_lo;
  ADA_ASSIGN_OR_RETURN(out.payload, r.get_opaque_view());
  out.bytes = r.position();
  return out;
}

}  // namespace

Status XtcWriter::add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                            std::span<const float> coords, codec::PerAtomCost* per_atom) {
  codec::CompressedFrame frame;
  if (version_ == codec::CodecVersion::kV1) {
    ADA_ASSIGN_OR_RETURN(frame, codec::compress(coords, params_, per_atom));
  } else {
    // Force a keyframe (intra decode entry point) at least every
    // keyframe_interval frames by dropping the prediction context.
    if (frames_since_keyframe_ >= keyframe_interval_) ctx_.reset();
    ADA_ASSIGN_OR_RETURN(frame, codec::compress_v2(coords, params_, ctx_, per_atom));
    frames_since_keyframe_ =
        frame.predictor == codec::Predictor::kIntra ? 1 : frames_since_keyframe_ + 1;
  }
  xdr::XdrWriter w;
  w.put_i32(kXtcMagic);
  w.put_u32(frame.atom_count);
  w.put_u32(step);
  w.put_f32(time_ps);
  for (float v : box.matrix) w.put_f32(v);
  // Coordinate block (ada3d variant; v2 adds the predictor word).
  if (version_ == codec::CodecVersion::kV1) {
    w.put_u32(kAda3dMagic);
  } else {
    w.put_u32(kAda3dV2Magic);
    w.put_u32(static_cast<std::uint32_t>(frame.predictor));
  }
  w.put_f32(frame.precision);
  for (int d = 0; d < 3; ++d) w.put_i32(frame.min_quantum[d]);
  for (int d = 0; d < 3; ++d) w.put_u32(frame.full_bits[d]);
  w.put_u32(frame.small_bits);
  w.put_u32(static_cast<std::uint32_t>(frame.payload_bits >> 32));
  w.put_u32(static_cast<std::uint32_t>(frame.payload_bits & 0xffffffffu));
  w.put_opaque(frame.payload);

  const auto& bytes = w.bytes();
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  ++frame_count_;
  return Status::ok();
}

Result<std::optional<TrajFrame>> XtcReader::next() {
  TrajFrame out;
  ADA_ASSIGN_OR_RETURN(const bool decoded, next(out));
  if (!decoded) return std::optional<TrajFrame>{};
  return std::optional<TrajFrame>(std::move(out));
}

Result<bool> XtcReader::next(TrajFrame& out) {
  if (pos_ == data_.size()) return false;
  ADA_ASSIGN_OR_RETURN(const ParsedFrame frame, parse_frame(data_.subspan(pos_)));
  if (frame.v2) {
    ADA_RETURN_IF_ERROR(codec::decompress_v2_into(frame.coords, frame.payload, ctx_, out.coords));
  } else {
    ctx_.reset();  // a v1 frame carries no temporal context forward
    ADA_RETURN_IF_ERROR(codec::decompress_into(frame.coords, frame.payload, out.coords));
  }
  out.step = frame.step;
  out.time_ps = frame.time_ps;
  out.box = frame.box;
  pos_ += frame.bytes;
  return true;
}

void XtcReader::seek(std::size_t offset) {
  pos_ = offset;
  ctx_.reset();
}

Result<bool> XtcReader::skip() {
  if (pos_ == data_.size()) return false;
  ADA_ASSIGN_OR_RETURN(const ParsedFrame frame, parse_frame(data_.subspan(pos_)));
  pos_ += frame.bytes;
  ctx_.reset();  // the skipped frame is missing from the temporal context
  return true;
}

Result<std::vector<TrajFrame>> read_all_xtc(std::span<const std::uint8_t> data) {
  std::vector<TrajFrame> frames;
  XtcReader reader(data);
  while (true) {
    ADA_ASSIGN_OR_RETURN(auto frame, reader.next());
    if (!frame.has_value()) break;
    frames.push_back(std::move(*frame));
  }
  return frames;
}

Result<std::vector<XtcIndexEntry>> build_xtc_index(std::span<const std::uint8_t> data) {
  std::vector<XtcIndexEntry> index;
  for (std::size_t pos = 0; pos < data.size();) {
    ADA_ASSIGN_OR_RETURN(const ParsedFrame frame, parse_frame(data.subspan(pos)));
    index.push_back(XtcIndexEntry{pos, frame.step, frame.time_ps});
    pos += frame.bytes;
  }
  return index;
}

namespace {

std::uint32_t load_u32_be(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) | (std::uint32_t{p[2]} << 8) |
         std::uint32_t{p[3]};
}

// Fixed-size prelude of every v1 frame: magic, natoms, step, time, box (9),
// codec magic, precision, min_quantum (3), full_bits (3), small_bits,
// payload_bits (2) -- 24 XDR words before the counted opaque payload.  A v2
// frame inserts the predictor word after the codec magic: 25 words.
constexpr std::size_t kXtcPreludeBytes = 24 * 4;
constexpr std::size_t kXtcV2PreludeBytes = 25 * 4;
constexpr std::size_t kXtcCodecMagicOffset = 13 * 4;
constexpr std::size_t kXtcPredictorOffset = 14 * 4;

}  // namespace

Result<std::vector<XtcFrameExtent>> scan_xtc_extents(std::span<const std::uint8_t> data) {
  std::vector<XtcFrameExtent> extents;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kXtcPreludeBytes + 4) {
      return corrupt_data("truncated xtc frame header at offset " + std::to_string(pos));
    }
    const auto magic = static_cast<std::int32_t>(load_u32_be(data.data() + pos));
    if (magic != kXtcMagic) return corrupt_data("bad xtc frame magic: " + std::to_string(magic));
    const std::uint32_t codec_magic = load_u32_be(data.data() + pos + kXtcCodecMagicOffset);
    std::size_t prelude = kXtcPreludeBytes;
    bool intra = true;
    if (codec_magic == kAda3dV2Magic) {
      prelude = kXtcV2PreludeBytes;
      if (data.size() - pos < prelude + 4) {
        return corrupt_data("truncated xtc v2 frame header at offset " + std::to_string(pos));
      }
      const std::uint32_t predictor = load_u32_be(data.data() + pos + kXtcPredictorOffset);
      if (predictor > kMaxPredictorId) {
        return corrupt_data("bad predictor id: " + std::to_string(predictor));
      }
      intra = predictor == static_cast<std::uint32_t>(codec::Predictor::kIntra);
    } else if (codec_magic != kAda3dMagic) {
      return corrupt_data("unsupported xtc coordinate codec: " + std::to_string(codec_magic));
    }
    const std::size_t payload = load_u32_be(data.data() + pos + prelude);
    const std::size_t size = prelude + 4 + payload + xdr::padding_for(payload);
    if (data.size() - pos < size) {
      return corrupt_data("truncated xtc frame payload at offset " + std::to_string(pos));
    }
    XtcFrameExtent extent;
    extent.offset = pos;
    extent.size = size;
    extent.atom_count = load_u32_be(data.data() + pos + 4);
    extent.intra = intra;
    extents.push_back(extent);
    pos += size;
  }
  return extents;
}

Result<TrajFrame> read_xtc_frame_at(std::span<const std::uint8_t> data, std::size_t offset) {
  if (offset >= data.size()) return out_of_range("xtc frame offset beyond image");
  XtcReader reader(data.subspan(offset));
  ADA_ASSIGN_OR_RETURN(auto frame, reader.next());
  if (!frame.has_value()) return corrupt_data("no frame at the given offset");
  return std::move(*frame);
}

std::vector<float> extract_subset(std::span<const float> coords, const chem::Selection& selection) {
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(selection.count()) * 3);
  for (const chem::Run& run : selection.runs()) {
    ADA_CHECK(static_cast<std::size_t>(run.end) * 3 <= coords.size());
    out.insert(out.end(), coords.begin() + static_cast<std::ptrdiff_t>(run.begin) * 3,
               coords.begin() + static_cast<std::ptrdiff_t>(run.end) * 3);
  }
  return out;
}

}  // namespace ada::formats
