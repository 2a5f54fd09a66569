#include "codec/coord_codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "codec/bitstream.hpp"
#include "obs/metrics.hpp"

namespace ada::codec {

namespace {

// Quantized coordinates must stay well inside int32 so deltas cannot overflow.
constexpr std::int64_t kMaxQuantum = std::int64_t{1} << 30;

// Predicted-frame large records store one 32-bit zigzag residual per
// dimension: residuals of grid values in (-2^30, 2^30) against predictors
// clamped to the same range always fit.
constexpr unsigned kResidualFullBits = 32;

struct QuantizedFrame {
  std::vector<std::int32_t> q;  // xyz triplets, grid units
  std::int32_t mins[3];
  std::int32_t maxs[3];
};

Result<QuantizedFrame> quantize(std::span<const float> coords, float precision) {
  QuantizedFrame out;
  out.q.resize(coords.size());
  for (int d = 0; d < 3; ++d) {
    out.mins[d] = std::numeric_limits<std::int32_t>::max();
    out.maxs[d] = std::numeric_limits<std::int32_t>::min();
  }
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const float scaled = coords[i] * precision;
    if (!std::isfinite(scaled)) return invalid_argument("non-finite coordinate");
    const std::int64_t q64 = std::llrint(static_cast<double>(scaled));
    if (q64 <= -kMaxQuantum || q64 >= kMaxQuantum) {
      return invalid_argument("coordinate exceeds quantization range: " + std::to_string(coords[i]));
    }
    const auto q = static_cast<std::int32_t>(q64);
    out.q[i] = q;
    const int d = static_cast<int>(i % 3);
    out.mins[d] = std::min(out.mins[d], q);
    out.maxs[d] = std::max(out.maxs[d], q);
  }
  return out;
}

/// Width of the zigzagged delta field a given atom needs (max over dims).
unsigned atom_delta_bits(const std::int32_t* prev, const std::int32_t* cur) {
  unsigned needed = 0;
  for (int d = 0; d < 3; ++d) {
    const std::int32_t delta = cur[d] - prev[d];
    needed = std::max(needed, bits_needed(zigzag_encode(delta)));
  }
  return needed;
}

/// Exact cost minimization over the candidate small-record width k given a
/// histogram of per-atom field widths: an atom whose widest field fits in k
/// bits costs 1 + 3k, otherwise 1 + large_sum (its three large fields).
struct WidthChoice {
  unsigned k = 0;
  std::uint64_t cost = 0;
};

WidthChoice choose_small_bits(const std::array<std::uint32_t, 33>& width_histogram,
                              unsigned large_sum, unsigned max_k) {
  WidthChoice best;
  best.cost = std::numeric_limits<std::uint64_t>::max();
  for (unsigned k = 0; k <= max_k; ++k) {
    std::uint64_t fitting = 0;
    std::uint64_t overflowing = 0;
    for (unsigned w = 0; w <= 32; ++w) {
      (w <= k ? fitting : overflowing) += width_histogram[w];
    }
    const std::uint64_t cost = fitting * (1 + 3ull * k) + overflowing * (1 + large_sum);
    if (cost < best.cost) {
      best.cost = cost;
      best.k = k;
    }
  }
  return best;
}

/// The v1 record layout: first atom absolute, then per-atom flag + either
/// small zigzag deltas or absolute frame-box-relative fields.  Shared by v1
/// frames and v2 keyframes, so the two are bit-identical by construction.
void encode_intra(const QuantizedFrame& qf, CompressedFrame& frame, PerAtomCost* per_atom) {
  unsigned full_sum = 0;
  for (int d = 0; d < 3; ++d) {
    frame.min_quantum[d] = qf.mins[d];
    const auto span64 = static_cast<std::int64_t>(qf.maxs[d]) - qf.mins[d];
    frame.full_bits[d] = static_cast<std::uint8_t>(bits_needed(static_cast<std::uint32_t>(span64)));
    full_sum += frame.full_bits[d];
  }

  std::array<std::uint32_t, 33> width_histogram{};
  for (std::uint32_t i = 1; i < frame.atom_count; ++i) {
    width_histogram[atom_delta_bits(&qf.q[3 * (i - 1)], &qf.q[3 * i])] += 1;
  }
  const unsigned best_k = choose_small_bits(width_histogram, full_sum, 31).k;
  frame.small_bits = static_cast<std::uint8_t>(best_k);

  BitWriter writer;
  // First atom: absolute, no flag (the decoder knows).
  for (std::size_t d = 0; d < 3; ++d) {
    const auto rel = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(qf.q[d]) - frame.min_quantum[d]);
    writer.put_bits(rel, frame.full_bits[d]);
  }
  if (per_atom != nullptr) per_atom->bits.push_back(full_sum);

  for (std::uint32_t i = 1; i < frame.atom_count; ++i) {
    const std::int32_t* prev = &qf.q[3 * (i - 1)];
    const std::int32_t* cur = &qf.q[3 * i];
    const std::size_t before = writer.bit_count();
    if (atom_delta_bits(prev, cur) <= best_k) {
      writer.put_bit(false);
      for (int d = 0; d < 3; ++d) {
        writer.put_bits(zigzag_encode(cur[d] - prev[d]), best_k);
      }
    } else {
      writer.put_bit(true);
      for (int d = 0; d < 3; ++d) {
        const auto rel = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(cur[d]) - frame.min_quantum[d]);
        writer.put_bits(rel, frame.full_bits[d]);
      }
    }
    if (per_atom != nullptr) {
      per_atom->bits.push_back(static_cast<std::uint32_t>(writer.bit_count() - before));
    }
  }

  frame.payload_bits = writer.bit_count();
  frame.payload = writer.finish();
}

/// Sanity checks that must pass before sizing any allocation off the header:
/// a frame that lies about atom_count or payload_bits is rejected here with
/// at most payload.size()-proportional work.
Status check_payload_plausible(const CompressedFrame& frame,
                               std::span<const std::uint8_t> payload, std::uint64_t min_bits) {
  if (frame.payload_bits > 8ull * payload.size()) {
    return corrupt_data("payload_bits exceeds payload size");
  }
  if (frame.payload_bits < min_bits) {
    return corrupt_data("payload too small for declared atom count");
  }
  return Status::ok();
}

/// 1 iff a reconstructed grid value lies outside (-2^30, 2^30); OR-ed into
/// a branch-free accumulator that decoders test once after their loop.
inline std::uint32_t off_grid(std::int64_t v) noexcept {
  return static_cast<std::uint32_t>((v <= -kMaxQuantum) || (v >= kMaxQuantum));
}

Error truncated(std::size_t need, std::size_t have) {
  return corrupt_data("bitstream truncated: need " + std::to_string(need) + " bits, have " +
                      std::to_string(have));
}

Status check_consumed(const BitReader& reader, const CompressedFrame& frame) {
  if (reader.bits_consumed() != frame.payload_bits) {
    return corrupt_data("payload bit count mismatch: consumed " +
                        std::to_string(reader.bits_consumed()) + ", declared " +
                        std::to_string(frame.payload_bits));
  }
  return Status::ok();
}

/// The three fields of the record at the cursor, whose flag opens window
/// `w`, and the cursor moved past it.  The caller has checked that the whole
/// record fits; the fields come from `w` when the record fits kWindowBits,
/// else from one window each.
inline std::array<std::uint32_t, 3> take_record(BitReader& reader, std::uint64_t w,
                                                bool in_window, unsigned b0, unsigned b1,
                                                unsigned b2) noexcept {
  if (in_window) {
    reader.skip(1 + b0 + b1 + b2);
    return {static_cast<std::uint32_t>(BitReader::field(w, 1, b0)),
            static_cast<std::uint32_t>(BitReader::field(w, 1 + b0, b1)),
            static_cast<std::uint32_t>(BitReader::field(w, 1 + b0 + b1, b2))};
  }
  reader.skip(1);
  return {reader.take(b0), reader.take(b1), reader.take(b2)};  // in order
}

/// Header checks of the v1/intra record layout, before any allocation is
/// sized off the header.
Status check_intra_header(const CompressedFrame& frame, std::span<const std::uint8_t> payload) {
  for (int d = 0; d < 3; ++d) {
    if (frame.full_bits[d] > 32) return corrupt_data("invalid full_bits");
  }
  if (frame.small_bits > 31) return corrupt_data("invalid small_bits");
  // Atoms 1..n-1 cost at least their flag bit each.
  return check_payload_plausible(frame, payload, frame.atom_count > 1 ? frame.atom_count - 1 : 0);
}

/// Decode the v1/intra record layout of `payload`, scattered per `plan`
/// (ScatterRun) into `records`: exact grid positions for T = int32
/// (prediction contexts stay lossless in the integer domain), or
/// coordinates -- grid * 1/precision, as a v2 decode converts its grid --
/// for T = float.  A flat decode is a one-run plan.  The plan is walked run
/// by run with the per-atom loop inside, so routing adds no per-atom work.
///
/// Record at a time: each record is bounds-checked once (its flag, then the
/// flag plus that record's width against bits_remaining()), and its fields
/// come out of one 64-bit window when the record fits kWindowBits -- the
/// frame header decides, per record kind -- else one window per field.
/// Values are reconstructed in int64; any outside the grid is rejected.
template <typename T>
Status decode_intra(const CompressedFrame& frame, std::span<const std::uint8_t> payload,
                    std::span<const ScatterRun> plan, std::span<std::uint8_t* const> records) {
  const float inv_precision = 1.0f / frame.precision;
  const auto put = [&](std::uint8_t*& at, std::int64_t v) {
    T value;
    if constexpr (std::is_same_v<T, float>) {
      value = static_cast<float>(static_cast<std::int32_t>(v)) * inv_precision;
    } else {
      value = static_cast<std::int32_t>(v);
    }
    std::memcpy(at, &value, sizeof value);
    at += sizeof value;
  };
  BitReader reader(payload);
  const unsigned fb0 = frame.full_bits[0];
  const unsigned fb1 = frame.full_bits[1];
  const unsigned fb2 = frame.full_bits[2];
  const unsigned k = frame.small_bits;
  const std::int64_t m0 = frame.min_quantum[0];
  const std::int64_t m1 = frame.min_quantum[1];
  const std::int64_t m2 = frame.min_quantum[2];
  const unsigned large_bits = 1 + fb0 + fb1 + fb2;
  const unsigned small_bits = 1 + 3 * k;
  const bool large_in_window = large_bits <= BitReader::kWindowBits;
  const bool small_in_window = small_bits <= BitReader::kWindowBits;

  // First atom: absolute, no flag; it opens the first run.
  if (reader.bits_remaining() < large_bits - 1) {
    return truncated(large_bits - 1, reader.bits_remaining());
  }
  std::int64_t x = m0 + reader.take(fb0);
  std::int64_t y = m1 + reader.take(fb1);
  std::int64_t z = m2 + reader.take(fb2);
  std::uint32_t bad = off_grid(x) | off_grid(y) | off_grid(z);
  std::uint8_t* out = records[plan[0].target] + plan[0].offset;
  put(out, x);
  put(out, y);
  put(out, z);

  std::uint32_t i = 1;
  for (std::size_t r = 0; r < plan.size(); ++r) {
    if (r != 0) out = records[plan[r].target] + plan[r].offset;
    for (const std::uint32_t end = plan[r].end; i < end; ++i) {
      const std::size_t remaining = reader.bits_remaining();
      if (remaining == 0) return truncated(1, 0);
      const std::uint64_t w = reader.window();
      const bool large = (w >> 63) != 0;
      const unsigned width = large ? large_bits : small_bits;
      if (remaining < width) return truncated(width, remaining);
      if (large) {
        const auto f = take_record(reader, w, large_in_window, fb0, fb1, fb2);
        x = m0 + f[0];
        y = m1 + f[1];
        z = m2 + f[2];
      } else {
        const auto f = take_record(reader, w, small_in_window, k, k, k);
        x += zigzag_decode(f[0]);
        y += zigzag_decode(f[1]);
        z += zigzag_decode(f[2]);
      }
      bad |= off_grid(x) | off_grid(y) | off_grid(z);
      put(out, x);
      put(out, y);
      put(out, z);
    }
  }
  ADA_RETURN_IF_ERROR(check_consumed(reader, frame));
  if (bad != 0) return corrupt_data("coordinate outside the quantization grid");
  return Status::ok();
}

/// decode_intra() of every atom into the flat array `out`.
template <typename T>
Status decode_intra(const CompressedFrame& frame, std::span<const std::uint8_t> payload, T* out) {
  const ScatterRun whole{frame.atom_count, 0, 0};
  std::uint8_t* const base = reinterpret_cast<std::uint8_t*>(out);
  return decode_intra<T>(frame, payload, std::span(&whole, 1), std::span(&base, 1));
}

/// Linear two-frame extrapolation, clamped into the valid grid so the
/// residual always fits a 32-bit zigzag field.  Encoder and decoder must
/// share this exactly.
inline std::int32_t predict_linear(std::int32_t p1, std::int32_t p2) noexcept {
  constexpr std::int64_t lim = kMaxQuantum - 1;
  const std::int64_t p = 2 * static_cast<std::int64_t>(p1) - p2;
  return static_cast<std::int32_t>(std::clamp(p, -lim, lim));
}

struct PredictorPlan {
  Predictor predictor = Predictor::kIntra;
  std::vector<std::int32_t> residuals;  // xyz triplets, quantized grid units
  unsigned best_k = 0;
  std::uint64_t cost = 0;
};

PredictorPlan plan_predicted(Predictor predictor, const QuantizedFrame& qf,
                             const PredictionContext& ctx) {
  PredictorPlan plan;
  plan.predictor = predictor;
  const std::size_t values = qf.q.size();
  plan.residuals.resize(values);
  std::array<std::uint32_t, 33> width_histogram{};
  for (std::size_t i = 0; i < values; i += 3) {
    unsigned width = 0;
    for (std::size_t d = 0; d < 3; ++d) {
      const std::int32_t predicted =
          predictor == Predictor::kLinear
              ? predict_linear(ctx.prev1[i + d], ctx.prev2[i + d])
              : ctx.prev1[i + d];
      const std::int32_t residual = static_cast<std::int32_t>(
          static_cast<std::int64_t>(qf.q[i + d]) - predicted);
      plan.residuals[i + d] = residual;
      width = std::max(width, bits_needed(zigzag_encode(residual)));
    }
    width_histogram[width] += 1;
  }
  const WidthChoice choice =
      choose_small_bits(width_histogram, 3 * kResidualFullBits, kResidualFullBits);
  plan.best_k = choice.k;
  plan.cost = choice.cost;
  return plan;
}

void encode_predicted(const QuantizedFrame& qf, const PredictorPlan& plan, CompressedFrame& frame,
                      PerAtomCost* per_atom) {
  frame.predictor = plan.predictor;
  frame.small_bits = static_cast<std::uint8_t>(plan.best_k);
  for (int d = 0; d < 3; ++d) {
    // min_quantum is informational for predicted frames; full_bits records
    // the large-field width so the header stays self-describing.
    frame.min_quantum[d] = qf.mins[d];
    frame.full_bits[d] = static_cast<std::uint8_t>(kResidualFullBits);
  }
  BitWriter writer;
  for (std::size_t i = 0; i < plan.residuals.size(); i += 3) {
    const std::size_t before = writer.bit_count();
    unsigned width = 0;
    for (std::size_t d = 0; d < 3; ++d) {
      width = std::max(width, bits_needed(zigzag_encode(plan.residuals[i + d])));
    }
    const bool large = width > plan.best_k;
    writer.put_bit(large);
    const unsigned field = large ? kResidualFullBits : plan.best_k;
    for (std::size_t d = 0; d < 3; ++d) {
      writer.put_bits(zigzag_encode(plan.residuals[i + d]), field);
    }
    if (per_atom != nullptr) {
      per_atom->bits.push_back(static_cast<std::uint32_t>(writer.bit_count() - before));
    }
  }
  frame.payload_bits = writer.bit_count();
  frame.payload = writer.finish();
}

void rotate_context(PredictionContext& ctx, std::vector<std::int32_t>&& quanta, float precision) {
  ctx.prev2 = std::move(ctx.prev1);
  ctx.prev1 = std::move(quanta);
  ctx.precision = precision;
}

}  // namespace

Result<CompressedFrame> compress(std::span<const float> coords, const CodecParams& params,
                                 PerAtomCost* per_atom) {
  if (coords.size() % 3 != 0) return invalid_argument("coords length not divisible by 3");
  if (!(params.precision > 0.0f)) return invalid_argument("precision must be positive");

  CompressedFrame frame;
  frame.atom_count = static_cast<std::uint32_t>(coords.size() / 3);
  frame.precision = params.precision;
  if (per_atom != nullptr) {
    per_atom->bits.clear();
    per_atom->bits.reserve(frame.atom_count);
  }
  if (frame.atom_count == 0) return frame;

  ADA_ASSIGN_OR_RETURN(const QuantizedFrame qf, quantize(coords, params.precision));
  encode_intra(qf, frame, per_atom);
  ADA_OBS_COUNT("codec.encode.calls", 1);
  ADA_OBS_COUNT("codec.encode.atoms", frame.atom_count);
  ADA_OBS_COUNT("codec.encode.bytes_out", frame.payload_bytes());
  return frame;
}

Status decompress_into(const CompressedFrame& frame, std::span<const std::uint8_t> payload,
                       std::vector<float>& coords) {
  if (frame.atom_count == 0) {
    coords.clear();
    return Status::ok();
  }
  if (!(frame.precision > 0.0f)) return corrupt_data("compressed frame has invalid precision");
  ADA_RETURN_IF_ERROR(check_intra_header(frame, payload));
  // decode_intra writes every value, so a reused vector is only resized (a
  // no-op at a steady size), never value-initialised again.
  coords.resize(static_cast<std::size_t>(frame.atom_count) * 3);
  ADA_RETURN_IF_ERROR(decode_intra(frame, payload, coords.data()));
  ADA_OBS_COUNT("codec.decode.calls", 1);
  ADA_OBS_COUNT("codec.decode.atoms", frame.atom_count);
  ADA_OBS_COUNT("codec.decode.bytes_in", payload.size());
  return Status::ok();
}

Status decompress_routed(const CompressedFrame& frame, std::span<const std::uint8_t> payload,
                         std::span<const ScatterRun> plan,
                         std::span<std::uint8_t* const> records) {
  const std::uint32_t routed = plan.empty() ? 0 : plan.back().end;
  if (routed != frame.atom_count) {
    return corrupt_data("frame has " + std::to_string(frame.atom_count) +
                        " atoms, the scatter plan routes " + std::to_string(routed));
  }
  if (frame.atom_count == 0) return Status::ok();
  if (!(frame.precision > 0.0f)) return corrupt_data("compressed frame has invalid precision");
  ADA_RETURN_IF_ERROR(check_intra_header(frame, payload));
  ADA_RETURN_IF_ERROR(decode_intra<float>(frame, payload, plan, records));
  ADA_OBS_COUNT("codec.decode.calls", 1);
  ADA_OBS_COUNT("codec.decode.atoms", frame.atom_count);
  ADA_OBS_COUNT("codec.decode.bytes_in", payload.size());
  return Status::ok();
}

Result<std::vector<float>> decompress(const CompressedFrame& frame) {
  std::vector<float> coords;
  ADA_RETURN_IF_ERROR(decompress_into(frame, frame.payload, coords));
  return coords;
}

Result<CompressedFrame> compress_v2(std::span<const float> coords, const CodecParams& params,
                                    PredictionContext& ctx, PerAtomCost* per_atom) {
  if (coords.size() % 3 != 0) return invalid_argument("coords length not divisible by 3");
  if (!(params.precision > 0.0f)) return invalid_argument("precision must be positive");

  CompressedFrame frame;
  frame.atom_count = static_cast<std::uint32_t>(coords.size() / 3);
  frame.precision = params.precision;
  if (per_atom != nullptr) {
    per_atom->bits.clear();
    per_atom->bits.reserve(frame.atom_count);
  }
  if (frame.atom_count == 0) {
    ctx.reset();  // keep encoder and decoder context streams in lockstep
    return frame;
  }

  ADA_ASSIGN_OR_RETURN(QuantizedFrame qf, quantize(coords, params.precision));

  // Evaluate every predictor the context supports by exact packed cost and
  // keep the cheapest; the intra candidate always exists, so a v2 stream can
  // always be written (and a reset context simply forces a keyframe).
  std::optional<PredictorPlan> chosen;
  if (ctx.has_prev(coords.size(), params.precision)) {
    chosen = plan_predicted(Predictor::kPrev, qf, ctx);
    if (ctx.has_two(coords.size(), params.precision)) {
      PredictorPlan linear = plan_predicted(Predictor::kLinear, qf, ctx);
      if (linear.cost < chosen->cost) chosen = std::move(linear);
    }
  }

  // Intra cost: the cost-minimized atom records plus the unconditional
  // absolute first atom (mirrors encode_intra's layout exactly).
  {
    unsigned full_sum = 0;
    for (int d = 0; d < 3; ++d) {
      const auto span64 = static_cast<std::int64_t>(qf.maxs[d]) - qf.mins[d];
      full_sum += bits_needed(static_cast<std::uint32_t>(span64));
    }
    std::array<std::uint32_t, 33> width_histogram{};
    for (std::uint32_t i = 1; i < frame.atom_count; ++i) {
      width_histogram[atom_delta_bits(&qf.q[3 * (i - 1)], &qf.q[3 * i])] += 1;
    }
    const std::uint64_t intra_cost =
        full_sum + choose_small_bits(width_histogram, full_sum, 31).cost;
    if (chosen.has_value() && intra_cost <= chosen->cost) chosen.reset();
  }

  if (chosen.has_value()) {
    encode_predicted(qf, *chosen, frame, per_atom);
  } else {
    encode_intra(qf, frame, per_atom);
    frame.predictor = Predictor::kIntra;
  }
  rotate_context(ctx, std::move(qf.q), params.precision);

  ADA_OBS_COUNT("codec.encode.calls", 1);
  ADA_OBS_COUNT("codec.encode.atoms", frame.atom_count);
  ADA_OBS_COUNT("codec.encode.bytes_out", frame.payload_bytes());
  return frame;
}

Status decompress_v2_into(const CompressedFrame& frame, std::span<const std::uint8_t> payload,
                          PredictionContext& ctx, std::vector<float>& coords) {
  if (frame.atom_count == 0) {
    coords.clear();
    ctx.reset();
    return Status::ok();
  }
  if (!(frame.precision > 0.0f)) return corrupt_data("compressed frame has invalid precision");
  const std::size_t values = static_cast<std::size_t>(frame.atom_count) * 3;

  // The grid is built in ctx.spare, the buffer the rotation below freed last
  // frame, so a steady stream decodes without allocating.
  std::vector<std::int32_t>& quanta = ctx.spare;
  if (frame.predictor == Predictor::kIntra) {
    ADA_RETURN_IF_ERROR(check_intra_header(frame, payload));
    quanta.resize(values);
    ADA_RETURN_IF_ERROR(decode_intra(frame, payload, quanta.data()));
  } else if (frame.predictor == Predictor::kPrev || frame.predictor == Predictor::kLinear) {
    const bool linear = frame.predictor == Predictor::kLinear;
    const bool usable = linear ? ctx.has_two(values, frame.precision)
                               : ctx.has_prev(values, frame.precision);
    if (!usable) {
      return corrupt_data("predicted frame without a usable context (decode must start at a keyframe)");
    }
    if (frame.small_bits > 32) return corrupt_data("invalid small_bits");
    // Every atom costs at least its flag bit.
    ADA_RETURN_IF_ERROR(check_payload_plausible(frame, payload, frame.atom_count));

    // Pass 1: serial bitstream -> flat residual array (SoA), one record at
    // a time as in decode_intra.  Large records (3 x 32 bits) never fit one
    // window.
    quanta.resize(values);
    BitReader reader(payload);
    const unsigned k = frame.small_bits;
    const unsigned small_bits = 1 + 3 * k;
    const unsigned large_bits = 1 + 3 * kResidualFullBits;
    const bool small_in_window = small_bits <= BitReader::kWindowBits;
    std::int32_t* r = quanta.data();
    for (std::size_t i = 0; i < values; i += 3) {
      const std::size_t remaining = reader.bits_remaining();
      if (remaining == 0) return truncated(1, 0);
      const std::uint64_t w = reader.window();
      const bool large = (w >> 63) != 0;
      const unsigned width = large ? large_bits : small_bits;
      if (remaining < width) return truncated(width, remaining);
      const unsigned field = large ? kResidualFullBits : k;
      const auto f = take_record(reader, w, !large && small_in_window, field, field, field);
      r[i] = zigzag_decode(f[0]);
      r[i + 1] = zigzag_decode(f[1]);
      r[i + 2] = zigzag_decode(f[2]);
    }
    ADA_RETURN_IF_ERROR(check_consumed(reader, frame));

    // Pass 2: elementwise reconstruction, in place over the residuals, with
    // no loop-carried dependency -- this is the auto-vectorizable hot loop
    // v1 cannot have.  Out-of-grid reconstructions (corrupt residuals) are
    // detected with a branch-free accumulator and rejected after the loop.
    const std::int32_t* p1 = ctx.prev1.data();
    std::int32_t* q = quanta.data();
    std::uint32_t bad = 0;
    if (linear) {
      const std::int32_t* p2 = ctx.prev2.data();
      for (std::size_t i = 0; i < values; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(predict_linear(p1[i], p2[i])) + q[i];
        bad |= off_grid(v);
        q[i] = static_cast<std::int32_t>(v);
      }
    } else {
      for (std::size_t i = 0; i < values; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(p1[i]) + q[i];
        bad |= off_grid(v);
        q[i] = static_cast<std::int32_t>(v);
      }
    }
    if (bad != 0) return corrupt_data("predicted coordinate outside the quantization grid");
  } else {
    return corrupt_data("unknown predictor id: " +
                        std::to_string(static_cast<unsigned>(frame.predictor)));
  }

  coords.resize(values);
  const float inv_precision = 1.0f / frame.precision;
  for (std::size_t i = 0; i < values; ++i) {
    coords[i] = static_cast<float>(quanta[i]) * inv_precision;
  }
  // Rotate the three grids: prev2 <- prev1 <- this frame, and the old prev2
  // becomes the spare.
  std::swap(ctx.prev2, ctx.prev1);
  std::swap(ctx.prev1, ctx.spare);
  ctx.precision = frame.precision;
  ADA_OBS_COUNT("codec.decode.calls", 1);
  ADA_OBS_COUNT("codec.decode.atoms", frame.atom_count);
  ADA_OBS_COUNT("codec.decode.bytes_in", payload.size());
  return Status::ok();
}

Result<std::vector<float>> decompress_v2(const CompressedFrame& frame, PredictionContext& ctx) {
  std::vector<float> coords;
  ADA_RETURN_IF_ERROR(decompress_v2_into(frame, frame.payload, ctx, coords));
  return coords;
}

std::uint64_t range_bits(const PerAtomCost& cost, std::size_t begin, std::size_t end) {
  ADA_CHECK(begin <= end && end <= cost.bits.size());
  std::uint64_t total = 0;
  for (std::size_t i = begin; i < end; ++i) total += cost.bits[i];
  return total;
}

}  // namespace ada::codec
