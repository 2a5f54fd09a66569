// Fuzz-style robustness tests for every user-facing surface: the PDB
// parser, the label file, the categorizer schema, the selection language,
// the command interpreter -- and the binary decode paths (XTC v2 streams,
// raw v2 coordinate frames, PLFS index images and frame spans).  Random
// inputs must produce clean errors or valid results -- never crashes,
// hangs, or over-reads (the suite runs under ADA_SANITIZE in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <vector>

#include "ada/label_store.hpp"
#include "ada/middleware.hpp"
#include "ada/schema_config.hpp"
#include "codec/bitstream.hpp"
#include "codec/coord_codec.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "plfs/container.hpp"
#include "vmd/command.hpp"
#include "vmd/mol.hpp"
#include "vmd/select.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada {
namespace {

std::string random_text(Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \n\t()-.,#:/";
  const std::size_t len = rng.uniform_index(max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)];
  }
  return out;
}

/// Mutate a valid document: splice random text into random positions.
std::string mutate(Rng& rng, const std::string& base) {
  std::string out = base;
  const int edits = 1 + static_cast<int>(rng.uniform_index(5));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_index(out.size() + 1);
    out.insert(pos, random_text(rng, 12));
  }
  return out;
}

TEST(FuzzTest, PdbParserSurvivesRandomText) {
  Rng rng(1001);
  for (int trial = 0; trial < 200; ++trial) {
    const auto result = formats::parse_pdb(random_text(rng, 400));
    if (result.is_ok()) {
      EXPECT_GT(result.value().atom_count(), 0u);
    }
  }
}

TEST(FuzzTest, PdbParserSurvivesMutatedRealDocuments) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const std::string pristine = formats::write_pdb(system);
  Rng rng(1002);
  for (int trial = 0; trial < 60; ++trial) {
    const auto result = formats::parse_pdb(mutate(rng, pristine));
    if (result.is_ok()) {
      // Mutations may drop/garble atoms but never invent more than the
      // document's line count allows.
      EXPECT_LE(result.value().atom_count(), system.atom_count() + 64);
    }
  }
}

TEST(FuzzTest, LabelFileDecoderSurvives) {
  Rng rng(1003);
  const auto labels =
      core::categorize_protein_misc(workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build());
  const std::string pristine = core::encode_label_file(labels);
  for (int trial = 0; trial < 200; ++trial) {
    const auto mutated = mutate(rng, pristine);
    const auto result = core::decode_label_file(mutated);
    if (result.is_ok()) {
      // Whatever decoded is internally consistent.
      for (const auto& [tag, selection] : result.value().groups) {
        EXPECT_FALSE(tag.empty());
      }
    }
  }
}

TEST(FuzzTest, SchemaParserSurvives) {
  Rng rng(1004);
  for (int trial = 0; trial < 300; ++trial) {
    const auto result = core::CategorizerSchema::parse(random_text(rng, 200));
    if (result.is_ok()) {
      EXPECT_GE(result.value().rule_count() + 1, 1u);  // parsed something sane
    }
  }
}

TEST(FuzzTest, SelectionLanguageSurvives) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  Rng rng(1005);
  // Random token soup from the language's own vocabulary plus junk.
  const char* kWords[] = {"protein", "water",  "and", "or",  "not",   "(",      ")",
                          "name",    "CA",     "resid", "0-5", "index", "zzz",  "all",
                          "none",    "element", "O",    "chain", "A",  "backbone"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string expression;
    const int words = 1 + static_cast<int>(rng.uniform_index(8));
    for (int w = 0; w < words; ++w) {
      expression += kWords[rng.uniform_index(std::size(kWords))];
      expression += ' ';
    }
    const auto result = vmd::atom_select(system, expression);
    if (result.is_ok()) {
      EXPECT_LE(result.value().count(), system.atom_count());
    }
  }
}

TEST(FuzzTest, CommandInterpreterSurvives) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  vmd::MolSession session;
  ASSERT_TRUE(session.mol_new_text(formats::write_pdb(system)).is_ok());
  vmd::CommandInterpreter interpreter(session);
  Rng rng(1006);
  const char* kWords[] = {"mol",    "new",  "addfile", "tag",  "p",     "animate",
                          "goto",   "0",    "999",     "render", "snapshot", "info",
                          "measure", "rgyr", "rmsd",   "atomselect", "protein", "junk"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string line;
    const int words = static_cast<int>(rng.uniform_index(6));
    for (int w = 0; w < words; ++w) {
      line += kWords[rng.uniform_index(std::size(kWords))];
      line += ' ';
    }
    const auto result = interpreter.execute(line);  // ok or clean error, never a crash
    (void)result;
  }
  // The session is still usable afterwards.
  EXPECT_TRUE(interpreter.execute("mol info").is_ok());
}

// ---------------------------------------------------------------------------
// Binary surfaces: the v2 coordinate codec, the XTC v2 stream framing, and
// the PLFS index image and its per-extent frame spans.

/// A small but real v2 stream: drifting coordinates so prediction engages,
/// keyframe interval 3 so the stream mixes intra and predicted frames.
std::vector<std::uint8_t> make_v2_stream(Rng& rng, std::uint32_t atoms, std::uint32_t frames) {
  std::vector<float> coords(static_cast<std::size_t>(atoms) * 3);
  for (auto& c : coords) c = static_cast<float>(rng.uniform_index(4000)) * 0.001f;
  chem::Box box;
  box.matrix = {5.0f, 0.0f, 0.0f, 0.0f, 5.0f, 0.0f, 0.0f, 0.0f, 5.0f};
  formats::XtcWriter writer({}, codec::CodecVersion::kV2, /*keyframe_interval=*/3);
  for (std::uint32_t f = 0; f < frames; ++f) {
    for (auto& c : coords) {
      c += (static_cast<float>(rng.uniform_index(9)) - 4.0f) * 0.001f;
    }
    ADA_CHECK(writer.add_frame(f, 0.002f * static_cast<float>(f), box, coords).is_ok());
  }
  return writer.take();
}

/// Drain a (possibly hostile) XTC image through the streaming reader.  The
/// frame cap converts any would-be infinite loop into a test failure.
void drain_xtc(std::span<const std::uint8_t> image) {
  formats::XtcReader reader(image);
  for (int frame = 0; frame < 1000; ++frame) {
    const auto next = reader.next();
    if (!next.is_ok() || !next.value().has_value()) return;  // clean error or EOF
  }
  FAIL() << "reader never terminated on a " << image.size() << "-byte image";
}

TEST(FuzzTest, XtcV2DecoderSurvivesBitFlips) {
  Rng rng(2001);
  const auto pristine = make_v2_stream(rng, 80, 7);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupt = pristine;
    const int flips = 1 + static_cast<int>(rng.uniform_index(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.uniform_index(corrupt.size());
      corrupt[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    }
    drain_xtc(corrupt);
  }
}

TEST(FuzzTest, XtcV2DecoderSurvivesTruncation) {
  Rng rng(2002);
  const auto pristine = make_v2_stream(rng, 80, 7);
  // Every prefix, including cuts inside the prelude, the frame table word,
  // and mid-payload.
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    drain_xtc(std::span(pristine.data(), len));
  }
}

TEST(FuzzTest, DecompressV2SurvivesRandomFrames) {
  Rng rng(2003);
  for (int trial = 0; trial < 500; ++trial) {
    codec::CompressedFrame frame;
    // Hostile headers: atom counts that lie about the payload, including
    // huge values that must be rejected before any allocation.
    frame.atom_count = static_cast<std::uint32_t>(rng.uniform_index(2) == 0
                                                      ? rng.uniform_index(64)
                                                      : rng.uniform_index(1u << 31));
    frame.precision = rng.uniform_index(2) == 0 ? 1000.0f
                                                : static_cast<float>(rng.uniform_index(3)) - 1.0f;
    for (int d = 0; d < 3; ++d) {
      frame.min_quantum[d] = static_cast<std::int32_t>(rng.uniform_index(1u << 31)) - (1 << 30);
      frame.full_bits[d] = static_cast<std::uint8_t>(rng.uniform_index(70));
    }
    frame.small_bits = static_cast<std::uint8_t>(rng.uniform_index(70));
    frame.predictor = static_cast<codec::Predictor>(rng.uniform_index(6));
    frame.payload.resize(rng.uniform_index(96));
    for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    frame.payload_bits = rng.uniform_index(2) == 0
                             ? frame.payload.size() * 8
                             : rng.uniform_index(std::uint64_t{1} << 40);  // lying bit count

    codec::PredictionContext ctx;
    if (rng.uniform_index(2) == 0) {
      // A plausible-but-possibly-mismatched context.
      ctx.precision = 1000.0f;
      ctx.prev1.assign(rng.uniform_index(64) * 3, 7);
      if (rng.uniform_index(2) == 0) ctx.prev2.assign(ctx.prev1.size(), 5);
    }
    const auto result = codec::decompress_v2(frame, ctx);
    if (result.is_ok()) {
      EXPECT_EQ(result.value().size(), static_cast<std::size_t>(frame.atom_count) * 3);
    }
  }
}

/// A 2-atom v1 frame with full_bits 0 (the first atom is min_quantum) and
/// small_bits 31 whose second atom is one small record moving x by `delta`,
/// or -- when `large_x` is set -- one large record with full_bits[0] = 32
/// placing x at min_quantum + large_x.
codec::CompressedFrame crafted_two_atom_frame(std::int32_t x0, std::int32_t delta,
                                              std::uint32_t large_x = 0) {
  codec::CompressedFrame frame;
  frame.atom_count = 2;
  frame.precision = 1000.0f;
  frame.min_quantum[0] = x0;
  frame.small_bits = 31;
  codec::BitWriter writer;
  if (large_x != 0) {
    frame.full_bits[0] = 32;
    writer.put_bits(0, 32);  // first atom: x = min_quantum
    writer.put_bit(true);
    writer.put_bits(large_x, 32);
  } else {
    writer.put_bit(false);
    writer.put_bits(codec::zigzag_encode(delta), 31);
    writer.put_bits(0, 31);
    writer.put_bits(0, 31);
  }
  frame.payload_bits = writer.bit_count();
  frame.payload = writer.finish();
  return frame;
}

TEST(FuzzTest, IntraDecodeRejectsOffGridCoordinates) {
  // Crafted intra frames whose reconstruction leaves the quantization grid
  // (-2^30, 2^30): INT32_MAX-5 + 2^29 once overflowed int32 (undefined
  // behaviour) and every case here used to decode "successfully" to an
  // off-grid coordinate.  v1 frames and v2 keyframes must reject them all.
  const std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::vector<codec::CompressedFrame> off_grid = {
      crafted_two_atom_frame(kMax - 5, 1 << 29),            // int32 overflow
      crafted_two_atom_frame((1 << 30) - 10, 1 << 29),      // first on grid, second off
      crafted_two_atom_frame(-(1 << 30) + 10, -(1 << 29)),  // same, negative side
      crafted_two_atom_frame(0, 0, 1u << 31),               // large record off grid
      crafted_two_atom_frame(-(1 << 30) + 1, -1),           // exactly -2^30
      crafted_two_atom_frame((1 << 30) - 1, 1),             // exactly 2^30
  };
  for (const auto& frame : off_grid) {
    const auto v1 = codec::decompress(frame);
    ASSERT_FALSE(v1.is_ok()) << "off-grid frame decoded, x0 " << frame.min_quantum[0];
    EXPECT_EQ(v1.error().code(), ErrorCode::kCorruptData);
    codec::PredictionContext ctx;
    const auto v2 = codec::decompress_v2(frame, ctx);
    ASSERT_FALSE(v2.is_ok());
    EXPECT_EQ(v2.error().code(), ErrorCode::kCorruptData);
  }
  // Control: the same shapes on the grid decode exactly.
  const auto ok = codec::decompress(crafted_two_atom_frame(0, 1 << 29));
  ASSERT_TRUE(ok.is_ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value()[3], static_cast<float>(1 << 29) * (1.0f / 1000.0f));
  const auto large_ok = codec::decompress(crafted_two_atom_frame(-(1 << 29), 0, 1u << 29));
  ASSERT_TRUE(large_ok.is_ok()) << large_ok.error().to_string();
  EXPECT_EQ(large_ok.value()[3], 0.0f);
  EXPECT_TRUE(codec::decompress(crafted_two_atom_frame(-(1 << 30) + 2, -1)).is_ok());
  EXPECT_TRUE(codec::decompress(crafted_two_atom_frame((1 << 30) - 2, 1)).is_ok());
}

// Re-seal an index image's trailing CRC32C over its (mutated) body: the
// shape a buggy writer would publish, which the decoder must still survive.
void reseal(std::vector<std::uint8_t>& image) {
  const std::uint32_t crc = crc32c(image.data(), image.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// An index whose records carry streamed shapes (span and atom count), plus
// its stream state.
plfs::Index streamed_index() {
  plfs::Index index;
  for (int i = 0; i < 6; ++i) {
    plfs::IndexRecord r;
    r.logical_offset = static_cast<std::uint64_t>(i) * 1000;
    r.length = 1000;
    r.backend = static_cast<std::uint32_t>(i % 2);
    r.label = (i % 2) != 0 ? "m" : "p";
    r.dropping = "dropping." + r.label + "." + std::to_string(i / 2);
    r.set_checksum(0x1234u + static_cast<std::uint32_t>(i));
    r.set_frame_span(plfs::FrameSpan{static_cast<std::uint64_t>(i / 2) * 3, 3, 7});
    index.records.push_back(std::move(r));
  }
  plfs::StreamState state;
  state.sealed_frames = 9;
  state.sealed_chunks = 3;
  state.floor_frames = 3;
  state.retention_drops = 1;
  index.stream = state;
  return index;
}

// Anything that decodes satisfies the invariants a correct writer keeps.
void expect_decoded_invariants(const Result<plfs::Index>& result) {
  if (!result.is_ok()) {
    EXPECT_EQ(result.error().code(), ErrorCode::kCorruptData) << result.error().to_string();
    return;
  }
  if (result.value().stream.has_value()) {
    EXPECT_LE(result.value().stream->floor_frames, result.value().stream->sealed_frames);
  }
}

TEST(FuzzTest, StreamStateDecoderSurvivesHostileImages) {
  Rng rng(2005);
  // Random images of every plausible size, half of them carrying the v3
  // magic and a valid seal over random bytes: never a crash or over-read,
  // and anything that decodes satisfies the writer's invariants.
  const std::uint8_t magic[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '3'};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> image(rng.uniform_index(96));
    for (auto& b : image) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    if ((trial % 2) != 0 && image.size() >= 12) {
      std::copy(std::begin(magic), std::end(magic), image.begin());
      reseal(image);
    }
    expect_decoded_invariants(plfs::decode_index(image));
  }

  // Multi-bit corruptions of a real image: the CRC rejects them all (the
  // exhaustive single-bit sweep lives in streaming_tail_test).
  const auto pristine = plfs::encode_index(streamed_index());
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupt = pristine;
    const int flips = 1 + static_cast<int>(rng.uniform_index(6));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.uniform_index(corrupt.size());
      corrupt[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    }
    if (corrupt == pristine) continue;  // flips that cancelled out
    const auto result = plfs::decode_index(corrupt);
    ASSERT_FALSE(result.is_ok()) << "trial " << trial << ": corruption passed the CRC";
    EXPECT_EQ(result.error().code(), ErrorCode::kCorruptData);
  }
}

TEST(FuzzTest, TornStreamIndexSuffixesDecodeToAPrefixOrFail) {
  // A v3 image cut at every byte -- the shape a torn index write leaves
  // when a flush dies mid-publish -- is always kCorruptData: the CRC seals
  // the whole image, so not even a record prefix is ever served.
  const plfs::Index index = streamed_index();
  const auto image = plfs::encode_index(index);
  const auto full = plfs::decode_index(image);
  ASSERT_TRUE(full.is_ok());
  ASSERT_EQ(full.value(), index);
  for (std::size_t len = 0; len < image.size(); ++len) {
    const auto result = plfs::decode_index(std::span(image.data(), len));
    ASSERT_FALSE(result.is_ok()) << "a " << len << "-byte truncation decoded";
    EXPECT_EQ(result.error().code(), ErrorCode::kCorruptData);
  }

  // Past the CRC: mutate record bytes, then re-seal.  Parse or reject with
  // kCorruptData, never crash, over-read or over-allocate (the suite runs
  // under ADA_SANITIZE in CI).
  Rng rng(2006);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = image;
    const int edits = 1 + static_cast<int>(rng.uniform_index(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = 8 + rng.uniform_index(mutated.size() - 12);
      const auto flip = static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      mutated[pos] = (trial % 3) == 0 ? static_cast<std::uint8_t>(rng.uniform_index(256))
                                      : static_cast<std::uint8_t>(mutated[pos] ^ flip);
    }
    reseal(mutated);
    expect_decoded_invariants(plfs::decode_index(mutated));
  }
}

TEST(FuzzTest, MutatedFrameSpansNeverCrashRangeQueries) {
  namespace fs = std::filesystem;
  const std::string root = test::unique_temp_dir("ada_fuzz_spans");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  core::AdaConfig config;
  config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
  core::Ada ada(plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}}).value(),
                config);

  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer;
  for (std::uint32_t f = 0; f < 8; ++f) {
    const auto coords = gen.next_frame();
    ASSERT_TRUE(
        writer.add_frame(gen.current_step(), gen.current_time_ps(), system.box(), coords).is_ok());
  }
  ASSERT_TRUE(ada.ingest(system, writer.take(), "bar.xtc").is_ok());
  const auto pristine = ada.mount().read_index("bar.xtc").value();

  Rng rng(2004);
  for (int trial = 0; trial < 60; ++trial) {
    core::FrameRange range;
    range.begin = static_cast<std::uint32_t>(rng.uniform_index(10));
    range.end = range.begin + static_cast<std::uint32_t>(rng.uniform_index(10));
    range.stride = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
    ASSERT_TRUE(ada.mount().rewrite_index("bar.xtc", pristine).is_ok());
    const auto expected = ada.query("bar.xtc", core::kProteinTag, range);
    ASSERT_TRUE(expected.is_ok()) << expected.error().to_string();

    auto index = pristine;
    for (auto& record : index.records) {
      if (rng.uniform_index(2) == 0) continue;
      switch (rng.uniform_index(6)) {
        case 0:  // base off the floor
          record.frame_base = rng.uniform_index(std::uint64_t{1} << 40);
          break;
        case 1:  // count that does not describe the extent
          record.frame_count = static_cast<std::uint32_t>(rng.uniform_index(40));
          break;
        case 2:  // span on a record that had none, or none where one was
          record.flags ^= plfs::IndexRecord::kHasFrameSpan;
          break;
        case 3:  // off-by-small count
          record.frame_count += static_cast<std::uint32_t>(rng.uniform_index(3)) - 1;
          break;
        case 4:  // atom count that does not describe the frames
          record.atom_count = static_cast<std::uint32_t>(rng.uniform_index(std::uint64_t{1} << 32));
          break;
        default:  // length that lies about the dropping
          record.length += rng.uniform_index(64) + 1;
          break;
      }
    }
    ASSERT_TRUE(ada.mount().rewrite_index("bar.xtc", index).is_ok());
    // A lying shape is a typed kCorruptData (an atom count left without its
    // span already fails the index decode); anything served is exactly the
    // honest answer, header included.
    const auto result = ada.query("bar.xtc", core::kProteinTag, range);
    if (!result.is_ok()) {
      EXPECT_EQ(result.error().code(), ErrorCode::kCorruptData)
          << trial << ": " << result.error().to_string();
      continue;
    }
    EXPECT_EQ(result.value(), expected.value()) << "trial " << trial;
  }
  ASSERT_TRUE(ada.mount().rewrite_index("bar.xtc", pristine).is_ok());
  fs::remove_all(root);
}

}  // namespace
}  // namespace ada
