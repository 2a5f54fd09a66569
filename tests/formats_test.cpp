// Unit tests for PDB / XTC / RAW file formats.
#include <gtest/gtest.h>

#include <cstring>

#include "chem/selection.hpp"
#include "common/binary_io.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::formats {
namespace {

// --- PDB --------------------------------------------------------------------------

constexpr const char* kSamplePdb =
    "HEADER    TEST STRUCTURE\n"
    "CRYST1   50.000   50.000   50.000  90.00  90.00  90.00 P 1           1\n"
    "ATOM      1  N   ALA A   1      11.104   6.134  -6.504  1.00  0.00           N\n"
    "ATOM      2  CA  ALA A   1      11.639   6.071  -5.147  1.00  0.00           C\n"
    "ATOM      3  C   ALA A   1      10.722   6.789  -4.153  1.00  0.00           C\n"
    "HETATM    4 NA    NA I   2      20.000  20.000  20.000  1.00  0.00          NA\n"
    "ATOM      5  OW  SOL W   3       5.000   5.000   5.000  1.00  0.00           O\n"
    "TER\n"
    "END\n";

TEST(PdbTest, ParseSample) {
  const auto system = parse_pdb(kSamplePdb).value();
  ASSERT_EQ(system.atom_count(), 5u);
  EXPECT_FLOAT_EQ(system.box().x(), 5.0f);  // 50 A -> 5 nm
  EXPECT_EQ(system.atom(0).name, "N");
  EXPECT_EQ(system.atom(0).residue_name, "ALA");
  EXPECT_EQ(system.atom(0).chain_id, 'A');
  EXPECT_EQ(system.category(0), chem::Category::kProtein);
  EXPECT_EQ(system.category(3), chem::Category::kIon);
  EXPECT_EQ(system.atom(3).element, chem::Element::kSodium);
  EXPECT_TRUE(system.atom(3).hetatm);
  EXPECT_EQ(system.category(4), chem::Category::kWater);
  // Coordinates are converted to nm.
  EXPECT_NEAR(system.reference_coords()[0], 1.1104f, 1e-4f);
  EXPECT_NEAR(system.reference_coords()[8], -0.4153f, 1e-4f);
}

TEST(PdbTest, EmptyDocumentRejected) {
  EXPECT_FALSE(parse_pdb("").is_ok());
  EXPECT_FALSE(parse_pdb("REMARK nothing here\n").is_ok());
}

TEST(PdbTest, MalformedCoordinatesRejected) {
  const std::string bad =
      "ATOM      1  N   ALA A   1      xx.xxx   6.134  -6.504  1.00  0.00           N\n";
  EXPECT_FALSE(parse_pdb(bad).is_ok());
}

TEST(PdbTest, MalformedSerialRejected) {
  const std::string bad =
      "ATOM      x  N   ALA A   1      11.104   6.134  -6.504  1.00  0.00           N\n";
  EXPECT_FALSE(parse_pdb(bad).is_ok());
}

TEST(PdbTest, UnknownRecordsSkipped) {
  const std::string doc = std::string("REMARK hi\nSEQRES stuff\n") + kSamplePdb;
  EXPECT_EQ(parse_pdb(doc).value().atom_count(), 5u);
}

TEST(PdbTest, WriteParseRoundTrip) {
  const auto original = parse_pdb(kSamplePdb).value();
  const std::string text = write_pdb(original);
  const auto reparsed = parse_pdb(text).value();
  ASSERT_EQ(reparsed.atom_count(), original.atom_count());
  for (std::uint32_t i = 0; i < original.atom_count(); ++i) {
    EXPECT_EQ(reparsed.atom(i).name, original.atom(i).name) << i;
    EXPECT_EQ(reparsed.atom(i).residue_name, original.atom(i).residue_name) << i;
    EXPECT_EQ(reparsed.category(i), original.category(i)) << i;
    for (int d = 0; d < 3; ++d) {
      const std::size_t j = 3 * i + static_cast<std::size_t>(d);
      // PDB has 3 decimal digits in angstroms: 1e-4 nm quantization.
      EXPECT_NEAR(reparsed.reference_coords()[j], original.reference_coords()[j], 2e-4f);
    }
  }
  EXPECT_EQ(reparsed.box(), original.box());
}

TEST(PdbTest, GeneratedSystemRoundTrip) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const auto reparsed = parse_pdb(write_pdb(system)).value();
  ASSERT_EQ(reparsed.atom_count(), system.atom_count());
  EXPECT_EQ(reparsed.count_category(chem::Category::kProtein),
            system.count_category(chem::Category::kProtein));
  EXPECT_EQ(reparsed.count_category(chem::Category::kWater),
            system.count_category(chem::Category::kWater));
  EXPECT_EQ(reparsed.count_category(chem::Category::kLipid),
            system.count_category(chem::Category::kLipid));
}

TEST(PdbTest, FileRoundTrip) {
  const auto system = parse_pdb(kSamplePdb).value();
  const std::string path = testing::TempDir() + "/ada_pdb_test.pdb";
  ASSERT_TRUE(write_pdb_file(path, system).is_ok());
  EXPECT_EQ(read_pdb_file(path).value().atom_count(), 5u);
}

// --- XTC --------------------------------------------------------------------------

std::vector<float> wiggle(const std::vector<float>& base, float amount, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out = base;
  for (float& v : out) v += static_cast<float>(rng.normal(0.0, static_cast<double>(amount)));
  return out;
}

TEST(XtcTest, MultiFrameRoundTrip) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  XtcWriter writer;
  std::vector<std::vector<float>> truth;
  for (std::uint32_t f = 0; f < 5; ++f) {
    truth.push_back(wiggle(system.reference_coords(), 0.01f, f));
    ASSERT_TRUE(writer
                    .add_frame(f * 1000, static_cast<float>(f) * 2.0f, system.box(), truth.back())
                    .is_ok());
  }
  EXPECT_EQ(writer.frame_count(), 5u);

  const auto frames = read_all_xtc(writer.bytes()).value();
  ASSERT_EQ(frames.size(), 5u);
  for (std::uint32_t f = 0; f < 5; ++f) {
    EXPECT_EQ(frames[f].step, f * 1000);
    EXPECT_FLOAT_EQ(frames[f].time_ps, static_cast<float>(f) * 2.0f);
    EXPECT_EQ(frames[f].box, system.box());
    ASSERT_EQ(frames[f].coords.size(), truth[f].size());
    for (std::size_t i = 0; i < truth[f].size(); ++i) {
      ASSERT_NEAR(frames[f].coords[i], truth[f][i], 0.0006f);
    }
  }
}

TEST(XtcTest, SkipWalksFramesWithoutDecode) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  XtcWriter writer;
  for (std::uint32_t f = 0; f < 4; ++f) {
    ASSERT_TRUE(
        writer.add_frame(f, static_cast<float>(f), system.box(), system.reference_coords())
            .is_ok());
  }
  XtcReader reader(writer.bytes());
  EXPECT_TRUE(reader.skip().value());
  EXPECT_TRUE(reader.skip().value());
  const auto frame = reader.next().value();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->step, 2u);
  EXPECT_TRUE(reader.skip().value());
  EXPECT_FALSE(reader.skip().value());  // end of stream
}

TEST(XtcTest, BadMagicRejected) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  XtcWriter writer;
  ASSERT_TRUE(writer.add_frame(0, 0.0f, system.box(), system.reference_coords()).is_ok());
  auto bytes = writer.take();
  bytes[3] = 0x00;  // clobber the magic's low byte
  EXPECT_FALSE(read_all_xtc(bytes).is_ok());
}

TEST(XtcTest, TruncatedStreamRejected) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  XtcWriter writer;
  ASSERT_TRUE(writer.add_frame(0, 0.0f, system.box(), system.reference_coords()).is_ok());
  const auto& bytes = writer.bytes();
  const auto truncated = std::span(bytes).subspan(0, bytes.size() - 7);
  EXPECT_FALSE(read_all_xtc(truncated).is_ok());
}

TEST(XtcTest, EmptyStreamYieldsNoFrames) {
  EXPECT_TRUE(read_all_xtc({}).value().empty());
}

TEST(XtcTest, CompressionRatioInXtcRegime) {
  // On the synthetic GPCR system, total compressed size must be in the
  // xtc-like regime the paper measures: raw/compressed ~ 3.27.
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  XtcWriter writer;
  constexpr std::uint32_t kFrames = 20;
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(writer.add_frame(gen.current_step(), gen.current_time_ps(), system.box(),
                                 gen.next_frame())
                    .is_ok());
  }
  const double raw = static_cast<double>(raw_file_bytes(system.atom_count(), kFrames));
  const double ratio = raw / static_cast<double>(writer.size_bytes());
  EXPECT_GT(ratio, 2.4) << "ratio " << ratio;
  EXPECT_LT(ratio, 4.5) << "ratio " << ratio;
}

TEST(XtcTest, IndexEnablesRandomAccess) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  XtcWriter writer;
  for (std::uint32_t f = 0; f < 6; ++f) {
    ASSERT_TRUE(writer.add_frame(f * 100, static_cast<float>(f) * 2.0f, system.box(),
                                 gen.next_frame())
                    .is_ok());
  }
  const auto index = build_xtc_index(writer.bytes()).value();
  ASSERT_EQ(index.size(), 6u);
  EXPECT_EQ(index[0].offset, 0u);
  for (std::uint32_t f = 0; f < 6; ++f) {
    EXPECT_EQ(index[f].step, f * 100);
    EXPECT_FLOAT_EQ(index[f].time_ps, static_cast<float>(f) * 2.0f);
  }
  // Decode frames out of order via the index; match sequential decode.
  const auto sequential = read_all_xtc(writer.bytes()).value();
  for (const std::uint32_t f : {4u, 1u, 5u, 0u}) {
    const auto frame = read_xtc_frame_at(writer.bytes(), index[f].offset).value();
    EXPECT_EQ(frame.step, sequential[f].step);
    EXPECT_EQ(frame.coords, sequential[f].coords);
  }
  EXPECT_FALSE(read_xtc_frame_at(writer.bytes(), writer.size_bytes() + 5).is_ok());
  EXPECT_FALSE(read_xtc_frame_at(writer.bytes(), 3).is_ok());  // mid-frame offset
}

TEST(XtcTest, IndexOfEmptyImage) {
  EXPECT_TRUE(build_xtc_index({}).value().empty());
}

TEST(XtcTest, IndexRejectsCorruptStream) {
  std::vector<std::uint8_t> junk(40, 0x11);
  EXPECT_FALSE(build_xtc_index(junk).is_ok());
}

// --- RAW --------------------------------------------------------------------------

TEST(RawTest, SizeFormulaMatchesPaperArithmetic) {
  // 43,520 atoms, 626 frames -> the paper's 327 MB raw dataset.
  const double bytes = static_cast<double>(raw_file_bytes(43'520, 626));
  EXPECT_NEAR(bytes / 1e6, 327.0, 1.0);
  // Per-frame size: 44-byte header + 12 bytes/atom.
  EXPECT_EQ(raw_frame_bytes(100), 44u + 1200u);
}

TEST(RawTest, RoundTripAndRandomAccess) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  RawTrajWriter writer(system.atom_count());
  std::vector<std::vector<float>> truth;
  for (std::uint32_t f = 0; f < 6; ++f) {
    truth.push_back(wiggle(system.reference_coords(), 0.01f, 100 + f));
    ASSERT_TRUE(writer.add_frame(f, static_cast<float>(f) * 2.0f, system.box(), truth.back())
                    .is_ok());
  }
  const auto image = writer.finish();
  EXPECT_EQ(image.size(), raw_file_bytes(system.atom_count(), 6));

  const auto reader = RawTrajReader::open(image).value();
  EXPECT_EQ(reader.atom_count(), system.atom_count());
  EXPECT_EQ(reader.frame_count(), 6u);
  // Random access out of order.
  for (std::uint32_t f : {3u, 0u, 5u, 2u}) {
    const auto frame = reader.frame(f).value();
    EXPECT_EQ(frame.step, f);
    EXPECT_EQ(frame.coords, truth[f]);  // RAW is bit-exact
  }
  EXPECT_FALSE(reader.frame(6).is_ok());
}

TEST(RawTest, WrongAtomCountRejected) {
  RawTrajWriter writer(10);
  std::vector<float> coords(9, 0.0f);  // 3 atoms, not 10
  EXPECT_FALSE(writer.add_frame(0, 0.0f, chem::Box{}, coords).is_ok());
}

TEST(RawTest, CorruptHeaderRejected) {
  RawTrajWriter writer(4);
  std::vector<float> coords(12, 1.0f);
  ASSERT_TRUE(writer.add_frame(0, 0.0f, chem::Box{}, coords).is_ok());
  auto image = writer.finish();
  auto bad = image;
  bad[0] = 'X';
  EXPECT_FALSE(RawTrajReader::open(bad).is_ok());
  // Truncation is detected by the size check.
  EXPECT_FALSE(RawTrajReader::open(std::span(image).subspan(0, image.size() - 1)).is_ok());

  // 2^31 frames of 715,827,879 atoms: frames x frame size is exactly 2^64,
  // so a wrapping size check would accept this bare 16-byte header.
  auto wrapped = RawTrajWriter(715'827'879).finish();
  const std::uint32_t frames = to_little_endian32(std::uint32_t{1} << 31);
  std::memcpy(wrapped.data() + 12, &frames, 4);
  EXPECT_FALSE(RawTrajReader::open(wrapped).is_ok());
  EXPECT_FALSE(RawTrajCatReader::open(wrapped).is_ok());
}

TEST(RawTest, ShapeMatchesOnlyItsExactFileSize) {
  for (const std::uint32_t atoms : {0u, 1u, 925u, 43'520u}) {
    for (const std::uint64_t frames : {0u, 1u, 7u}) {
      const std::uint64_t bytes = raw_file_bytes(atoms, frames);
      EXPECT_TRUE(raw_file_has_shape(bytes, atoms, frames)) << atoms << " x " << frames;
      // One byte off, one frame off, or one atom off is another shape.
      EXPECT_FALSE(raw_file_has_shape(bytes + 1, atoms, frames));
      EXPECT_FALSE(raw_file_has_shape(bytes - 1, atoms, frames));
      EXPECT_FALSE(raw_file_has_shape(bytes, atoms, frames + 1));
      if (frames != 0) {
        EXPECT_FALSE(raw_file_has_shape(bytes, atoms + 1, frames));
      }
    }
  }
  // A bare header is zero frames of any atom count.
  EXPECT_TRUE(raw_file_has_shape(16, 43'520, 0));
  EXPECT_FALSE(raw_file_has_shape(15, 0, 0));
  // 2^31 frames of 715,827,879 atoms is exactly 2^64 bytes of records:
  // the multiplied size wraps onto a bare header, the shape check does not.
  ASSERT_EQ(raw_file_bytes(715'827'879, std::uint64_t{1} << 31), 16u);
  EXPECT_FALSE(raw_file_has_shape(16, 715'827'879, std::uint64_t{1} << 31));
}

TEST(RawTest, RecordsCopyVerbatimIntoANewImage) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  RawTrajWriter writer(system.atom_count());
  for (std::uint32_t f = 0; f < 4; ++f) {
    ASSERT_TRUE(writer
                    .add_frame(f, static_cast<float>(f), system.box(),
                               wiggle(system.reference_coords(), 0.01f, 200 + f))
                    .is_ok());
  }
  const auto image = writer.finish();
  EXPECT_TRUE(looks_like_raw(image));
  const auto reader = RawTrajReader::open(image).value();

  // Frames 3 and 1, record by record, make the image a writer of those frames
  // would: one header, then the records unchanged.
  RawTrajWriter picked(system.atom_count(), /*reserve_frames=*/2);
  for (const std::uint32_t f : {3u, 1u}) {
    EXPECT_EQ(reader.record(f).size(), raw_frame_bytes(system.atom_count()));
    ASSERT_TRUE(picked.append_record(reader.record(f)).is_ok());
  }
  const auto copied = picked.finish();
  const auto copy = RawTrajReader::open(copied);
  ASSERT_TRUE(copy.is_ok());
  EXPECT_EQ(copy.value().frame_count(), 2u);
  EXPECT_EQ(copy.value().frame(0).value().coords, reader.frame(3).value().coords);
  EXPECT_EQ(copy.value().frame(1).value().step, 1u);

  // A record of another atom count is refused.
  RawTrajWriter other(system.atom_count() + 1);
  EXPECT_FALSE(other.append_record(reader.record(0)).is_ok());
  EXPECT_EQ(other.frame_count(), 0u);
  EXPECT_FALSE(looks_like_raw(std::span(image).first(7)));
}

// --- subset extraction ----------------------------------------------------------------

TEST(SubsetTest, ExtractSubsetCopiesRuns) {
  std::vector<float> coords;
  for (int i = 0; i < 10; ++i) {
    coords.push_back(static_cast<float>(i));
    coords.push_back(static_cast<float>(i) + 0.1f);
    coords.push_back(static_cast<float>(i) + 0.2f);
  }
  const auto sel = chem::Selection::from_runs({{2, 4}, {7, 8}});
  const auto subset = extract_subset(coords, sel);
  ASSERT_EQ(subset.size(), 9u);
  EXPECT_FLOAT_EQ(subset[0], 2.0f);
  EXPECT_FLOAT_EQ(subset[3], 3.0f);
  EXPECT_FLOAT_EQ(subset[6], 7.0f);
  EXPECT_FLOAT_EQ(subset[8], 7.2f);
}

TEST(SubsetTest, GatherIntoRawImageMatchesExtractedSubset) {
  // RawTrajWriter::add_frame(full coords, selection) and encode_raw_frame
  // into a make_raw_image slot write the same bytes as writing
  // extract_subset's copy; the writer rejects a selection that does not
  // match it or reaches past the frame.
  std::vector<float> coords;
  for (int i = 0; i < 30; ++i) coords.push_back(static_cast<float>(i) * 0.5f - 3.0f);
  chem::Box box;
  box.matrix = {4.0f, 0.0f, 0.0f, 0.0f, 4.0f, 0.0f, 0.0f, 0.0f, 4.0f};
  const auto sel = chem::Selection::from_runs({{0, 1}, {2, 4}, {7, 10}});
  RawTrajWriter copied(6);
  RawTrajWriter gathered(6);
  auto in_place = make_raw_image(6, 2);
  for (std::uint32_t f = 0; f < 2; ++f) {
    ASSERT_TRUE(copied.add_frame(f, 0.5f * static_cast<float>(f), box, extract_subset(coords, sel))
                    .is_ok());
    ASSERT_TRUE(gathered.add_frame(f, 0.5f * static_cast<float>(f), box, coords, sel).is_ok());
    encode_raw_frame(in_place.data() + raw_file_bytes(6, f), f, 0.5f * static_cast<float>(f), box,
                     coords, sel);
  }
  const auto expected = copied.finish();
  EXPECT_EQ(gathered.finish(), expected);
  EXPECT_EQ(in_place, expected);

  RawTrajWriter five(5);
  EXPECT_FALSE(five.add_frame(0, 0.0f, box, coords, sel).is_ok());  // 6 atoms selected
  RawTrajWriter two(2);
  EXPECT_FALSE(two.add_frame(0, 0.0f, box, coords, chem::Selection::from_runs({{9, 11}})).is_ok());
  EXPECT_EQ(two.frame_count(), 0u);
}

TEST(SubsetTest, EmptySelectionYieldsEmpty) {
  std::vector<float> coords(30, 1.0f);
  EXPECT_TRUE(extract_subset(coords, chem::Selection{}).empty());
}

}  // namespace
}  // namespace ada::formats
