// Tests for the TRR trajectory format and the concatenated-RAW reader.
#include <gtest/gtest.h>

#include <algorithm>

#include "formats/raw_traj.hpp"
#include "formats/trr_file.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::formats {
namespace {

chem::System tiny_system() {
  return workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
}

TrrFrame make_frame(const chem::System& system, std::uint32_t step, bool velocities,
                    bool forces) {
  TrrFrame frame;
  frame.step = step;
  frame.time_ps = static_cast<float>(step) * 0.002f;
  frame.lambda = 0.25f;
  frame.box = system.box();
  frame.coords = system.reference_coords();
  if (velocities) {
    frame.velocities.emplace(frame.coords.size(), 0.5f);
  }
  if (forces) {
    frame.forces.emplace(frame.coords.size(), -1.5f);
  }
  return frame;
}

TEST(TrrTest, CoordsOnlyRoundTrip) {
  const auto system = tiny_system();
  TrrWriter writer;
  for (std::uint32_t f = 0; f < 4; ++f) {
    ASSERT_TRUE(writer.add_frame(make_frame(system, f * 1000, false, false)).is_ok());
  }
  EXPECT_EQ(writer.frame_count(), 4u);
  const auto frames = read_all_trr(writer.bytes()).value();
  ASSERT_EQ(frames.size(), 4u);
  for (std::uint32_t f = 0; f < 4; ++f) {
    EXPECT_EQ(frames[f].step, f * 1000);
    EXPECT_FLOAT_EQ(frames[f].lambda, 0.25f);
    EXPECT_EQ(frames[f].box, system.box());
    EXPECT_EQ(frames[f].coords, system.reference_coords());  // TRR is lossless
    EXPECT_FALSE(frames[f].velocities.has_value());
    EXPECT_FALSE(frames[f].forces.has_value());
  }
}

TEST(TrrTest, VelocityAndForceBlocks) {
  const auto system = tiny_system();
  TrrWriter writer;
  ASSERT_TRUE(writer.add_frame(make_frame(system, 7, true, true)).is_ok());
  const auto frames = read_all_trr(writer.bytes()).value();
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_TRUE(frames[0].velocities.has_value());
  ASSERT_TRUE(frames[0].forces.has_value());
  EXPECT_FLOAT_EQ(frames[0].velocities->at(0), 0.5f);
  EXPECT_FLOAT_EQ(frames[0].forces->at(0), -1.5f);
}

TEST(TrrTest, MismatchedBlockSizesRejectedOnWrite) {
  TrrFrame frame;
  frame.coords = {1, 2, 3};
  frame.velocities.emplace(6, 0.0f);  // 2 atoms worth for a 1-atom frame
  TrrWriter writer;
  EXPECT_FALSE(writer.add_frame(frame).is_ok());
}

TEST(TrrTest, BadMagicRejected) {
  const auto system = tiny_system();
  TrrWriter writer;
  ASSERT_TRUE(writer.add_frame(make_frame(system, 0, false, false)).is_ok());
  auto bytes = writer.take();
  bytes[3] = 0x42;
  EXPECT_FALSE(read_all_trr(bytes).is_ok());
}

TEST(TrrTest, BadVersionStringRejected) {
  const auto system = tiny_system();
  TrrWriter writer;
  ASSERT_TRUE(writer.add_frame(make_frame(system, 0, false, false)).is_ok());
  auto bytes = writer.take();
  bytes[9] = 'X';  // inside "GMX_trn_file"
  EXPECT_FALSE(read_all_trr(bytes).is_ok());
}

TEST(TrrTest, TruncationRejected) {
  const auto system = tiny_system();
  TrrWriter writer;
  ASSERT_TRUE(writer.add_frame(make_frame(system, 0, false, false)).is_ok());
  const auto& bytes = writer.bytes();
  EXPECT_FALSE(read_all_trr(std::span(bytes).subspan(0, bytes.size() - 5)).is_ok());
}

TEST(TrrTest, SniffingDetectsFormat) {
  const auto system = tiny_system();
  TrrWriter writer;
  ASSERT_TRUE(writer.add_frame(make_frame(system, 0, false, false)).is_ok());
  EXPECT_TRUE(looks_like_trr(writer.bytes()));
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_FALSE(looks_like_trr(junk));
  EXPECT_FALSE(looks_like_trr({}));
}

TEST(TrrTest, ToTrajFrameDropsExtras) {
  const auto system = tiny_system();
  const TrrFrame frame = make_frame(system, 42, true, true);
  const TrajFrame traj = frame.to_traj_frame();
  EXPECT_EQ(traj.step, 42u);
  EXPECT_EQ(traj.coords, frame.coords);
}

TEST(TrrTest, EmptyStreamYieldsNoFrames) {
  EXPECT_TRUE(read_all_trr({}).value().empty());
}

// --- concatenated RAW reader --------------------------------------------------------

std::vector<std::uint8_t> raw_segment(const chem::System& system, std::uint32_t first_step,
                                      std::uint32_t frames) {
  RawTrajWriter writer(system.atom_count());
  for (std::uint32_t f = 0; f < frames; ++f) {
    std::vector<float> coords = system.reference_coords();
    coords[0] += static_cast<float>(first_step + f);  // marker
    ADA_CHECK(writer.add_frame(first_step + f, 0.0f, system.box(), coords).is_ok());
  }
  return writer.finish();
}

TEST(RawCatTest, SingleSegmentBehavesLikePlainReader) {
  const auto system = tiny_system();
  const auto image = raw_segment(system, 0, 5);
  const auto cat = RawTrajCatReader::open(image).value();
  EXPECT_EQ(cat.segment_count(), 1u);
  EXPECT_EQ(cat.frame_count(), 5u);
  EXPECT_EQ(cat.frame(3).value().step, 3u);
}

TEST(RawCatTest, MultiSegmentLogicalOrder) {
  const auto system = tiny_system();
  std::vector<std::uint8_t> image = raw_segment(system, 0, 3);
  const auto seg2 = raw_segment(system, 3, 4);
  const auto seg3 = raw_segment(system, 7, 2);
  image.insert(image.end(), seg2.begin(), seg2.end());
  image.insert(image.end(), seg3.begin(), seg3.end());

  const auto cat = RawTrajCatReader::open(image).value();
  EXPECT_EQ(cat.segment_count(), 3u);
  EXPECT_EQ(cat.frame_count(), 9u);
  for (std::uint32_t f = 0; f < 9; ++f) {
    EXPECT_EQ(cat.frame(f).value().step, f) << "frame " << f;
  }
  // read_all preserves order too.
  const auto all = cat.read_all().value();
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all[8].step, 8u);
  EXPECT_FALSE(cat.frame(9).is_ok());
}

TEST(RawCatTest, RecordsViewEverySegmentInPlace) {
  const auto system = tiny_system();
  std::vector<std::uint8_t> image = raw_segment(system, 0, 2);
  const auto empty = raw_segment(system, 2, 0);
  const auto seg3 = raw_segment(system, 2, 3);
  image.insert(image.end(), empty.begin(), empty.end());
  image.insert(image.end(), seg3.begin(), seg3.end());

  const auto cat = RawTrajCatReader::open(image).value();
  ASSERT_EQ(cat.frame_count(), 5u);
  const auto third = RawTrajReader::open(seg3).value();
  for (std::uint32_t f = 0; f < 5; ++f) {
    const auto record = cat.record(f);
    // A view into the concatenated image, never a copy.
    EXPECT_GE(record.data(), image.data()) << f;
    EXPECT_LE(record.data() + record.size(), image.data() + image.size()) << f;
    EXPECT_EQ(record.size(), raw_frame_bytes(system.atom_count()));
    if (f >= 2) {
      const auto want = third.record(f - 2);
      EXPECT_TRUE(std::equal(record.begin(), record.end(), want.begin(), want.end())) << f;
    }
  }
}

TEST(RawCatTest, MismatchedAtomCountsRejected) {
  const auto a = tiny_system();
  workload::GpcrSpec other_spec = workload::GpcrSpec::tiny();
  other_spec.total_atoms = 2179;  // 1 extra water's worth, still whole molecules
  other_spec.protein_atoms = 925;
  const auto b = workload::GpcrSystemBuilder(other_spec).build();
  auto image = raw_segment(a, 0, 1);
  const auto seg2 = raw_segment(b, 1, 1);
  image.insert(image.end(), seg2.begin(), seg2.end());
  EXPECT_FALSE(RawTrajCatReader::open(image).is_ok());
}

TEST(RawCatTest, GarbageBetweenSegmentsRejected) {
  const auto system = tiny_system();
  auto image = raw_segment(system, 0, 2);
  image.push_back(0xff);
  EXPECT_FALSE(RawTrajCatReader::open(image).is_ok());
}

TEST(RawCatTest, TruncatedSecondSegmentRejected) {
  const auto system = tiny_system();
  auto image = raw_segment(system, 0, 2);
  const auto seg2 = raw_segment(system, 2, 2);
  image.insert(image.end(), seg2.begin(), seg2.end() - 10);
  EXPECT_FALSE(RawTrajCatReader::open(image).is_ok());
}

TEST(RawCatTest, EmptyImageIsEmptyTrajectory) {
  const auto cat = RawTrajCatReader::open({}).value();
  EXPECT_EQ(cat.frame_count(), 0u);
  EXPECT_EQ(cat.segment_count(), 0u);
}

}  // namespace
}  // namespace ada::formats
