// Parameterized property sweeps over the XTC pipeline: round trips across
// (atom count, frame count, precision, dynamics amplitude), plus random
// corruption fuzzing of the decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"

namespace ada::formats {
namespace {

std::vector<float> random_molecule_frame(Rng& rng, std::uint32_t atoms, float step_nm) {
  std::vector<float> coords;
  coords.reserve(std::size_t{3} * atoms);
  float x = 4.0f;
  float y = 4.0f;
  float z = 4.0f;
  for (std::uint32_t i = 0; i < atoms; ++i) {
    x += static_cast<float>(rng.normal(0.0, static_cast<double>(step_nm)));
    y += static_cast<float>(rng.normal(0.0, static_cast<double>(step_nm)));
    z += static_cast<float>(rng.normal(0.0, static_cast<double>(step_nm)));
    coords.push_back(x);
    coords.push_back(y);
    coords.push_back(z);
  }
  return coords;
}

class XtcSweepTest
    : public testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, float>> {};

TEST_P(XtcSweepTest, WriteReadRoundTrip) {
  const auto [atoms, frames, precision] = GetParam();
  Rng rng(atoms * 131 + frames * 7 + static_cast<std::uint64_t>(precision));
  codec::CodecParams params;
  params.precision = precision;
  XtcWriter writer(params);
  std::vector<std::vector<float>> truth;
  for (std::uint32_t f = 0; f < frames; ++f) {
    truth.push_back(random_molecule_frame(rng, atoms, 0.12f));
    ASSERT_TRUE(writer
                    .add_frame(f, static_cast<float>(f) * 2.0f,
                               chem::Box::orthorhombic(8, 8, 8), truth.back())
                    .is_ok());
  }
  const auto decoded = read_all_xtc(writer.bytes()).value();
  ASSERT_EQ(decoded.size(), frames);
  const float tolerance = 0.5f / precision + 1e-5f;
  for (std::uint32_t f = 0; f < frames; ++f) {
    ASSERT_EQ(decoded[f].atom_count(), atoms);
    for (std::size_t i = 0; i < truth[f].size(); ++i) {
      ASSERT_NEAR(decoded[f].coords[i], truth[f][i], tolerance)
          << "frame " << f << " coord " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, XtcSweepTest,
    testing::Combine(testing::Values(1u, 7u, 64u, 1000u), testing::Values(1u, 3u, 10u),
                     testing::Values(100.0f, 1000.0f, 10000.0f)),
    [](const auto& param_info) {
      return "atoms" + std::to_string(std::get<0>(param_info.param)) + "_frames" +
             std::to_string(std::get<1>(param_info.param)) + "_prec" +
             std::to_string(static_cast<int>(std::get<2>(param_info.param)));
    });

TEST(XtcFuzzTest, RandomCorruptionNeverCrashesOrHangs) {
  // Flip random bytes in valid streams; the reader must either reject or
  // produce frames -- never crash, loop, or read out of bounds (ASAN-free
  // build still catches aborts/UB via the harness).
  Rng rng(4242);
  XtcWriter writer;
  for (std::uint32_t f = 0; f < 5; ++f) {
    const auto coords = random_molecule_frame(rng, 100, 0.1f);
    ASSERT_TRUE(writer.add_frame(f, 0.0f, chem::Box::orthorhombic(8, 8, 8), coords).is_ok());
  }
  const auto pristine = writer.take();
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = pristine;
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int i = 0; i < flips; ++i) {
      corrupted[rng.uniform_index(corrupted.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    }
    const auto result = read_all_xtc(corrupted);  // outcome may be ok or error
    if (result.is_ok()) {
      for (const auto& frame : result.value()) {
        EXPECT_LE(frame.coords.size(), 400u);  // atom counts can't explode silently
      }
    }
  }
}

TEST(XtcFuzzTest, TruncationAtEveryBoundaryIsHandled) {
  Rng rng(99);
  XtcWriter writer;
  const auto coords = random_molecule_frame(rng, 20, 0.1f);
  ASSERT_TRUE(writer.add_frame(0, 0.0f, chem::Box::orthorhombic(8, 8, 8), coords).is_ok());
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    const auto result = read_all_xtc(std::span(bytes).subspan(0, cut));
    if (cut == 0) {
      EXPECT_TRUE(result.is_ok());  // empty stream: zero frames
    } else {
      EXPECT_FALSE(result.is_ok()) << "cut at " << cut;
    }
  }
}

TEST(RawFuzzTest, HeaderCorruptionRejected) {
  Rng rng(7);
  RawTrajWriter writer(10);
  std::vector<float> coords(30, 1.0f);
  ASSERT_TRUE(writer.add_frame(0, 0.0f, chem::Box{}, coords).is_ok());
  const auto pristine = writer.finish();
  for (std::size_t byte = 0; byte < 16; ++byte) {
    auto corrupted = pristine;
    corrupted[byte] ^= 0xff;
    // Header corruption must be rejected (magic, atom count, frame count all
    // participate in the size check).
    EXPECT_FALSE(RawTrajReader::open(corrupted).is_ok()) << "byte " << byte;
  }
}

/// `atoms` atoms dealt to three groups in runs of 1..5 atoms; the third
/// group stays empty.
std::vector<chem::Selection> interleaved_groups(Rng& rng, std::uint32_t atoms) {
  std::vector<chem::Selection> groups(3);
  for (std::uint32_t begin = 0; begin < atoms;) {
    const auto end =
        std::min<std::uint32_t>(atoms, begin + 1 + static_cast<std::uint32_t>(rng.uniform_index(5)));
    groups[rng.uniform_index(2)].add_run(chem::Run{begin, end});
    begin = end;
  }
  return groups;
}

TEST(XtcRoutedTest, RoutedReaderMatchesWholeFrameDecode) {
  // Over v1 images: next_routed stores in each group's record what next()
  // followed by encode_raw_frame stores, and walks the same frame bounds.
  Rng rng(5150);
  for (const std::uint32_t atoms : {1u, 7u, 64u, 1000u}) {
    XtcWriter writer;
    for (std::uint32_t f = 0; f < 4; ++f) {
      ASSERT_TRUE(writer
                      .add_frame(10 * f, 0.5f * static_cast<float>(f),
                                 chem::Box::orthorhombic(8, 8, 8),
                                 random_molecule_frame(rng, atoms, 0.12f))
                      .is_ok());
    }
    const auto groups = interleaved_groups(rng, atoms);
    std::vector<const chem::Selection*> group_ptrs;
    std::vector<std::vector<std::uint8_t>> records;
    for (const chem::Selection& group : groups) {
      group_ptrs.push_back(&group);
      records.emplace_back(raw_frame_bytes(static_cast<std::uint32_t>(group.count())));
    }
    const auto plan = raw_scatter_plan(group_ptrs);
    std::vector<std::uint8_t*> pointers;
    for (auto& record : records) pointers.push_back(record.data());

    XtcReader whole(writer.bytes());
    XtcReader routed(writer.bytes());
    TrajFrame frame;
    FrameStamp stamp;
    for (std::uint32_t f = 0; f < 4; ++f) {
      ASSERT_TRUE(whole.next(frame).value());
      ASSERT_TRUE(routed.next_routed(stamp, plan, pointers).value());
      EXPECT_EQ(routed.position(), whole.position());
      for (std::size_t g = 0; g < groups.size(); ++g) {
        std::vector<std::uint8_t> want(records[g].size());
        encode_raw_frame(want.data(), frame.step, frame.time_ps, frame.box, frame.coords,
                         groups[g]);
        encode_raw_frame_header(records[g].data(), stamp);
        EXPECT_TRUE(records[g] == want) << atoms << " atoms, frame " << f << ", group " << g;
      }
    }
    EXPECT_FALSE(routed.next_routed(stamp, plan, pointers).value());
  }
}

TEST(XtcRoutedTest, V2ImagesTakeTheScratchPath) {
  // The scan marks every v2 frame, keyframes included, and no v1 frame: a
  // decoder knows before the first frame whether it may route.  A routed
  // read of a v2 frame is refused without moving the reader.
  Rng rng(5151);
  XtcWriter v1;
  XtcWriter v2({}, codec::CodecVersion::kV2, 2);
  for (std::uint32_t f = 0; f < 5; ++f) {
    const auto coords = random_molecule_frame(rng, 50, 0.05f);
    ASSERT_TRUE(v1.add_frame(f, 0.0f, chem::Box::orthorhombic(8, 8, 8), coords).is_ok());
    ASSERT_TRUE(v2.add_frame(f, 0.0f, chem::Box::orthorhombic(8, 8, 8), coords).is_ok());
  }
  const auto v1_extents = scan_xtc_extents(v1.bytes()).value();
  for (const XtcFrameExtent& extent : v1_extents) EXPECT_FALSE(extent.v2);
  const auto extents = scan_xtc_extents(v2.bytes()).value();
  ASSERT_EQ(extents.size(), 5u);
  for (const XtcFrameExtent& extent : extents) EXPECT_TRUE(extent.v2);
  EXPECT_TRUE(extents[0].intra);

  const chem::Selection all = chem::Selection::all(50);
  const chem::Selection* group = &all;
  const auto plan = raw_scatter_plan(std::span(&group, 1));
  std::vector<std::uint8_t> record(raw_frame_bytes(50));
  std::uint8_t* const pointer = record.data();
  XtcReader reader(v2.bytes());
  FrameStamp stamp;
  const auto result = reader.next_routed(stamp, plan, std::span(&pointer, 1));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnsupported);
  EXPECT_EQ(reader.position(), 0u);
}

}  // namespace
}  // namespace ada::formats
