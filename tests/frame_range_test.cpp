// Frame-range query tests: the differential property suite behind
// `ctest -L check-range`.
//
// The contract under test: Ada::query(name, tag, range) is byte-identical to
// slicing the same frames out of the full-subset query -- across codec
// versions (v1/v2 streams), frame spans on/off (fast path vs fallback),
// cache on/off (block cache vs direct reads), and batch vs streamed
// (single- vs multi-extent) ingest.  The reference slicer below is an
// independent decode-and-re-emit, not the production slice code.
//
// Also here: the ingest compat matrix (v1 containers read by a v2-capable
// build and vice versa) and fsck over span-bearing indexes (a lying span
// routes to the fallback and can never crash a range query).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "ada/vfs.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plfs/fsck.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

// Independent reference: decode the full subset and re-emit the selected
// frames through a fresh RawTrajWriter.  Float payloads survive bit-exact
// (little-endian reads/writes are memcpy-based), so this is byte-identical
// to cutting the records out -- without sharing any code with the
// production fast path or fallback slicer.
std::vector<std::uint8_t> reference_slice(const std::vector<std::uint8_t>& full,
                                          const FrameRange& range) {
  const auto cat = formats::RawTrajCatReader::open(full).value();
  formats::RawTrajWriter writer(cat.atom_count());
  const std::uint64_t limit = std::min<std::uint64_t>(range.end, cat.frame_count());
  for (std::uint64_t g = range.begin; g < limit; g += range.stride) {
    const auto frame = cat.frame(static_cast<std::uint32_t>(g)).value();
    ADA_CHECK(writer.add_frame(frame.step, frame.time_ps, frame.box, frame.coords).is_ok());
  }
  return writer.finish();
}

class FrameRangeTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/ada_range_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  }
  void TearDown() override { fs::remove_all(root_); }

  std::vector<std::uint8_t> make_xtc(std::uint32_t frames,
                                     codec::CodecVersion version = codec::CodecVersion::kV1) {
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    formats::XtcWriter writer({}, version, /*keyframe_interval=*/8);
    for (std::uint32_t f = 0; f < frames; ++f) {
      ADA_CHECK(writer
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
    }
    return writer.take();
  }

  std::unique_ptr<Ada> open_ada(const std::string& subdir, bool frame_tables,
                                std::uint64_t cache_bytes, bool overwrite = false) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.frame_tables = frame_tables;
    config.cache_bytes = cache_bytes;
    config.overwrite = overwrite;
    const std::string base = root_ + "/" + subdir;
    return std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(), config);
  }

  // The ranges every configuration is checked against: whole, empty,
  // single-frame, off-the-end start, truncated end, stride > range, and a
  // handful of random ones.
  std::vector<FrameRange> probe_ranges(std::uint32_t frames) {
    std::vector<FrameRange> ranges = {
        {},                                  // every frame
        {0, 0, 1},                           // empty
        {frames / 2, frames / 2 + 1, 1},     // single frame
        {frames + 10, frames + 20, 1},       // fully off the end
        {frames - 1, frames + 100, 1},       // end clamped
        {2, frames, frames + 5},             // stride > range: first frame only
        {0, frames, 2},                      // even frames
        {1, frames, 3},
    };
    Rng rng(frames * 31u + 7u);
    for (int i = 0; i < 6; ++i) {
      FrameRange r;
      r.begin = static_cast<std::uint32_t>(rng.uniform_index(frames + 4));
      r.end = r.begin + static_cast<std::uint32_t>(rng.uniform_index(frames + 4));
      r.stride = 1 + static_cast<std::uint32_t>(rng.uniform_index(7));
      ranges.push_back(r);
    }
    return ranges;
  }

  // Every probe range, byte-compared against the independent slicer; ranged
  // queries run twice so a warm block cache is exercised when armed.
  void check_differential(Ada& ada, const std::string& name, std::uint32_t frames) {
    const auto tags = ada.tags(name).value();
    ASSERT_FALSE(tags.empty());
    for (const Tag& tag : tags) {
      const auto full = ada.query(name, tag).value();
      for (const FrameRange& range : probe_ranges(frames)) {
        const auto want = reference_slice(full, range);
        for (int round = 0; round < 2; ++round) {
          const auto got = ada.query(name, tag, range);
          ASSERT_TRUE(got.is_ok()) << got.error().to_string();
          ASSERT_EQ(got.value(), want)
              << "range [" << range.begin << "," << range.end << ") stride " << range.stride
              << " tag " << tag << " round " << round;
        }
      }
    }
  }

  std::string root_;
  chem::System system_;
};

constexpr std::uint64_t kPlentyOfCache = 64u << 20;

// --- differential property: batch ingest (one extent per tag) ------------------

class FrameRangeMatrixTest
    : public FrameRangeTest,
      public testing::WithParamInterface<std::tuple<codec::CodecVersion, bool, std::uint64_t>> {};

TEST_P(FrameRangeMatrixTest, BatchIngestMatchesReferenceSlice) {
  const auto [version, tables, cache_bytes] = GetParam();
  auto ada = open_ada("batch", tables, cache_bytes);
  constexpr std::uint32_t kFrames = 24;
  ASSERT_TRUE(ada->ingest(system_, make_xtc(kFrames, version), "bar.xtc").is_ok());
  check_differential(*ada, "bar.xtc", kFrames);
}

TEST_P(FrameRangeMatrixTest, StreamedIngestMatchesReferenceSlice) {
  const auto [version, tables, cache_bytes] = GetParam();
  (void)version;  // streams ingest decoded frames; codec version is moot
  auto ada = open_ada("stream", tables, cache_bytes);
  const LabelMap labels = categorize_protein_misc(system_);
  // chunk_frames=5 and 23 frames: extents of 5,5,5,5,3 per tag, so range
  // blocks span extent boundaries.
  auto stream = ada->begin_stream(labels, "seq.xtc", 5);
  ASSERT_TRUE(stream.is_ok());
  workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
  constexpr std::uint32_t kFrames = 23;
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    const auto frame = gen.next_frame();
    ASSERT_TRUE(stream.value()
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(), frame)
                    .is_ok());
  }
  ASSERT_TRUE(stream.value().finish().is_ok());
  check_differential(*ada, "seq.xtc", kFrames);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrameRangeMatrixTest,
    testing::Combine(testing::Values(codec::CodecVersion::kV1, codec::CodecVersion::kV2),
                     testing::Bool(), testing::Values(std::uint64_t{0}, kPlentyOfCache)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == codec::CodecVersion::kV1 ? "v1" : "v2") +
             (std::get<1>(info.param) ? "_tables" : "_notables") +
             (std::get<2>(info.param) != 0 ? "_cached" : "_uncached");
    });

// --- fast path / fallback wiring ------------------------------------------------

TEST_F(FrameRangeTest, FastPathEngagesOnTableBearingContainers) {
  obs::reset_all();
  obs::set_enabled(true);
  auto ada = open_ada("fast", /*frame_tables=*/true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(12), "bar.xtc").is_ok());
  ASSERT_TRUE(ada->query("bar.xtc", kProteinTag, FrameRange{2, 9, 2}).is_ok());
  EXPECT_EQ(obs::Registry::global().counter_value("query.range.fallback"), 0u)
      << "span-bearing container should serve ranges without the fallback";
  obs::set_enabled(false);
  obs::reset_all();
}

TEST_F(FrameRangeTest, LegacyContainersFallBack) {
  // The fallback reads the whole subset once and is one query: it counts one
  // query.calls, only the bytes it returns as query.bytes_out, and nests no
  // second query span -- with the cache off and armed alike.
  for (const std::uint64_t cache_bytes : {std::uint64_t{0}, kPlentyOfCache}) {
    const std::string label = "cache_bytes=" + std::to_string(cache_bytes);
    auto ada = open_ada("legacy" + std::to_string(cache_bytes), /*frame_tables=*/false,
                        cache_bytes);
    ASSERT_TRUE(ada->ingest(system_, make_xtc(12), "bar.xtc").is_ok());
    obs::reset_all();
    obs::set_enabled(true);
    const auto sliced = ada->query("bar.xtc", kProteinTag, FrameRange{2, 9, 2});
    ASSERT_TRUE(sliced.is_ok()) << label;
    const auto& registry = obs::Registry::global();
    EXPECT_EQ(registry.counter_value("query.range.fallback"), 1u) << label;
    EXPECT_EQ(registry.counter_value("query.calls"), 1u) << label;
    EXPECT_EQ(registry.counter_value("query.bytes_out"), sliced.value().size()) << label;
    for (const auto& span : obs::span_stats()) {
      EXPECT_EQ(span.path.find("/query"), std::string::npos) << label << ": nested " << span.path;
    }
    obs::set_enabled(false);
    obs::reset_all();
  }
}

TEST_F(FrameRangeTest, ZeroStrideRejected) {
  auto ada = open_ada("zstride", true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(4), "bar.xtc").is_ok());
  EXPECT_FALSE(ada->query("bar.xtc", kProteinTag, FrameRange{0, 4, 0}).is_ok());
}

TEST_F(FrameRangeTest, ReservedTagsRejected) {
  auto ada = open_ada("reserved", true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(4), "bar.xtc").is_ok());
  EXPECT_FALSE(ada->query("bar.xtc", kLabelFileTag, FrameRange{}).is_ok());
  EXPECT_FALSE(ada->query("bar.xtc", kOriginalTag, FrameRange{}).is_ok());
}

TEST_F(FrameRangeTest, VfsReadThreadsTheRange) {
  auto ada = open_ada("vfs", true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(10), "bar.xtc").is_ok());
  VfsShim shim(*ada, root_ + "/vfs_passthrough");
  const FrameRange range{1, 8, 3};
  const auto direct = ada->query("bar.xtc", kProteinTag, range).value();
  const auto via_vfs = shim.read("/mnt/bar.xtc", "vmd", kProteinTag, range);
  ASSERT_TRUE(via_vfs.is_ok());
  EXPECT_EQ(via_vfs.value(), direct);
  // A frame selection without a tag has no defined frame axis.
  EXPECT_FALSE(shim.read("/mnt/bar.xtc", "vmd", std::nullopt, range).is_ok());
}

TEST_F(FrameRangeTest, OverwriteInvalidatesCachedBlocks) {
  auto ada = open_ada("inval", true, kPlentyOfCache, /*overwrite=*/true);
  const auto first = make_xtc(16);
  ASSERT_TRUE(ada->ingest(system_, first, "bar.xtc").is_ok());
  const FrameRange range{3, 13, 2};
  const auto before = ada->query("bar.xtc", kProteinTag, range).value();  // fills blocks

  // Different dynamics seed: the replacement trajectory differs.
  workload::DynamicsSpec dynamics;
  dynamics.seed = 999;
  workload::TrajectoryGenerator gen(system_, dynamics);
  formats::XtcWriter writer;
  for (std::uint32_t f = 0; f < 16; ++f) {
    ASSERT_TRUE(writer
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
  }
  ASSERT_TRUE(ada->ingest(system_, writer.take(), "bar.xtc").is_ok());

  const auto after = ada->query("bar.xtc", kProteinTag, range).value();
  EXPECT_NE(after, before) << "stale cached blocks served after overwrite";
  EXPECT_EQ(after, reference_slice(ada->query("bar.xtc", kProteinTag).value(), range));
}

// --- ingest compat matrix -------------------------------------------------------

TEST_F(FrameRangeTest, TableAndTablelessIngestsStoreIdenticalSubsets) {
  // The frame span lives in the index only: the stored subset bytes (and
  // therefore every full query) are identical with tables on or off.
  const auto xtc = make_xtc(9);
  auto with_tables = open_ada("with", true, 0);
  auto without = open_ada("without", false, 0);
  ASSERT_TRUE(with_tables->ingest(system_, xtc, "bar.xtc").is_ok());
  ASSERT_TRUE(without->ingest(system_, xtc, "bar.xtc").is_ok());
  const auto tags = with_tables->tags("bar.xtc").value();
  for (const Tag& tag : tags) {
    EXPECT_EQ(with_tables->query("bar.xtc", tag).value(), without->query("bar.xtc", tag).value());
  }
}

TEST_F(FrameRangeTest, V1AndV2StreamsIngestToIdenticalSubsets) {
  // Same trajectory through both codecs: the decoded subsets must agree
  // frame for frame at the shared quantization grid, so queries (full and
  // ranged) are byte-identical -- the v2 rollout can't change what readers
  // see.
  auto v1 = open_ada("v1", true, 0);
  auto v2 = open_ada("v2", true, 0);
  ASSERT_TRUE(v1->ingest(system_, make_xtc(14, codec::CodecVersion::kV1), "bar.xtc").is_ok());
  ASSERT_TRUE(v2->ingest(system_, make_xtc(14, codec::CodecVersion::kV2), "bar.xtc").is_ok());
  const auto tags = v1->tags("bar.xtc").value();
  for (const Tag& tag : tags) {
    EXPECT_EQ(v1->query("bar.xtc", tag).value(), v2->query("bar.xtc", tag).value());
    const FrameRange range{2, 11, 3};
    EXPECT_EQ(v1->query("bar.xtc", tag, range).value(), v2->query("bar.xtc", tag, range).value());
  }
}

// --- fsck over frame spans ----------------------------------------------------

TEST_F(FrameRangeTest, FsckAcceptsHealthyFrameTables) {
  auto ada = open_ada("fsck_ok", true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(8), "bar.xtc").is_ok());
  const auto report = plfs::verify_container(ada->mount(), "bar.xtc").value();
  EXPECT_TRUE(report.clean());
  // The ingest actually produced spans (the fsck pass wasn't vacuous): each
  // batch subset holds frames [0, 8).
  std::size_t spans = 0;
  const auto index = ada->mount().read_index("bar.xtc").value();
  for (const auto& record : index.records) {
    if (!record.has_frame_span()) continue;
    ++spans;
    EXPECT_EQ(record.frame_base, 0u);
    EXPECT_EQ(record.frame_count, 8u);
  }
  EXPECT_EQ(spans, 2u);  // p and m; the label file carries none
}

TEST_F(FrameRangeTest, NonCanonicalTablesFallBackAndStayCorrect) {
  // Spans that do not describe their extent -- a count that does not divide
  // it, a base off the floor, a count the stored RAW header contradicts --
  // route to the fallback and still serve exactly the right bytes.  The
  // data itself is intact, so fsck stays clean.
  auto ada = open_ada("noncanon", true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(8), "bar.xtc").is_ok());
  const auto pristine = ada->mount().read_index("bar.xtc").value();
  const FrameRange range{1, 7, 2};
  const auto want = reference_slice(ada->query("bar.xtc", kProteinTag).value(), range);
  for (int lie = 0; lie < 3; ++lie) {
    auto index = pristine;
    for (auto& record : index.records) {
      if (record.label != kProteinTag) continue;
      if (lie == 0) record.frame_count -= 1;
      if (lie == 1) record.frame_base += 1;
      // 8 frames claimed as 2: a RAW-shaped frame size four times too big.
      if (lie == 2) record.frame_count = 2;
    }
    ASSERT_TRUE(ada->mount().rewrite_index("bar.xtc", index).is_ok());
    EXPECT_TRUE(plfs::verify_container(ada->mount(), "bar.xtc").value().clean()) << lie;

    obs::reset_all();
    obs::set_enabled(true);
    const auto got = ada->query("bar.xtc", kProteinTag, range);
    EXPECT_EQ(obs::Registry::global().counter_value("query.range.fallback"), 1u) << lie;
    obs::set_enabled(false);
    obs::reset_all();
    ASSERT_TRUE(got.is_ok()) << lie << ": " << got.error().to_string();
    EXPECT_EQ(got.value(), want) << lie;
  }
}

TEST_F(FrameRangeTest, EmptySelectionTakesItsAtomCountFromAStoredHeader) {
  // An empty selection still answers a header, and its atom count comes from
  // one CRC-verified extent read -- never from span arithmetic alone, which a
  // lying frame_count can bend into another RAW-shaped frame size.
  auto ada = open_ada("empty", true, 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(8), "bar.xtc").is_ok());
  const auto atoms = categorize_protein_misc(system_).selection(kProteinTag).value().count();
  const auto want = formats::RawTrajWriter(static_cast<std::uint32_t>(atoms)).finish();
  const FrameRange past_the_end{20, 30, 1};

  obs::reset_all();
  obs::set_enabled(true);
  const auto honest = ada->query("bar.xtc", kProteinTag, past_the_end);
  const auto& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter_value("plfs.read.calls"), 1u) << "one header read";
  EXPECT_EQ(registry.counter_value("query.range.fallback"), 0u);
  ASSERT_TRUE(honest.is_ok()) << honest.error().to_string();
  EXPECT_EQ(honest.value(), want);

  // 8 frames claimed as 2: the span implies 4x the frame size, which is
  // RAW-shaped.  The stored header says 8 frames, so the query falls back.
  auto index = ada->mount().read_index("bar.xtc").value();
  for (auto& record : index.records) {
    if (record.label == kProteinTag) record.frame_count = 2;
  }
  ASSERT_TRUE(ada->mount().rewrite_index("bar.xtc", index).is_ok());
  obs::reset_all();
  const auto lied = ada->query("bar.xtc", kProteinTag, past_the_end);
  EXPECT_EQ(registry.counter_value("query.range.fallback"), 1u);
  obs::set_enabled(false);
  obs::reset_all();
  ASSERT_TRUE(lied.is_ok()) << lied.error().to_string();
  EXPECT_EQ(lied.value(), want);
}

}  // namespace
}  // namespace ada::core
