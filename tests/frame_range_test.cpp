// Frame-range query tests: the differential property suite behind
// `ctest -L check-range`.
//
// The contract under test: Ada::query(name, tag, range) is byte-identical to
// slicing the same frames out of the full-subset query -- across codec
// versions (v1/v2 streams), stored shapes on/off (planned path vs the
// fallback for records that store none),
// cache on/off (block cache vs direct reads), and batch vs streamed
// (single- vs multi-extent) ingest.  The reference slicer below is an
// independent decode-and-re-emit, not the production slice code.
//
// Also here: the ingest compat matrix (v1 containers read by a v2-capable
// build and vice versa), fsck over span-bearing indexes, and lying shapes
// (a typed kCorruptData, never a crash or wrong bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
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
#include "test_util.hpp"

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
    root_ = test::unique_temp_dir("ada_range");
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

  std::unique_ptr<Ada> open_ada(const std::string& subdir, std::uint64_t cache_bytes,
                                bool overwrite = false) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.cache_bytes = cache_bytes;
    config.overwrite = overwrite;
    const std::string base = root_ + "/" + subdir;
    return std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(), config);
  }

  // `frames` generated frames streamed into `name` in chunks of `chunk`.
  void stream_ingest(Ada& ada, const std::string& name, std::uint32_t frames,
                     std::uint32_t chunk) {
    auto stream = ada.begin_stream(categorize_protein_misc(system_), name, chunk);
    ASSERT_TRUE(stream.is_ok());
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    for (std::uint32_t f = 0; f < frames; ++f) {
      const auto frame = gen.next_frame();
      ASSERT_TRUE(stream.value()
                      .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(), frame)
                      .is_ok());
    }
    ASSERT_TRUE(stream.value().finish().is_ok());
  }

  // Republish `name`'s index with `flags` cleared on every record: the
  // atom count alone gives what older writers stored (spans, no atom
  // count), the span too a container whose records carry no shape at all.
  void clear_record_flags(Ada& ada, const std::string& name, std::uint8_t flags) {
    auto index = ada.mount().read_index(name).value();
    for (auto& record : index.records) record.flags &= static_cast<std::uint8_t>(~flags);
    ASSERT_TRUE(ada.mount().rewrite_index(name, index).is_ok());
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

// Both flags of a record's stored shape.
constexpr std::uint8_t kShape = plfs::IndexRecord::kHasFrameSpan | plfs::IndexRecord::kHasAtomCount;

// --- differential property: batch ingest (one extent per tag) ------------------

// Parameters: codec version, whether the records keep their stored shapes
// ("_tables"; "_notables" clears them after ingest, so every range goes
// through the fallback), and the cache budget.
class FrameRangeMatrixTest
    : public FrameRangeTest,
      public testing::WithParamInterface<std::tuple<codec::CodecVersion, bool, std::uint64_t>> {};

TEST_P(FrameRangeMatrixTest, BatchIngestMatchesReferenceSlice) {
  const auto [version, tables, cache_bytes] = GetParam();
  auto ada = open_ada("batch", cache_bytes);
  constexpr std::uint32_t kFrames = 24;
  ASSERT_TRUE(ada->ingest(system_, make_xtc(kFrames, version), "bar.xtc").is_ok());
  if (!tables) clear_record_flags(*ada, "bar.xtc", kShape);
  check_differential(*ada, "bar.xtc", kFrames);
}

TEST_P(FrameRangeMatrixTest, StreamedIngestMatchesReferenceSlice) {
  const auto [version, tables, cache_bytes] = GetParam();
  (void)version;  // streams ingest decoded frames; codec version is moot
  auto ada = open_ada("stream", cache_bytes);
  // chunk_frames=5 and 23 frames: extents of 5,5,5,5,3 per tag, so range
  // blocks span extent boundaries.
  constexpr std::uint32_t kFrames = 23;
  stream_ingest(*ada, "seq.xtc", kFrames, 5);
  if (!tables) clear_record_flags(*ada, "seq.xtc", kShape);
  check_differential(*ada, "seq.xtc", kFrames);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrameRangeMatrixTest,
    testing::Combine(testing::Values(codec::CodecVersion::kV1, codec::CodecVersion::kV2),
                     testing::Bool(), testing::Values(std::uint64_t{0}, kPlentyOfCache)),
    [](const auto& instance) {
      return std::string(std::get<0>(instance.param) == codec::CodecVersion::kV1 ? "v1" : "v2") +
             (std::get<1>(instance.param) ? "_tables" : "_notables") +
             (std::get<2>(instance.param) != 0 ? "_cached" : "_uncached");
    });

// --- fast path / fallback wiring ------------------------------------------------

TEST_F(FrameRangeTest, FastPathEngagesOnTableBearingContainers) {
  obs::reset_all();
  obs::set_enabled(true);
  auto ada = open_ada("fast", 0);
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
    auto ada = open_ada("legacy" + std::to_string(cache_bytes), cache_bytes);
    ASSERT_TRUE(ada->ingest(system_, make_xtc(12), "bar.xtc").is_ok());
    clear_record_flags(*ada, "bar.xtc", kShape);
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

TEST_F(FrameRangeTest, ShapelessRecordsAnswerByteIdenticallyThroughTheFallback) {
  // Records that store no shape -- spans without an atom count (what older
  // v3 writers stored) or no span at all -- still answer every range and
  // tail query with exactly the bytes a shape-bearing index answers, all
  // through the fallback, on batch and streamed containers alike.
  constexpr std::uint32_t kFrames = 13;
  const std::uint8_t strips[] = {plfs::IndexRecord::kHasAtomCount, kShape};
  for (const bool streamed : {false, true}) {
    for (const std::uint8_t strip : strips) {
      SCOPED_TRACE(testing::Message() << (streamed ? "streamed" : "batch") << ", cleared flags "
                                      << static_cast<int>(strip));
      auto ada = open_ada("shapeless" + std::to_string(streamed) + std::to_string(strip), 0);
      if (streamed) {
        stream_ingest(*ada, "bar.xtc", kFrames, 4);
      } else {
        ASSERT_TRUE(ada->ingest(system_, make_xtc(kFrames), "bar.xtc").is_ok());
      }
      const std::uint64_t cursors[] = {0, 3, 5, kFrames - 1, kFrames, kFrames + 4};
      std::vector<std::vector<std::uint8_t>> want;
      for (const FrameRange& range : probe_ranges(kFrames)) {
        want.push_back(ada->query("bar.xtc", kProteinTag, range).value());
      }
      for (const std::uint64_t from : cursors) {
        const auto chunk = ada->query_tail("bar.xtc", kProteinTag, from).value();
        ASSERT_EQ(chunk.frames, from < kFrames ? kFrames - from : 0) << from;
        want.push_back(chunk.image);
      }

      clear_record_flags(*ada, "bar.xtc", strip);
      obs::reset_all();
      obs::set_enabled(true);
      std::size_t k = 0;
      for (const FrameRange& range : probe_ranges(kFrames)) {
        const auto got = ada->query("bar.xtc", kProteinTag, range);
        ASSERT_TRUE(got.is_ok()) << got.error().to_string();
        EXPECT_EQ(got.value(), want[k++]) << "range [" << range.begin << "," << range.end
                                          << ") stride " << range.stride;
      }
      for (const std::uint64_t from : cursors) {
        const auto got = ada->query_tail("bar.xtc", kProteinTag, from);
        ASSERT_TRUE(got.is_ok()) << got.error().to_string();
        EXPECT_EQ(got.value().frames, from < kFrames ? kFrames - from : 0) << from;
        EXPECT_TRUE(got.value().sealed) << from;
        EXPECT_EQ(got.value().image, want[k++]) << "tail from " << from;
      }
      const auto& registry = obs::Registry::global();
      EXPECT_GT(registry.counter_value("query.range.calls"), 0u);
      EXPECT_EQ(registry.counter_value("query.range.fallback"),
                registry.counter_value("query.range.calls"));
      obs::set_enabled(false);
      obs::reset_all();
    }
  }
}

TEST_F(FrameRangeTest, ZeroStrideRejected) {
  auto ada = open_ada("zstride", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(4), "bar.xtc").is_ok());
  EXPECT_FALSE(ada->query("bar.xtc", kProteinTag, FrameRange{0, 4, 0}).is_ok());
}

TEST_F(FrameRangeTest, ReservedTagsRejected) {
  auto ada = open_ada("reserved", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(4), "bar.xtc").is_ok());
  EXPECT_FALSE(ada->query("bar.xtc", kLabelFileTag, FrameRange{}).is_ok());
  EXPECT_FALSE(ada->query("bar.xtc", kOriginalTag, FrameRange{}).is_ok());
}

TEST_F(FrameRangeTest, VfsReadThreadsTheRange) {
  auto ada = open_ada("vfs", 0);
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
  auto ada = open_ada("inval", kPlentyOfCache, /*overwrite=*/true);
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
  // The shape lives in the index only: the stored subset bytes, and so
  // every full query, are the same with the records' shapes stored or
  // cleared.
  auto ada = open_ada("shapes", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(9), "bar.xtc").is_ok());
  const auto tags = ada->tags("bar.xtc").value();
  std::vector<std::vector<std::uint8_t>> with_shapes;
  for (const Tag& tag : tags) with_shapes.push_back(ada->query("bar.xtc", tag).value());
  clear_record_flags(*ada, "bar.xtc", kShape);
  for (std::size_t t = 0; t < tags.size(); ++t) {
    EXPECT_EQ(ada->query("bar.xtc", tags[t]).value(), with_shapes[t]) << tags[t];
  }
}

TEST_F(FrameRangeTest, V1AndV2StreamsIngestToIdenticalSubsets) {
  // Same trajectory through both codecs: the decoded subsets must agree
  // frame for frame at the shared quantization grid, so queries (full and
  // ranged) are byte-identical -- the v2 rollout can't change what readers
  // see.
  auto v1 = open_ada("v1", 0);
  auto v2 = open_ada("v2", 0);
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
  auto ada = open_ada("fsck_ok", 0);
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

TEST_F(FrameRangeTest, LyingShapesAreCorruptNeverWrongBytes) {
  // A stored shape that does not describe its extent -- a count off by one,
  // a base off the floor, a length or atom count that does not match, or a
  // count and atom count bent together so the length still fits, which
  // only the extent's CRC-verified header contradicts -- is a typed
  // kCorruptData, never a slice of the wrong bytes.
  auto ada = open_ada("lying", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(8), "bar.xtc").is_ok());
  const auto pristine = ada->mount().read_index("bar.xtc").value();
  const FrameRange range{1, 7, 2};
  ASSERT_TRUE(ada->query("bar.xtc", kProteinTag, range).is_ok());
  for (int lie = 0; lie < 5; ++lie) {
    auto index = pristine;
    for (auto& record : index.records) {
      if (record.label != kProteinTag) continue;
      ASSERT_TRUE(record.has_atom_count());
      if (lie == 0) record.frame_count -= 1;
      if (lie == 1) record.frame_base += 1;
      if (lie == 2) record.length += 12;
      if (lie == 3) record.atom_count += 1;
      // 8 frames of A atoms claimed as 2 of 4A + 11: the same length.
      if (lie == 4) record.set_frame_span(plfs::FrameSpan{0, 2, 4 * record.atom_count + 11});
    }
    ASSERT_TRUE(ada->mount().rewrite_index("bar.xtc", index).is_ok());

    obs::reset_all();
    obs::set_enabled(true);
    const auto got = ada->query("bar.xtc", kProteinTag, range);
    const auto& registry = obs::Registry::global();
    EXPECT_EQ(registry.counter_value("query.range.fallback"), 0u) << lie;
    // The planning check catches a shape that contradicts itself or its
    // neighbours before any read; only the bent pair needs its extent read.
    EXPECT_EQ(registry.counter_value("plfs.read.calls"), lie == 4 ? 1u : 0u) << lie;
    obs::set_enabled(false);
    obs::reset_all();
    ASSERT_FALSE(got.is_ok()) << lie << ": a lying shape was served";
    EXPECT_EQ(got.error().code(), ErrorCode::kCorruptData) << lie << ": " << got.error().to_string();
    EXPECT_NE(got.error().message().find("dropping.p."), std::string::npos)
        << lie << ": the error names the record: " << got.error().message();
  }
}

TEST_F(FrameRangeTest, EmptySelectionReadsNoExtent) {
  // An empty selection answers a header-only image whose atom count is the
  // one the index records store: no extent is read, and nothing falls back
  // -- on a batch container, a streamed one, and a zero-frame batch ingest.
  const auto atoms = categorize_protein_misc(system_).selection(kProteinTag).value().count();
  const auto header_only = formats::RawTrajWriter(static_cast<std::uint32_t>(atoms)).finish();
  auto ada = open_ada("empty", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(8), "batch.xtc").is_ok());
  stream_ingest(*ada, "stream.xtc", 9, 4);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(0), "none.xtc").is_ok());
  const std::pair<const char*, FrameRange> cases[] = {
      {"batch.xtc", FrameRange{20, 30, 1}},
      {"stream.xtc", FrameRange{500}},
      {"none.xtc", FrameRange{}},
  };
  for (const auto& [name, range] : cases) {
    obs::reset_all();
    obs::set_enabled(true);
    const auto got = ada->query(name, kProteinTag, range);
    const auto& registry = obs::Registry::global();
    EXPECT_EQ(registry.counter_value("plfs.read.calls"), 0u) << name;
    EXPECT_EQ(registry.counter_value("query.range.fallback"), 0u) << name;
    obs::set_enabled(false);
    obs::reset_all();
    ASSERT_TRUE(got.is_ok()) << name << ": " << got.error().to_string();
    EXPECT_EQ(got.value(), header_only) << name;
  }
  // The zero-frame ingest is a sealed tail with nothing in it.
  const auto tail = ada->query_tail("none.xtc", kProteinTag, 0).value();
  EXPECT_EQ(tail.frames, 0u);
  EXPECT_TRUE(tail.sealed);
  EXPECT_TRUE(tail.image.empty());
}

}  // namespace
}  // namespace ada::core
