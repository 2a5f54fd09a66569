// Frame-range query tests: the differential property suite behind
// `ctest -L check-range`.
//
// The contract under test: Ada::query(name, tag, range) is byte-identical to
// slicing the same frames out of the full-subset query -- across codec
// versions (v1/v2 streams), stored shapes as written or stripped and then
// rebuilt by fsck --repair (a stripped record answers kFailedPrecondition
// until then), cache on/off (block cache vs direct reads), and batch vs
// streamed (single- vs multi-extent) ingest.  The reference slicer below is
// an independent decode-and-re-emit, not the production slice code.
//
// Also here: the ingest compat matrix (v1 containers read by a v2-capable
// build and vice versa), legacy v1/v2 index images upgraded by repair, the
// dispatcher's refusal of payloads that are not RAW images of their span,
// fsck over span-bearing indexes, and lying shapes (a typed kCorruptData,
// never a crash or wrong bytes, listed by fsck and rebuilt by repair).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ada/dispatcher.hpp"
#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "ada/vfs.hpp"
#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plfs/container.hpp"
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
// production range engine.
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

// Both flags of a record's stored shape.
constexpr std::uint8_t kShape = plfs::IndexRecord::kHasFrameSpan | plfs::IndexRecord::kHasAtomCount;

// `index` laid out as a legacy image: v1 ("PLFSIDX1": no checksum, flags or
// shape) or v2 ("PLFSIDX2": checksum and flags, and each shaped record's
// per-frame u64 offset table under flag 0x02, the layout plfs_test's
// v2_image writes).
std::vector<std::uint8_t> legacy_image(const plfs::Index& index, int version) {
  ByteWriter w;
  const std::uint8_t magic[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X',
                                 static_cast<std::uint8_t>('0' + version)};
  w.put_bytes(magic);
  w.put_u32_le(static_cast<std::uint32_t>(index.records.size()));
  for (const plfs::IndexRecord& r : index.records) {
    w.put_u64_le(r.logical_offset);
    w.put_u64_le(r.length);
    w.put_u32_le(r.backend);
    w.put_string_le(r.label);
    w.put_string_le(r.dropping);
    w.put_u64_le(r.physical_offset);
    if (version == 1) continue;
    w.put_u32_le(r.crc32c);
    w.put_u8(static_cast<std::uint8_t>(plfs::IndexRecord::kHasChecksum |
                                       (r.has_atom_count() ? 0x02 : 0)));
    if (!r.has_atom_count()) continue;
    w.put_u32_le(r.frame_count);
    for (std::uint32_t f = 0; f < r.frame_count; ++f) {
      w.put_u64_le(formats::raw_file_bytes(r.atom_count, f));
    }
  }
  return w.take();
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

  // A range query of `name` refuses its shape-less records, naming the
  // repair that rebuilds them.
  static void expect_needs_repair(const Result<std::vector<std::uint8_t>>& got) {
    ASSERT_FALSE(got.is_ok()) << "a shape-less record was served";
    EXPECT_EQ(got.error().code(), ErrorCode::kFailedPrecondition) << got.error().to_string();
    EXPECT_NE(got.error().message().find("ada-inspect --repair"), std::string::npos)
        << got.error().message();
  }

  // fsck lists `name`'s `shapeless` shape-less RAW records (and nothing
  // else), repair rebuilds exactly those, and a second repair is a no-op.
  void repair_shapes(Ada& ada, const std::string& name, std::size_t shapeless) {
    const auto report = plfs::verify_container(ada.mount(), name).value();
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.shapeless_records.size(), shapeless);
    EXPECT_TRUE(report.wrong_shapes.empty());
    const auto actions = plfs::repair_container(ada.mount(), name);
    ASSERT_TRUE(actions.is_ok()) << actions.error().to_string();
    EXPECT_EQ(actions.value().shapes_rebuilt, shapeless);
    EXPECT_EQ(actions.value().records_dropped, 0u);
    EXPECT_TRUE(plfs::verify_container(ada.mount(), name).value().clean());
    const auto again = plfs::repair_container(ada.mount(), name).value();
    EXPECT_EQ(again.shapes_rebuilt, 0u);
    EXPECT_EQ(again.records_dropped + again.tail_records_dropped + again.orphans_removed, 0u);
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

// Parameters: codec version, whether the records keep their stored shapes
// ("_tables"; "_notables" clears them after ingest, so ranges are refused
// until fsck --repair rebuilds them from the extents), and the cache budget.
class FrameRangeMatrixTest
    : public FrameRangeTest,
      public testing::WithParamInterface<std::tuple<codec::CodecVersion, bool, std::uint64_t>> {};

TEST_P(FrameRangeMatrixTest, BatchIngestMatchesReferenceSlice) {
  const auto [version, tables, cache_bytes] = GetParam();
  auto ada = open_ada("batch", cache_bytes);
  constexpr std::uint32_t kFrames = 24;
  ASSERT_TRUE(ada->ingest(system_, make_xtc(kFrames, version), "bar.xtc").is_ok());
  if (!tables) {
    clear_record_flags(*ada, "bar.xtc", kShape);
    expect_needs_repair(ada->query("bar.xtc", kProteinTag, FrameRange{}));
    repair_shapes(*ada, "bar.xtc", 2);  // p and m
  }
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
  if (!tables) {
    clear_record_flags(*ada, "seq.xtc", kShape);
    expect_needs_repair(ada->query("seq.xtc", kProteinTag, FrameRange{}));
    repair_shapes(*ada, "seq.xtc", 10);  // five chunks of p and of m
  }
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

// --- planned reads and the upgrade path -------------------------------------------

TEST_F(FrameRangeTest, FastPathEngagesOnTableBearingContainers) {
  // A range is planned from the stored shapes: it reads only the extents of
  // the frame blocks it touches.  Frames 35 and 36 lie in block [32, 40),
  // which is the last two 4-frame chunks, not the whole 40-frame subset.
  auto ada = open_ada("fast", 0);
  stream_ingest(*ada, "seq.xtc", 40, 4);
  const auto atoms = static_cast<std::uint32_t>(
      categorize_protein_misc(system_).selection(kProteinTag).value().count());
  obs::reset_all();
  obs::set_enabled(true);
  const auto got = ada->query("seq.xtc", kProteinTag, FrameRange{35, 37, 1});
  const auto& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter_value("plfs.read.calls"), 1u);
  EXPECT_EQ(registry.counter_value("plfs.read.bytes"), 2 * formats::raw_file_bytes(atoms, 4));
  obs::set_enabled(false);
  obs::reset_all();
  ASSERT_TRUE(got.is_ok()) << got.error().to_string();
  EXPECT_EQ(got.value(), reference_slice(ada->query("seq.xtc", kProteinTag).value(),
                                         FrameRange{35, 37, 1}));
}

TEST_F(FrameRangeTest, LegacyContainersNeedRepair) {
  // A record that stores no shape is refused before any extent is read:
  // kFailedPrecondition naming the repair, counted as one query that
  // served no bytes -- with the cache off and armed alike.  The
  // whole-subset query does not plan frames and still answers.
  for (const std::uint64_t cache_bytes : {std::uint64_t{0}, kPlentyOfCache}) {
    const std::string label = "cache_bytes=" + std::to_string(cache_bytes);
    auto ada = open_ada("legacy" + std::to_string(cache_bytes), cache_bytes);
    ASSERT_TRUE(ada->ingest(system_, make_xtc(12), "bar.xtc").is_ok());
    const auto full = ada->query("bar.xtc", kProteinTag).value();
    clear_record_flags(*ada, "bar.xtc", kShape);
    obs::reset_all();
    obs::set_enabled(true);
    const auto sliced = ada->query("bar.xtc", kProteinTag, FrameRange{2, 9, 2});
    const auto& registry = obs::Registry::global();
    EXPECT_EQ(registry.counter_value("query.calls"), 1u) << label;
    EXPECT_EQ(registry.counter_value("query.bytes_out"), 0u) << label;
    EXPECT_EQ(registry.counter_value("plfs.read.calls"), 0u) << label;
    obs::set_enabled(false);
    obs::reset_all();
    expect_needs_repair(sliced);
    const auto tail = ada->query_tail("bar.xtc", kProteinTag, 0);
    ASSERT_FALSE(tail.is_ok()) << label;
    EXPECT_EQ(tail.error().code(), ErrorCode::kFailedPrecondition) << label;
    EXPECT_EQ(ada->query("bar.xtc", kProteinTag).value(), full) << label;
  }
}

TEST_F(FrameRangeTest, ShapelessRecordsAnswerByteIdenticallyAfterRepair) {
  // Records that store no shape -- spans without an atom count (what older
  // v3 writers stored) or no span at all -- refuse every range and tail
  // query until fsck --repair rebuilds the shapes from the extents' RAW
  // headers; then they answer exactly the bytes the written shapes did, on
  // batch and streamed containers alike.
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
      const auto pristine = ada->mount().read_index("bar.xtc").value();
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
      for (const FrameRange& range : probe_ranges(kFrames)) {
        expect_needs_repair(ada->query("bar.xtc", kProteinTag, range));
      }
      for (const std::uint64_t from : cursors) {
        const auto got = ada->query_tail("bar.xtc", kProteinTag, from);
        // A stream's index alone answers a cursor at its watermark.
        if (streamed && from >= kFrames) {
          ASSERT_TRUE(got.is_ok()) << got.error().to_string();
          EXPECT_EQ(got.value().frames, 0u);
          continue;
        }
        ASSERT_FALSE(got.is_ok()) << from;
        EXPECT_EQ(got.error().code(), ErrorCode::kFailedPrecondition) << from;
      }

      repair_shapes(*ada, "bar.xtc", streamed ? 8 : 2);  // 4 chunks or 1 extent, of p and m
      EXPECT_EQ(ada->mount().read_index("bar.xtc").value(), pristine);
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
    }
  }
}

TEST_F(FrameRangeTest, LegacyIndexImagesUpgradeThroughRepair) {
  // A fresh ingest's index rewritten on disk as a v1 image and as a v2 image
  // with per-frame tables: neither stores atom counts, so fsck lists their
  // RAW records, ranges and tails are refused, and the whole-subset query
  // still answers.  Repair publishes one v3 image with every shape, and the
  // container then answers every range exactly as the original did.
  constexpr std::uint32_t kFrames = 13;
  for (const int version : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "v" << version);
    const std::string subdir = "legacy_v" + std::to_string(version);
    auto ada = open_ada(subdir, 0);
    ASSERT_TRUE(ada->ingest(system_, make_xtc(kFrames), "bar.xtc").is_ok());
    const auto pristine = ada->mount().read_index("bar.xtc").value();
    const auto tags = ada->tags("bar.xtc").value();
    std::vector<std::vector<std::uint8_t>> full;
    std::vector<std::vector<std::uint8_t>> want;
    for (const Tag& tag : tags) {
      full.push_back(ada->query("bar.xtc", tag).value());
      for (const FrameRange& range : probe_ranges(kFrames)) {
        want.push_back(ada->query("bar.xtc", tag, range).value());
      }
    }

    const std::string index_path = root_ + "/" + subdir + "/ssd/bar.xtc/index.plfs";
    ASSERT_TRUE(write_file(index_path, legacy_image(pristine, version)).is_ok());
    const auto legacy = ada->mount().read_index("bar.xtc").value();
    ASSERT_EQ(legacy.records.size(), pristine.records.size());
    for (const auto& record : legacy.records) EXPECT_FALSE(record.has_atom_count());

    expect_needs_repair(ada->query("bar.xtc", kProteinTag, FrameRange{1, 9, 2}));
    const auto tail = ada->query_tail("bar.xtc", kProteinTag, 0);
    ASSERT_FALSE(tail.is_ok());
    EXPECT_EQ(tail.error().code(), ErrorCode::kFailedPrecondition);
    for (std::size_t t = 0; t < tags.size(); ++t) {
      EXPECT_EQ(ada->query("bar.xtc", tags[t]).value(), full[t]) << tags[t];
    }

    repair_shapes(*ada, "bar.xtc", tags.size());
    const auto image = read_file(index_path).value();
    EXPECT_FALSE(plfs::is_legacy_index(image));
    const auto repaired = plfs::decode_index(image).value();
    for (std::size_t i = 0; i < pristine.records.size(); ++i) {
      const auto& record = repaired.records[i];
      EXPECT_EQ(record.has_atom_count(), pristine.records[i].has_atom_count()) << i;
      EXPECT_EQ(record.frame_base, pristine.records[i].frame_base) << i;
      EXPECT_EQ(record.frame_count, pristine.records[i].frame_count) << i;
      EXPECT_EQ(record.atom_count, pristine.records[i].atom_count) << i;
    }
    // v2 kept the checksums, so its upgrade is the original index exactly.
    if (version == 2) {
      EXPECT_EQ(repaired, pristine);
    }
    std::size_t k = 0;
    for (const Tag& tag : tags) {
      for (const FrameRange& range : probe_ranges(kFrames)) {
        const auto got = ada->query("bar.xtc", tag, range);
        ASSERT_TRUE(got.is_ok()) << got.error().to_string();
        EXPECT_EQ(got.value(), want[k++]) << "tag " << tag << " range [" << range.begin << ","
                                          << range.end << ") stride " << range.stride;
      }
    }
    EXPECT_EQ(read_file(index_path).value(), image) << "the second repair republished";
  }
}

TEST_F(FrameRangeTest, DispatcherRefusesBlobsThatAreNotRawImagesOfTheirSpan) {
  // The reader refuses a record with no atom count, so the writer never
  // publishes one for a user tag: a payload that is not one RAW image of
  // its span fails kInvalidArgument before any dropping is opened.
  auto ada = open_ada("refuse", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(4), "bar.xtc").is_ok());
  IoDispatcher dispatcher(ada->mount(), ada->config().placement);
  const auto before = ada->mount().read_index("bar.xtc").value();
  const auto files = [&] {
    std::vector<std::string> all;
    for (std::uint32_t b = 0; b < ada->mount().backend_count(); ++b) {
      const auto listed = ada->mount().list_dropping_files(b, "bar.xtc").value();
      all.insert(all.end(), listed.begin(), listed.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  };
  const auto files_before = files();

  const std::string text = "not a RAW image";
  const auto not_raw = dispatcher.dispatch_one(
      "bar.xtc", kProteinTag,
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  ASSERT_FALSE(not_raw.is_ok());
  EXPECT_EQ(not_raw.error().code(), ErrorCode::kInvalidArgument) << not_raw.error().to_string();

  const auto atoms = static_cast<std::uint32_t>(
      categorize_protein_misc(system_).selection(kProteinTag).value().count());
  formats::RawTrajWriter chunk(atoms);
  const std::vector<float> coords(std::size_t{3} * atoms, 0.5f);
  for (int f = 0; f < 2; ++f) ASSERT_TRUE(chunk.add_frame(0, 0.0f, system_.box(), coords).is_ok());
  const auto two_frames = chunk.finish();
  const std::uint64_t first = 4;
  const auto miscounted = dispatcher.dispatch_one("bar.xtc", kProteinTag, two_frames, &first, 3);
  ASSERT_FALSE(miscounted.is_ok());
  EXPECT_EQ(miscounted.error().code(), ErrorCode::kInvalidArgument)
      << miscounted.error().to_string();

  EXPECT_EQ(ada->mount().read_index("bar.xtc").value(), before);
  EXPECT_EQ(files(), files_before) << "a refused blob opened a dropping";
  // The same chunk under its own frame count publishes, with its shape.
  const auto record = dispatcher.dispatch_one("bar.xtc", kProteinTag, two_frames, &first, 2);
  ASSERT_TRUE(record.is_ok()) << record.error().to_string();
  EXPECT_TRUE(record.value().has_atom_count());
  EXPECT_EQ(record.value().atom_count, atoms);
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
  // kCorruptData, never a slice of the wrong bytes.  fsck lists every such
  // shape, and repair rebuilds it from the header: the range then answers
  // the pristine bytes again.  A length that overruns the dropping is a
  // broken record instead.
  auto ada = open_ada("lying", 0);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(8), "bar.xtc").is_ok());
  const auto pristine = ada->mount().read_index("bar.xtc").value();
  const FrameRange range{1, 7, 2};
  const auto want = ada->query("bar.xtc", kProteinTag, range).value();
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
    // The planning check catches a shape that contradicts itself or its
    // neighbours before any read; only the bent pair needs its extent read.
    EXPECT_EQ(registry.counter_value("plfs.read.calls"), lie == 4 ? 1u : 0u) << lie;
    obs::set_enabled(false);
    obs::reset_all();
    ASSERT_FALSE(got.is_ok()) << lie << ": a lying shape was served";
    EXPECT_EQ(got.error().code(), ErrorCode::kCorruptData) << lie << ": " << got.error().to_string();
    EXPECT_NE(got.error().message().find("dropping.p."), std::string::npos)
        << lie << ": the error names the record: " << got.error().message();

    const auto report = plfs::verify_container(ada->mount(), "bar.xtc").value();
    EXPECT_FALSE(report.clean()) << lie;
    EXPECT_TRUE(report.shapeless_records.empty()) << lie;
    if (lie == 2) {
      ASSERT_EQ(report.broken_records.size(), 1u);
      EXPECT_EQ(report.broken_records[0].label, kProteinTag);
      EXPECT_TRUE(report.wrong_shapes.empty());
      continue;
    }
    ASSERT_EQ(report.wrong_shapes.size(), 1u) << lie;
    EXPECT_EQ(report.wrong_shapes[0].record.label, kProteinTag) << lie;
    EXPECT_TRUE(report.broken_records.empty()) << lie;
    const auto actions = plfs::repair_container(ada->mount(), "bar.xtc");
    ASSERT_TRUE(actions.is_ok()) << lie << ": " << actions.error().to_string();
    EXPECT_EQ(actions.value().shapes_rebuilt, 1u) << lie;
    EXPECT_EQ(actions.value().records_dropped, 0u) << lie;
    EXPECT_EQ(ada->mount().read_index("bar.xtc").value(), pristine) << lie;
    EXPECT_TRUE(plfs::verify_container(ada->mount(), "bar.xtc").value().clean()) << lie;
    const auto repaired = ada->query("bar.xtc", kProteinTag, range);
    ASSERT_TRUE(repaired.is_ok()) << lie << ": " << repaired.error().to_string();
    EXPECT_EQ(repaired.value(), want) << lie;
  }
}

TEST_F(FrameRangeTest, EmptySelectionReadsNoExtent) {
  // An empty selection answers a header-only image whose atom count is the
  // one the index records store: no extent is read -- on a batch
  // container, a streamed one, and a zero-frame batch ingest.
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
