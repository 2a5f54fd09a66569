// Streaming-tail suite: sealed-prefix publishing and tail queries.
//
// A live IngestStream publishes every chunk flush as an atomic extension of
// the readable prefix: the chunk's extents land in the index first, then the
// sealed-frame watermark advances over them.  The invariants this battery
// locks down:
//
//   - every read issued while the stream runs (whole-subset, frame-range,
//     or tail) returns bytes that are EXACTLY a slice of the final dataset
//     at the watermark the reader observed -- never a torn frame, never an
//     unsealed chunk;
//   - the watermark is monotone under concurrent readers;
//   - sealed-prefix frame blocks survive a chunk flush in the query cache
//     (the flush extends the prefix instead of invalidating history);
//   - windowed retention raises the floor, actually unlinks droppings, and
//     turns reads below the floor into kOutOfRange;
//   - an interrupted stream is repairable: fsck classifies only the open
//     tail above the watermark, quarantines it, and seals -- the sealed
//     prefix stays readable bit for bit.
//
// The concurrent test runs writer and readers over *separate* Ada instances
// sharing backends, the same topology as an ada-ingest process flushing
// while ada-query processes poll.  Run under TSan via -DADA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "ada/query_cache.hpp"
#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/crc32c.hpp"
#include "common/faults.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "plfs/container.hpp"
#include "plfs/fsck.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

// --- StreamState in the index image -------------------------------------------------

// A streamed container's index image: two chunk records and the stream state.
plfs::Index streamed_index(const plfs::StreamState& state) {
  plfs::Index index;
  for (std::uint32_t i = 0; i < 2; ++i) {
    plfs::IndexRecord r{i * 1000u, 1000, i, i == 0 ? "p" : "m",
                        "dropping.x." + std::to_string(i), 0};
    r.set_checksum(0x1234u + i);
    r.set_frame_span(plfs::FrameSpan{i * 3u, 3});
    index.records.push_back(r);
  }
  index.stream = state;
  return index;
}

TEST(StreamStateCodecTest, RoundTripsEveryField) {
  plfs::StreamState state;
  state.sealed = true;
  state.sealed_frames = 123456789;
  state.sealed_chunks = 77;
  state.floor_frames = 42;
  state.retention_drops = 9;
  const plfs::Index index = streamed_index(state);
  const auto back = plfs::decode_index(plfs::encode_index(index));
  ASSERT_TRUE(back.is_ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), index);

  const auto empty =
      plfs::decode_index(plfs::encode_index(plfs::Index{{}, plfs::StreamState{}}));
  ASSERT_TRUE(empty.is_ok());
  ASSERT_TRUE(empty.value().stream.has_value());
  EXPECT_EQ(*empty.value().stream, plfs::StreamState{});
}

TEST(StreamStateCodecTest, RejectsTruncationAndEveryBitFlip) {
  plfs::StreamState state;
  state.sealed_frames = 0xDEADBEEF;
  state.sealed_chunks = 3;
  const auto image = plfs::encode_index(streamed_index(state));

  // Any truncation (including empty) and any extension must fail cleanly.
  for (std::size_t len = 0; len < image.size(); ++len) {
    const auto r = plfs::decode_index(std::span(image.data(), len));
    ASSERT_FALSE(r.is_ok()) << "decoded a " << len << "-byte truncation";
    EXPECT_EQ(r.error().code(), ErrorCode::kCorruptData);
  }
  auto padded = image;
  padded.push_back(0);
  EXPECT_FALSE(plfs::decode_index(padded).is_ok());

  // The trailing CRC makes every single-bit flip detectable.
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = image;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto r = plfs::decode_index(flipped);
      ASSERT_FALSE(r.is_ok()) << "bit " << bit << " of byte " << byte << " went undetected";
      EXPECT_EQ(r.error().code(), ErrorCode::kCorruptData);
    }
  }
}

TEST(StreamStateCodecTest, RejectsInconsistentFields) {
  // floor above the watermark can never be produced by a correct writer;
  // an image claiming it is corrupt, not merely odd.
  plfs::StreamState bad;
  bad.floor_frames = 10;
  bad.sealed_frames = 5;
  const auto r = plfs::decode_index(plfs::encode_index(plfs::Index{{}, bad}));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCorruptData);
}

// --- pipeline fixture ----------------------------------------------------------------

class StreamingTailTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::global().disarm_all();
    root_ = testing::TempDir() + "/ada_stream_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    labels_ = categorize_protein_misc(system_);
    obs::reset_all();
    obs::set_enabled(false);
  }
  void TearDown() override {
    fault::Injector::global().disarm_all();
    obs::set_enabled(false);
    obs::reset_all();
    fs::remove_all(root_);
  }

  /// A middleware over `subdir`'s backend pair.  Opening the same subdir
  /// twice models two processes sharing the deployment (writer + reader).
  std::unique_ptr<Ada> open_ada(const std::string& subdir, std::uint64_t cache_bytes = 0,
                                std::uint64_t retain_bytes = 0) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.cache_bytes = cache_bytes;
    config.retain_bytes = retain_bytes;
    const std::string base = root_ + "/" + subdir;
    return std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(),
        config);
  }

  /// Pre-generated frames so two streams (e.g. retained vs reference) can
  /// ingest bit-identical trajectories.
  struct Frames {
    std::vector<std::uint32_t> steps;
    std::vector<float> times;
    std::vector<std::vector<float>> coords;
  };
  Frames make_frames(std::uint32_t n) {
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    Frames out;
    for (std::uint32_t f = 0; f < n; ++f) {
      const auto frame = gen.next_frame();
      out.coords.emplace_back(frame.begin(), frame.end());
      out.steps.push_back(gen.current_step());
      out.times.push_back(gen.current_time_ps());
    }
    return out;
  }

  Status push(IngestStream& stream, const Frames& frames, std::uint32_t i) {
    return stream.add_frame(frames.steps[i], frames.times[i], system_.box(), frames.coords[i]);
  }

  std::string root_;
  chem::System system_;
  LabelMap labels_;
};

constexpr std::uint64_t kPlentyOfCache = 64u << 20;

// --- sealed-prefix visibility --------------------------------------------------------

TEST_F(StreamingTailTest, MidStreamReadsAreExactPrefixesOfTheFinalDataset) {
  auto writer = open_ada("prefix");
  auto reader = open_ada("prefix");  // separate instance, same backends
  const auto frames = make_frames(10);
  auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/3);
  ASSERT_TRUE(stream.is_ok());

  // (watermark, bytes served at that watermark) per tag, captured mid-stream.
  std::map<Tag, std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>> observed;
  std::uint64_t last_watermark = 0;
  for (std::uint32_t f = 0; f < 10; ++f) {
    ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
    const std::uint64_t watermark = stream.value().sealed_frames();
    EXPECT_GE(watermark, last_watermark) << "watermark moved backwards";
    if (watermark == last_watermark) continue;
    last_watermark = watermark;

    // A cold reader right now sees exactly the sealed prefix.
    const auto progress = reader->stream_progress("live.xtc").value();
    ASSERT_TRUE(progress.has_value());
    EXPECT_EQ(progress->sealed_frames, watermark);
    EXPECT_FALSE(progress->sealed);
    for (const Tag& tag : {kProteinTag, kMiscTag}) {
      const auto bytes = reader->query("live.xtc", tag);
      ASSERT_TRUE(bytes.is_ok()) << bytes.error().to_string();
      const auto cat = formats::RawTrajCatReader::open(bytes.value());
      ASSERT_TRUE(cat.is_ok());
      EXPECT_EQ(cat.value().frame_count(), watermark);
      observed[tag].emplace_back(watermark, bytes.value());
    }
  }
  EXPECT_EQ(last_watermark, 9u);  // 3 chunks sealed; the 10th frame is open
  const auto report = stream.value().finish();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().frames, 10u);
  EXPECT_EQ(report.value().sealed_frames, 10u);

  for (const Tag& tag : {kProteinTag, kMiscTag}) {
    const auto final_bytes = reader->query("live.xtc", tag).value();
    EXPECT_EQ(formats::RawTrajCatReader::open(final_bytes).value().frame_count(), 10u);
    ASSERT_EQ(observed[tag].size(), 3u);
    for (const auto& [watermark, bytes] : observed[tag]) {
      ASSERT_LE(bytes.size(), final_bytes.size());
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), final_bytes.begin()))
          << "tag " << tag << " at watermark " << watermark
          << " served bytes that are not a prefix of the final dataset";
    }
  }
}

TEST_F(StreamingTailTest, MidStreamRangeQueriesMatchPostIngestRangeQueries) {
  auto writer = open_ada("range");
  auto reader = open_ada("range");
  const auto frames = make_frames(8);
  auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
  ASSERT_TRUE(stream.is_ok());

  // (range, bytes) captured while streaming; replayed against the sealed
  // container afterwards -- the range query must be time-invariant for any
  // range wholly below the watermark the reader saw.
  std::vector<std::pair<FrameRange, std::vector<std::uint8_t>>> observed;
  for (std::uint32_t f = 0; f < 8; ++f) {
    ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
    const auto watermark = static_cast<std::uint32_t>(stream.value().sealed_frames());
    if (watermark < 2) continue;
    const FrameRange range{watermark - 2, watermark, 1};
    const auto bytes = reader->query("live.xtc", kProteinTag, range);
    ASSERT_TRUE(bytes.is_ok()) << bytes.error().to_string();
    observed.emplace_back(range, bytes.value());
    // Beyond the watermark there is nothing to serve yet: the selection
    // clamps to the sealed prefix.
    const auto beyond =
        reader->query("live.xtc", kProteinTag, FrameRange{watermark, watermark + 4, 1});
    ASSERT_TRUE(beyond.is_ok());
    EXPECT_EQ(formats::RawTrajReader::open(beyond.value()).value().frame_count(), 0u);
  }
  ASSERT_TRUE(stream.value().finish().is_ok());
  ASSERT_FALSE(observed.empty());
  for (const auto& [range, bytes] : observed) {
    EXPECT_EQ(reader->query("live.xtc", kProteinTag, range).value(), bytes)
        << "range [" << range.begin << ", " << range.end
        << ") served different bytes mid-stream than after sealing";
  }
}

TEST_F(StreamingTailTest, TailDrainReassemblesTheFullSubset) {
  auto writer = open_ada("tail");
  auto reader = open_ada("tail");
  const auto frames = make_frames(9);
  auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/4);
  ASSERT_TRUE(stream.is_ok());

  // Drain exactly like ada-query --follow: poll, append each batch's frame
  // records to one image, advance the cursor, stop at sealed && empty.
  std::uint64_t cursor = 0;
  formats::RawTrajWriter followed(
      static_cast<std::uint32_t>(labels_.selection(kProteinTag).value().count()));
  auto drain = [&] {
    for (;;) {
      const auto chunk = reader->query_tail("live.xtc", kProteinTag, cursor);
      ASSERT_TRUE(chunk.is_ok()) << chunk.error().to_string();
      if (chunk.value().frames == 0) break;
      const auto raw = formats::RawTrajReader::open(chunk.value().image);
      ASSERT_TRUE(raw.is_ok());
      EXPECT_EQ(raw.value().frame_count(), chunk.value().frames);
      for (std::uint32_t f = 0; f < raw.value().frame_count(); ++f) {
        ASSERT_TRUE(followed.append_record(raw.value().record(f)).is_ok());
      }
      cursor += chunk.value().frames;
    }
  };
  for (std::uint32_t f = 0; f < 9; ++f) {
    ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
    drain();
    EXPECT_EQ(cursor, stream.value().sealed_frames());
  }
  // Before the seal the drain saw only whole chunks...
  EXPECT_EQ(cursor, 8u);
  const auto pre_seal = reader->query_tail("live.xtc", kProteinTag, cursor).value();
  EXPECT_FALSE(pre_seal.sealed);
  EXPECT_EQ(pre_seal.frames, 0u);
  ASSERT_TRUE(stream.value().finish().is_ok());
  // ...and after it, the final partial chunk plus the sealed marker.
  drain();
  EXPECT_EQ(cursor, 9u);
  const auto done = reader->query_tail("live.xtc", kProteinTag, cursor).value();
  EXPECT_TRUE(done.sealed);
  EXPECT_EQ(done.frames, 0u);
  EXPECT_TRUE(done.image.empty());

  // The reassembled image is the one-shot range query, header included.
  EXPECT_EQ(followed.finish(),
            reader->query("live.xtc", kProteinTag, FrameRange{0, 9, 1}).value());
}

TEST_F(StreamingTailTest, CaughtUpPollsReadNoExtent) {
  auto writer = open_ada("caught_up");
  auto reader = open_ada("caught_up");
  const auto frames = make_frames(4);
  auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
  ASSERT_TRUE(stream.is_ok());
  for (std::uint32_t f = 0; f < 3; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
  ASSERT_EQ(stream.value().sealed_frames(), 2u);

  // A cursor at or past the watermark is answered from the index image
  // alone: a tail poll, and no range query or extent read behind it.
  obs::reset_all();
  obs::set_enabled(true);
  const auto& registry = obs::Registry::global();
  for (const std::uint64_t cursor : {2u, 3u}) {
    const auto chunk = reader->query_tail("live.xtc", kProteinTag, cursor);
    ASSERT_TRUE(chunk.is_ok()) << chunk.error().to_string();
    EXPECT_EQ(chunk.value().frames, 0u);
    EXPECT_FALSE(chunk.value().sealed);
    EXPECT_TRUE(chunk.value().image.empty());
  }
  EXPECT_EQ(registry.counter_value("stream.tail_polls"), 2u);
  EXPECT_EQ(registry.counter_value("query.calls"), 0u);
  EXPECT_EQ(registry.counter_value("plfs.read.calls"), 0u);

  // A cursor behind it runs one range query over the same image.
  const auto behind = reader->query_tail("live.xtc", kProteinTag, 0);
  ASSERT_TRUE(behind.is_ok()) << behind.error().to_string();
  EXPECT_EQ(behind.value().frames, 2u);
  EXPECT_EQ(registry.counter_value("query.range.calls"), 1u);
  obs::set_enabled(false);
  obs::reset_all();
  ASSERT_TRUE(stream.value().finish().is_ok());
}

TEST_F(StreamingTailTest, TailQueryOnBatchContainerIsOneSealedChunk) {
  auto ada = open_ada("batch");
  const auto frames = make_frames(5);
  // A genuine batch ingest carries no stream state at all; query_tail must
  // still terminate a follower against it (everything already sealed).
  formats::XtcWriter xtc_writer;
  for (std::uint32_t f = 0; f < 5; ++f) {
    ASSERT_TRUE(xtc_writer
                    .add_frame(frames.steps[f], frames.times[f], system_.box(),
                               frames.coords[f])
                    .is_ok());
  }
  ASSERT_TRUE(ada->ingest(system_, xtc_writer.take(), "bar.xtc").is_ok());
  ASSERT_FALSE(ada->stream_progress("bar.xtc").value().has_value());

  const auto all = ada->query_tail("bar.xtc", kProteinTag, 0).value();
  EXPECT_TRUE(all.sealed);
  EXPECT_EQ(all.frames, 5u);
  EXPECT_EQ(all.image, ada->query("bar.xtc", kProteinTag, FrameRange{0, 5, 1}).value());

  // Mid-dataset and past-the-end cursors behave like a drained follower.
  const auto rest = ada->query_tail("bar.xtc", kProteinTag, 3).value();
  EXPECT_TRUE(rest.sealed);
  EXPECT_EQ(rest.frames, 2u);
  // from_frame is a u64 cursor: any value at or past the frame count --
  // including ones whose low 32 bits name a real frame -- is drained too,
  // never a wrapped-around read from an earlier frame.
  for (const std::uint64_t from :
       {std::uint64_t{5}, std::uint64_t{6}, (std::uint64_t{1} << 32) - 1,
        std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    const auto done = ada->query_tail("bar.xtc", kProteinTag, from);
    ASSERT_TRUE(done.is_ok()) << from << ": " << done.error().to_string();
    EXPECT_TRUE(done.value().sealed) << from;
    EXPECT_EQ(done.value().from_frame, from);
    EXPECT_EQ(done.value().frames, 0u) << from;
    EXPECT_TRUE(done.value().image.empty()) << from;
  }
}

// --- cache: the flush fence regression -----------------------------------------------

// Before this PR a chunk flush invalidated every cached entry of the
// dataset; now it only bumps the mutation clock.  Frame blocks wholly below
// the watermark key on the *rewrite* clock, which a flush leaves alone --
// so a follower re-reading sealed history across flushes stays cache-hot.
TEST_F(StreamingTailTest, SealedPrefixBlocksSurviveAChunkFlush) {
  auto ada = open_ada("cachefence", kPlentyOfCache);
  const auto frames = make_frames(64);
  // One chunk == one frame block (kFrameBlock = 32), so block 0 is full and
  // unclamped as soon as the first chunk seals.
  auto stream = ada->begin_stream(labels_, "live.xtc", /*chunk_frames=*/32);
  ASSERT_TRUE(stream.is_ok());
  for (std::uint32_t f = 0; f < 32; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());

  const FrameRange block0{0, 32, 1};
  const auto cold = ada->query("live.xtc", kProteinTag, block0).value();
  const auto warm = ada->query("live.xtc", kProteinTag, block0).value();
  EXPECT_EQ(cold, warm);
  ASSERT_NE(ada->query_cache(), nullptr);
  const QueryCache::Stats before = ada->query_cache()->stats();
  EXPECT_EQ(before.hits, 1u);    // the warm read
  EXPECT_EQ(before.misses, 1u);  // the cold fill

  // Flush another chunk: history below the old watermark must stay cached.
  for (std::uint32_t f = 32; f < 64; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
  ASSERT_EQ(stream.value().sealed_frames(), 64u);

  const auto after_flush = ada->query("live.xtc", kProteinTag, block0).value();
  EXPECT_EQ(after_flush, cold);
  const QueryCache::Stats after = ada->query_cache()->stats();
  EXPECT_EQ(after.hits, before.hits + 1)
      << "a chunk flush evicted sealed-prefix blocks (the PR-5 fence regression)";
  EXPECT_EQ(after.misses, before.misses);

  // The new block is a fresh fill, and the old one keeps hitting.
  ASSERT_TRUE(stream.value().finish().is_ok());
  const auto both = ada->query("live.xtc", kProteinTag, FrameRange{0, 64, 1}).value();
  EXPECT_EQ(formats::RawTrajReader::open(both).value().frame_count(), 64u);
  const QueryCache::Stats full = ada->query_cache()->stats();
  EXPECT_EQ(full.hits, after.hits + 1);    // block 0 again
  EXPECT_EQ(full.misses, after.misses + 1);  // block 1 fill

  // Correctness floor under all that caching: a cold instance agrees.
  auto cold_reader = open_ada("cachefence");
  EXPECT_EQ(cold_reader->query("live.xtc", kProteinTag, FrameRange{0, 64, 1}).value(), both);
}

// A history-rewriting repair must still fence those same blocks.
TEST_F(StreamingTailTest, RewriteGenerationStillFencesFrameBlocks) {
  auto ada = open_ada("rewrite", kPlentyOfCache);
  const auto frames = make_frames(32);
  auto stream = ada->begin_stream(labels_, "live.xtc", /*chunk_frames=*/32);
  ASSERT_TRUE(stream.is_ok());
  for (std::uint32_t f = 0; f < 32; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
  ASSERT_TRUE(stream.value().finish().is_ok());

  const FrameRange block0{0, 32, 1};
  const auto before = ada->query("live.xtc", kProteinTag, block0).value();
  ASSERT_EQ(ada->query("live.xtc", kProteinTag, block0).value(), before);  // cached

  // Corrupt the protein dropping; repair quarantines it and rewrites the
  // index -- a rewrite-generation bump.  The cached block must NOT survive.
  const auto records = ada->mount().read_index("live.xtc").value().records;
  const auto p_record = std::find_if(records.begin(), records.end(), [](const auto& r) {
    return r.label == kProteinTag;
  });
  ASSERT_NE(p_record, records.end());
  const std::string path =
      ada->mount().dropping_host_path(p_record->backend, "live.xtc", p_record->dropping);
  auto bytes = read_file(path).value();
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file(path, bytes).is_ok());
  ASSERT_TRUE(plfs::repair_container(ada->mount(), "live.xtc").is_ok());

  const auto after = ada->query("live.xtc", kProteinTag, block0);
  ASSERT_FALSE(after.is_ok()) << "a quarantined subset was served from a cached frame block";
}

// --- windowed retention --------------------------------------------------------------

TEST_F(StreamingTailTest, RetentionRaisesTheFloorAndUnlinksDroppings) {
  obs::reset_all();
  obs::set_enabled(true);
  // retain_bytes=1: after every flush only the newest sealed chunk stays.
  auto writer = open_ada("ret", 0, /*retain_bytes=*/1);
  auto reference = open_ada("ref");
  const auto frames = make_frames(12);

  auto retained = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
  auto full = reference->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
  ASSERT_TRUE(retained.is_ok());
  ASSERT_TRUE(full.is_ok());
  for (std::uint32_t f = 0; f < 12; ++f) {
    ASSERT_TRUE(push(retained.value(), frames, f).is_ok());
    ASSERT_TRUE(push(full.value(), frames, f).is_ok());
  }
  const auto report = retained.value().finish().value();
  ASSERT_TRUE(full.value().finish().is_ok());
  EXPECT_EQ(report.frames, 12u);
  EXPECT_EQ(report.sealed_frames, 12u);
  EXPECT_EQ(report.floor_frames, 10u);      // only chunk [10, 12) survives
  EXPECT_EQ(report.retention_drops, 5u);    // 5 of 6 chunks dropped
  EXPECT_GE(obs::Registry::global().counter_value("stream.retention_drops"), 5u);

  auto reader = open_ada("ret");
  const auto state = reader->stream_progress("live.xtc").value();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->floor_frames, 10u);
  EXPECT_EQ(state->retention_drops, 5u);

  // Below the floor: typed kOutOfRange, from both query paths.
  const auto below = reader->query("live.xtc", kProteinTag, FrameRange{0, 5, 1});
  ASSERT_FALSE(below.is_ok());
  EXPECT_EQ(below.error().code(), ErrorCode::kOutOfRange);
  const auto tail_below = reader->query_tail("live.xtc", kProteinTag, 0);
  ASSERT_FALSE(tail_below.is_ok());
  EXPECT_EQ(tail_below.error().code(), ErrorCode::kOutOfRange);

  // At and above the floor: byte-identical to the unretained reference.
  const auto window = reader->query("live.xtc", kProteinTag, FrameRange{10, 12, 1});
  ASSERT_TRUE(window.is_ok()) << window.error().to_string();
  auto ref_reader = open_ada("ref");
  EXPECT_EQ(window.value(), ref_reader->query("live.xtc", kProteinTag, FrameRange{10, 12, 1}).value());
  const auto tail_window = reader->query_tail("live.xtc", kProteinTag, 10).value();
  EXPECT_TRUE(tail_window.sealed);
  EXPECT_EQ(tail_window.frames, 2u);

  // The dropped chunks' droppings are really gone from both backends (the
  // label file and the surviving chunk remain).
  std::size_t on_disk = 0;
  for (std::uint32_t b = 0; b < reader->mount().backend_count(); ++b) {
    on_disk += reader->mount().list_dropping_files(b, "live.xtc").value().size();
  }
  std::size_t reference_on_disk = 0;
  for (std::uint32_t b = 0; b < ref_reader->mount().backend_count(); ++b) {
    reference_on_disk += ref_reader->mount().list_dropping_files(b, "live.xtc").value().size();
  }
  EXPECT_LT(on_disk, reference_on_disk) << "retention never unlinked a dropping";

  // No orphans, no broken records, no open tail -- retention is clean, and
  // the surviving extents tile from the first live one.
  const auto verify = plfs::verify_container(reader->mount(), "live.xtc").value();
  EXPECT_TRUE(verify.broken_records.empty());
  EXPECT_TRUE(verify.orphan_droppings.empty());
  EXPECT_TRUE(verify.open_tail_records.empty());
  EXPECT_TRUE(verify.extents_complete);
  EXPECT_TRUE(verify.clean());
  obs::set_enabled(false);
}

// --- interrupted streams + fsck ------------------------------------------------------

TEST_F(StreamingTailTest, FsckSealsAnInterruptedStreamQuarantiningOnlyTheOpenTail) {
  auto writer = open_ada("crash");
  auto reader = open_ada("crash");
  const auto frames = make_frames(6);
  {
    auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
    ASSERT_TRUE(stream.is_ok());
    for (std::uint32_t f = 0; f < 4; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
    ASSERT_EQ(stream.value().sealed_frames(), 4u);
    // The stream object is abandoned here, like the dead process's memory.
  }
  // A producer that publishes a chunk's extents ahead of its watermark
  // (IoDispatcher::dispatch_one per tag, then PlfsMount::write_stream_state)
  // and dies between the two leaves the next chunk indexed above it.
  IoDispatcher dispatcher(writer->mount(), writer->config().placement);
  const std::uint64_t first = 4;
  for (const auto& [tag, selection] : labels_.groups) {
    formats::RawTrajWriter chunk(static_cast<std::uint32_t>(selection.count()));
    for (std::uint32_t f = 4; f < 6; ++f) {
      ASSERT_TRUE(chunk
                      .add_frame(frames.steps[f], frames.times[f], system_.box(),
                                 frames.coords[f], selection)
                      .is_ok());
    }
    ASSERT_TRUE(dispatcher.dispatch_one("live.xtc", tag, chunk.finish(), &first, 2).is_ok());
  }

  // Readers still see only the sealed prefix -- the indexer clamps the
  // orphan extents above the watermark.
  const auto prefix = reader->query("live.xtc", kProteinTag).value();
  EXPECT_EQ(formats::RawTrajCatReader::open(prefix).value().frame_count(), 4u);

  const auto verify = plfs::verify_container(reader->mount(), "live.xtc").value();
  EXPECT_TRUE(verify.stream_open);
  EXPECT_EQ(verify.open_tail_records.size(), 2u);  // one per tag (p, m)
  EXPECT_TRUE(verify.broken_records.empty()) << "the open tail was misclassified as broken";
  EXPECT_TRUE(verify.orphan_droppings.empty()) << "tail droppings are referenced, not orphans";
  EXPECT_FALSE(verify.clean());

  const auto actions = plfs::repair_container(reader->mount(), "live.xtc").value();
  EXPECT_EQ(actions.tail_records_dropped, 2u);
  EXPECT_EQ(actions.extents_quarantined, 0u);

  const auto after = plfs::verify_container(reader->mount(), "live.xtc").value();
  EXPECT_TRUE(after.open_tail_records.empty());
  EXPECT_FALSE(after.stream_open) << "repair did not seal the stream";

  // Sealed at the watermark: the prefix reads back bit for bit, and a tail
  // follower terminates cleanly.
  auto post = open_ada("crash");
  EXPECT_EQ(post->query("live.xtc", kProteinTag).value(), prefix);
  const auto state = post->stream_progress("live.xtc").value();
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(state->sealed);
  EXPECT_EQ(state->sealed_frames, 4u);
  const auto done = post->query_tail("live.xtc", kProteinTag, 4).value();
  EXPECT_TRUE(done.sealed);
  EXPECT_EQ(done.frames, 0u);
}

TEST_F(StreamingTailTest, FailedFlushPublishLeavesOrphansNotAnOpenTail) {
  auto writer = open_ada("unpublished");
  const auto frames = make_frames(6);
  {
    auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
    ASSERT_TRUE(stream.is_ok());
    for (std::uint32_t f = 0; f < 4; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
    // Crash before the flush's one publication: its droppings are written,
    // the index never names them, and the watermark stays put.
    const fault::ScopedFault crash("plfs.write_index", fault::Schedule::fail_nth(1));
    ASSERT_TRUE(push(stream.value(), frames, 4).is_ok());
    EXPECT_FALSE(push(stream.value(), frames, 5).is_ok());
  }

  auto reader = open_ada("unpublished");
  const auto prefix = reader->query("live.xtc", kProteinTag).value();
  EXPECT_EQ(formats::RawTrajCatReader::open(prefix).value().frame_count(), 4u);
  const auto verify = plfs::verify_container(reader->mount(), "live.xtc").value();
  EXPECT_TRUE(verify.stream_open);
  EXPECT_TRUE(verify.open_tail_records.empty()) << "an unpublished chunk became an open tail";
  EXPECT_EQ(verify.orphan_droppings.size(), 2u);  // one per tag (p, m)

  const auto actions = plfs::repair_container(reader->mount(), "live.xtc").value();
  EXPECT_EQ(actions.orphans_removed, 2u);
  EXPECT_EQ(actions.tail_records_dropped, 0u);
  const auto after = plfs::verify_container(reader->mount(), "live.xtc").value();
  EXPECT_TRUE(after.clean());
  EXPECT_FALSE(after.stream_open);
  const auto state = reader->stream_progress("live.xtc").value();
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(state->sealed);
  EXPECT_EQ(state->sealed_frames, 4u);
  EXPECT_EQ(reader->query("live.xtc", kProteinTag).value(), prefix);
}

TEST_F(StreamingTailTest, IndexBitFlipIsCorruptData) {
  auto writer = open_ada("torn");
  const auto frames = make_frames(4);
  {
    auto stream = writer->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
    ASSERT_TRUE(stream.is_ok());
    for (std::uint32_t f = 0; f < 4; ++f) ASSERT_TRUE(push(stream.value(), frames, f).is_ok());
  }  // abandoned unsealed at watermark 4

  // Bit-flip the published image (index.plfs lives on backend 0): records
  // and stream state share its CRC, so neither is ever trusted half-torn.
  auto reader = open_ada("torn");
  const std::string index_path = reader->mount().dropping_host_path(0, "live.xtc", "index.plfs");
  auto image = read_file(index_path).value();
  image[image.size() / 2] ^= 0x10;
  ASSERT_TRUE(write_file(index_path, image).is_ok());

  const auto progress = reader->stream_progress("live.xtc");
  ASSERT_FALSE(progress.is_ok());
  EXPECT_EQ(progress.error().code(), ErrorCode::kCorruptData);
  const auto query = reader->query("live.xtc", kProteinTag);
  ASSERT_FALSE(query.is_ok());
  EXPECT_EQ(query.error().code(), ErrorCode::kCorruptData);
  const auto verify = plfs::verify_container(reader->mount(), "live.xtc");
  ASSERT_FALSE(verify.is_ok()) << "fsck diagnosed a container whose index is unreadable";
  EXPECT_EQ(verify.error().code(), ErrorCode::kCorruptData);
}

// Each logical write writes its droppings, then publishes exactly one index
// image (counted as hits of the "plfs.write_index" site).
TEST_F(StreamingTailTest, EveryLogicalWritePublishesTheIndexOnce) {
  const auto publications = [](const std::function<void()>& write) {
    const fault::ScopedFault count(
        "plfs.write_index", fault::Schedule::fail_nth(std::numeric_limits<std::uint64_t>::max()));
    write();
    return fault::Injector::global().hits("plfs.write_index");
  };
  const auto frames = make_frames(5);

  // Batch ingest: the create, then subsets + label file + kept original.
  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  config.keep_original = true;
  Ada batch(plfs::PlfsMount::open({{"ssd", root_ + "/once/ssd"}, {"hdd", root_ + "/once/hdd"}})
                .value(),
            config);
  formats::XtcWriter xtc;
  for (std::uint32_t f = 0; f < 5; ++f) {
    ASSERT_TRUE(
        xtc.add_frame(frames.steps[f], frames.times[f], system_.box(), frames.coords[f]).is_ok());
  }
  const auto xtc_image = xtc.take();
  EXPECT_EQ(publications([&] { ASSERT_TRUE(batch.ingest(system_, xtc_image, "bar.xtc").is_ok()); }),
            2u);
  EXPECT_EQ(batch.mount().read_index("bar.xtc").value().records.size(), 4u);  // p, m, labels, xtc

  // Streaming, with retention keeping only the newest chunk.
  auto ada = open_ada("once_stream", 0, /*retain_bytes=*/1);
  std::optional<IngestStream> stream;
  EXPECT_EQ(publications([&] {
              auto begun = ada->begin_stream(labels_, "live.xtc", /*chunk_frames=*/2);
              ASSERT_TRUE(begun.is_ok());
              stream.emplace(std::move(begun).value());
            }),
            1u);  // the create carries the initial stream state
  ASSERT_TRUE(stream.has_value());
  ASSERT_TRUE(push(*stream, frames, 0).is_ok());
  EXPECT_EQ(publications([&] { ASSERT_TRUE(push(*stream, frames, 1).is_ok()); }), 1u);  // flush
  ASSERT_TRUE(push(*stream, frames, 2).is_ok());
  // A flush, then a retention drop of the older chunk.
  EXPECT_EQ(publications([&] { ASSERT_TRUE(push(*stream, frames, 3).is_ok()); }), 2u);
  EXPECT_EQ(stream->floor_frames(), 2u);
  // finish (no partial chunk left to flush): the label file with the seal.
  EXPECT_EQ(publications([&] { ASSERT_TRUE(stream->finish().is_ok()); }), 1u);

  // Repair: quarantine a corrupt extent and drop its record in one image.
  const auto records = ada->mount().read_index("live.xtc").value().records;
  ASSERT_FALSE(records.empty());
  const std::string path =
      ada->mount().dropping_host_path(records.front().backend, "live.xtc",
                                      records.front().dropping);
  auto bytes = read_file(path).value();
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file(path, bytes).is_ok());
  EXPECT_EQ(publications([&] {
              const auto repaired = plfs::repair_container(ada->mount(), "live.xtc");
              ASSERT_TRUE(repaired.is_ok());
              EXPECT_EQ(repaired.value().extents_quarantined, 1u);
            }),
            1u);
}

// --- the concurrent reader/writer battery --------------------------------------------

// Writer and readers run on separate Ada instances over shared backends --
// the multi-process topology, in-process so TSan can watch it.  Invariants:
// every whole-subset read is a byte-prefix of the final dataset; every
// drained tail batch is a verbatim slice; the watermark never regresses.
TEST_F(StreamingTailTest, ConcurrentReadersObserveMonotoneConsistentPrefixes) {
  constexpr std::uint32_t kFrames = 40;
  constexpr std::uint32_t kChunk = 4;
  const auto frames = make_frames(kFrames);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer_thread([&] {
    auto writer = open_ada("conc");
    auto stream = writer->begin_stream(labels_, "live.xtc", kChunk);
    if (!stream.is_ok()) {
      failures.fetch_add(1);
      done.store(true);
      return;
    }
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      if (!push(stream.value(), frames, f).is_ok()) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    if (!stream.value().finish().is_ok()) failures.fetch_add(1);
    done.store(true);
  });

  // Prefix readers: record (length, crc) of every successful whole-subset
  // read; validated against the final bytes after the threads join.
  struct Observation {
    std::size_t size;
    std::uint32_t crc;
  };
  constexpr std::size_t kReaders = 3;
  std::vector<std::vector<Observation>> prefix_reads(kReaders);
  std::vector<std::uint64_t> watermark_high(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto reader = open_ada("conc");
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load();  // one full iteration after the writer seals
        const auto progress = reader->stream_progress("live.xtc");
        if (progress.is_ok() && progress.value().has_value()) {
          const std::uint64_t w = progress.value()->sealed_frames;
          if (w < watermark_high[r]) failures.fetch_add(1);  // regression!
          watermark_high[r] = std::max(watermark_high[r], w);
        }
        const auto bytes = reader->query("live.xtc", kProteinTag);
        if (bytes.is_ok()) {
          prefix_reads[r].push_back(
              {bytes.value().size(),
               crc32c(bytes.value().data(), bytes.value().size())});
        } else if (bytes.error().code() != ErrorCode::kNotFound) {
          failures.fetch_add(1);  // only "not created yet" is acceptable
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Tail follower: drains exactly like ada-query --follow.
  std::vector<std::uint8_t> followed;
  std::thread follower([&] {
    auto reader = open_ada("conc");
    std::uint64_t cursor = 0;
    for (;;) {
      const auto chunk = reader->query_tail("live.xtc", kProteinTag, cursor);
      if (!chunk.is_ok()) {
        if (chunk.error().code() != ErrorCode::kNotFound) failures.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      if (chunk.value().frames != 0) {
        followed.insert(followed.end(), chunk.value().image.begin() + 16,
                        chunk.value().image.end());
        cursor += chunk.value().frames;
        continue;
      }
      if (chunk.value().sealed) break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (cursor != kFrames) failures.fetch_add(1);
  });

  writer_thread.join();
  for (auto& t : readers) t.join();
  follower.join();
  ASSERT_EQ(failures.load(), 0);

  auto ground = open_ada("conc");
  const auto final_bytes = ground->query("live.xtc", kProteinTag).value();
  ASSERT_EQ(formats::RawTrajCatReader::open(final_bytes).value().frame_count(), kFrames);

  std::size_t validated = 0;
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(watermark_high[r], kFrames);
    for (const auto& obs : prefix_reads[r]) {
      ASSERT_LE(obs.size, final_bytes.size());
      EXPECT_EQ(obs.crc, crc32c(final_bytes.data(), obs.size))
          << "reader " << r << " observed a " << obs.size
          << "-byte image that is not a prefix of the final dataset";
      ++validated;
    }
  }
  EXPECT_GT(validated, 0u) << "no reader ever completed a mid-stream read";

  // The follower's reassembly equals the whole subset as one canonical range.
  const auto oneshot = ground->query("live.xtc", kProteinTag, FrameRange{0, kFrames, 1}).value();
  ASSERT_EQ(followed.size(), oneshot.size() - 16);
  EXPECT_TRUE(std::equal(followed.begin(), followed.end(), oneshot.begin() + 16));
}

}  // namespace
}  // namespace ada::core
