// Query-side subset cache: unit tests (LRU mechanics, refcounted eviction,
// generation staleness, concurrent readers), the Ada integration (warm
// queries short-circuit the retriever; every write-path mutation --
// re-ingest/overwrite, stream chunk flush, fsck repair -- invalidates), the
// cache-on vs cache-off byte-identical differential, and regression tests
// for the read-path bugfix sweep that rode along (duplicate re-ingest,
// basename extension parsing, pre-sized untagged reads).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "ada/query_cache.hpp"
#include "ada/vfs.hpp"
#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "formats/pdb.hpp"
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

std::vector<std::uint8_t> image_of(std::size_t size, std::uint8_t fill) {
  return std::vector<std::uint8_t>(size, fill);
}

// A plain lookup: lookup_or_fill whose miss claim resolves on return.
QueryCache::Image lookup(QueryCache& cache, const std::string& name, const Tag& tag,
                         std::uint64_t generation) {
  QueryCache::FillGuard guard;
  return cache.lookup_or_fill(name, tag, generation, &guard);
}

// --- QueryCache unit tests -----------------------------------------------------------

TEST(QueryCacheTest, HitMissAndLruEvictionUnderBudget) {
  QueryCache cache(/*budget_bytes=*/100, /*shard_count=*/1);
  cache.insert("a", "p", 1, image_of(40, 0xAA));
  cache.insert("b", "p", 1, image_of(40, 0xBB));
  ASSERT_NE(lookup(cache, "a", "p", 1), nullptr);  // "a" is now most recent

  cache.insert("c", "p", 1, image_of(40, 0xCC));  // evicts LRU "b"
  EXPECT_EQ(lookup(cache, "b", "p", 1), nullptr);
  const auto a = lookup(cache, "a", "p", 1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, image_of(40, 0xAA));
  ASSERT_NE(lookup(cache, "c", "p", 1), nullptr);

  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_EQ(stats.misses, 1u);  // the "b" lookup
  EXPECT_EQ(stats.hits, 3u);
}

TEST(QueryCacheTest, DistinctTagsOfOneDatasetAreDistinctEntries) {
  QueryCache cache(1000, 1);
  cache.insert("a", "p", 1, image_of(10, 0x01));
  cache.insert("a", "m", 1, image_of(20, 0x02));
  EXPECT_EQ(*lookup(cache, "a", "p", 1), image_of(10, 0x01));
  EXPECT_EQ(*lookup(cache, "a", "m", 1), image_of(20, 0x02));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QueryCacheTest, OversizedImagesAreNotCached) {
  QueryCache cache(/*budget_bytes=*/64, /*shard_count=*/1);
  cache.insert("a", "p", 1, image_of(65, 0xAA));
  EXPECT_EQ(lookup(cache, "a", "p", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // nothing was sacrificed for it
}

TEST(QueryCacheTest, StaleGenerationMissesAndDropsTheEntry) {
  QueryCache cache(1000, 1);
  cache.insert("a", "p", /*generation=*/1, image_of(10, 0xAA));
  ASSERT_NE(lookup(cache, "a", "p", 1), nullptr);
  // The container mutated (generation advanced): the entry is stale.
  EXPECT_EQ(lookup(cache, "a", "p", 2), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GE(cache.stats().invalidations, 1u);
  // A refill under the new generation serves again.
  cache.insert("a", "p", 2, image_of(10, 0xBB));
  EXPECT_EQ(*lookup(cache, "a", "p", 2), image_of(10, 0xBB));
}

TEST(QueryCacheTest, InvalidateDropsEveryTagOfTheDataset) {
  QueryCache cache(1000, 1);
  cache.insert("a", "p", 1, image_of(10, 0x01));
  cache.insert("a", "m", 1, image_of(10, 0x02));
  cache.insert("b", "p", 1, image_of(10, 0x03));
  cache.invalidate("a");
  EXPECT_EQ(lookup(cache, "a", "p", 1), nullptr);
  EXPECT_EQ(lookup(cache, "a", "m", 1), nullptr);
  EXPECT_NE(lookup(cache, "b", "p", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryCacheTest, EvictionNeverInvalidatesAnInFlightReader) {
  QueryCache cache(/*budget_bytes=*/64, /*shard_count=*/1);
  cache.insert("a", "p", 1, image_of(60, 0xAA));
  const QueryCache::Image held = lookup(cache, "a", "p", 1);
  ASSERT_NE(held, nullptr);
  // Force "a" out of the cache entirely.
  cache.insert("b", "p", 1, image_of(60, 0xBB));
  EXPECT_EQ(lookup(cache, "a", "p", 1), nullptr);
  // The reader's reference is still alive and intact.
  EXPECT_EQ(*held, image_of(60, 0xAA));
}

TEST(QueryCacheTest, ZeroBudgetCachesNothing) {
  QueryCache cache(0, 4);
  cache.insert("a", "p", 1, image_of(1, 0xAA));
  EXPECT_EQ(lookup(cache, "a", "p", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// Run under TSan via -DADA_SANITIZE=thread: concurrent readers, writers and
// invalidators on a deliberately tiny budget so eviction churns constantly.
// Every served image must be internally consistent for its key.
TEST(QueryCacheTest, ConcurrentReadersVsEvictionAndInvalidation) {
  QueryCache cache(/*budget_bytes=*/1024, /*shard_count=*/2);
  constexpr int kKeys = 8;
  constexpr int kIters = 4000;
  auto value_for = [](int key) {
    return std::vector<std::uint8_t>(256, static_cast<std::uint8_t>(key + 1));
  };

  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int key = (i + t) % kKeys;
        const std::string name = "ds" + std::to_string(key);
        if (const QueryCache::Image hit = lookup(cache, name, "p", 7)) {
          if (*hit != value_for(key)) bad.fetch_add(1);
        } else {
          cache.insert(name, "p", 7, value_for(key));
        }
        if (i % 97 == 0) cache.invalidate(name);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0) << "a reader observed bytes from the wrong entry";
  const QueryCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.bytes, 1024u);
}

// --- Ada integration -----------------------------------------------------------------

class QueryCachePipelineTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = test::unique_temp_dir("ada_qcache");
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
    obs::reset_all();
    obs::set_enabled(false);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_all();
    fs::remove_all(root_);
  }

  std::vector<std::uint8_t> make_xtc(std::uint32_t frames, std::uint64_t seed = 7) {
    workload::DynamicsSpec dynamics;
    dynamics.seed = seed;
    workload::TrajectoryGenerator gen(system_, dynamics);
    formats::XtcWriter writer;
    for (std::uint32_t f = 0; f < frames; ++f) {
      ADA_CHECK(writer
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
    }
    return writer.take();
  }

  /// A middleware over `subdir`, optionally cached / overwrite-enabled.
  std::unique_ptr<Ada> open_ada(const std::string& subdir, std::uint64_t cache_bytes = 0,
                                bool overwrite = false) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.cache_bytes = cache_bytes;
    config.overwrite = overwrite;
    const std::string base = root_ + "/" + subdir;
    return std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(),
        config);
  }

  /// Count of index records carrying the reserved label file tag.
  std::size_t label_file_records(Ada& ada, const std::string& name) {
    const auto records = ada.mount().read_index(name).value().records;
    std::size_t n = 0;
    for (const auto& record : records) {
      if (record.label == kLabelFileTag) ++n;
    }
    return n;
  }

  std::string root_;
  chem::System system_;
};

constexpr std::uint64_t kPlentyOfCache = 64u << 20;

TEST_F(QueryCachePipelineTest, WarmQueryShortCircuitsTheRetriever) {
  obs::reset_all();
  obs::set_enabled(true);
  auto ada = open_ada("warm", kPlentyOfCache);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(3), "bar.xtc").is_ok());

  const auto cold = ada->query("bar.xtc", kProteinTag).value();
  const auto warm = ada->query("bar.xtc", kProteinTag).value();
  EXPECT_EQ(cold, warm) << "warm hit served different bytes";

  // The second query never reached the retriever.
  std::uint64_t retrieve_calls = 0;
  for (const auto& span : obs::span_stats()) {
    if (span.path == "query/retrieve") retrieve_calls = span.calls;
  }
  EXPECT_EQ(retrieve_calls, 1u);

  ASSERT_NE(ada->query_cache(), nullptr);
  const QueryCache::Stats stats = ada->query_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(obs::Registry::global().counter_value("cache.hits"), 1u);
  EXPECT_EQ(obs::Registry::global().counter_value("cache.misses"), 1u);
  EXPECT_GT(obs::Registry::global().gauge_value("cache.bytes"), 0.0);
  obs::set_enabled(false);
}

TEST_F(QueryCachePipelineTest, CacheOnAndOffAreByteIdentical) {
  const auto xtc = make_xtc(4);
  auto uncached = open_ada("off", 0);
  auto cached = open_ada("on", kPlentyOfCache);
  ASSERT_TRUE(uncached->ingest(system_, xtc, "bar.xtc").is_ok());
  ASSERT_TRUE(cached->ingest(system_, xtc, "bar.xtc").is_ok());
  EXPECT_EQ(uncached->query_cache(), nullptr);  // 0 budget = off entirely

  const auto tags = uncached->tags("bar.xtc").value();
  ASSERT_FALSE(tags.empty());
  for (int round = 0; round < 3; ++round) {  // round > 0 hits the cache
    for (const Tag& tag : tags) {
      EXPECT_EQ(uncached->query("bar.xtc", tag).value(), cached->query("bar.xtc", tag).value())
          << "tag " << tag << " round " << round;
    }
  }
  // The degraded (all-tags) read path is cached too and stays identical.
  const auto partial_off = uncached->query_degraded("bar.xtc").value();
  const auto partial_on = cached->query_degraded("bar.xtc").value();
  EXPECT_FALSE(partial_on.partial());
  EXPECT_EQ(partial_off.concat(), partial_on.concat());
}

TEST_F(QueryCachePipelineTest, ReIngestWithoutOverwriteFailsAlreadyExists) {
  auto ada = open_ada("dup", kPlentyOfCache);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(3), "bar.xtc").is_ok());
  const auto before = ada->query("bar.xtc", kProteinTag).value();
  ASSERT_EQ(label_file_records(*ada, "bar.xtc"), 1u);

  // Regression: this used to append duplicate subsets and a second label
  // file onto the live container.
  const auto again = ada->ingest(system_, make_xtc(5), "bar.xtc");
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kAlreadyExists);

  // The container is untouched: same single label file, same bytes.
  EXPECT_EQ(label_file_records(*ada, "bar.xtc"), 1u);
  EXPECT_EQ(ada->query("bar.xtc", kProteinTag).value(), before);
}

TEST_F(QueryCachePipelineTest, OverwriteReplacesAtomicallyAndInvalidates) {
  auto ada = open_ada("ow", kPlentyOfCache, /*overwrite=*/true);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(3), "bar.xtc").is_ok());
  const auto old_protein = ada->query("bar.xtc", kProteinTag).value();
  ASSERT_EQ(ada->query("bar.xtc", kProteinTag).value(), old_protein);  // now cached

  const auto xtc_new = make_xtc(5);
  const auto report = ada->ingest(system_, xtc_new, "bar.xtc");
  ASSERT_TRUE(report.is_ok()) << report.error().to_string();
  EXPECT_EQ(report.value().logical_name, "bar.xtc");

  // Ground truth: the same image ingested into a fresh deployment.
  auto reference = open_ada("ow_ref");
  ASSERT_TRUE(reference->ingest(system_, xtc_new, "bar.xtc").is_ok());
  const auto expected = reference->query("bar.xtc", kProteinTag).value();
  const auto served = ada->query("bar.xtc", kProteinTag).value();
  EXPECT_NE(served, old_protein) << "overwrite served stale cached bytes";
  EXPECT_EQ(served, expected);

  // Exactly one label file, no duplicate subsets, no staging leftovers.
  EXPECT_EQ(label_file_records(*ada, "bar.xtc"), 1u);
  EXPECT_FALSE(ada->mount().container_exists("bar.xtc.overwrite.tmp"));
  const auto containers = ada->mount().list_containers().value();
  EXPECT_EQ(containers, (std::vector<std::string>{"bar.xtc"}));
}

TEST_F(QueryCachePipelineTest, RemoveAndReIngestServesTheNewBytes) {
  // The mutation clock drops a removed name's entry; the re-created name's
  // generations must still never repeat one its cached entries were filed
  // under, or the whole-subset, range and tail answers would be stale.  A
  // second middleware over a copy of the mount (one shared clock) writes,
  // so only the clock fences the reader's cache.
  auto ada = open_ada("recreate", kPlentyOfCache);
  const FrameRange range{1, 3, 1};
  const auto answers = [&](Ada& from) {
    std::vector<std::vector<std::uint8_t>> out;
    out.push_back(from.query("bar.xtc", kProteinTag).value());
    out.push_back(from.query("bar.xtc", kProteinTag, range).value());
    out.push_back(from.query_tail("bar.xtc", kProteinTag, 0).value().image);
    return out;
  };
  ASSERT_TRUE(ada->ingest(system_, make_xtc(3), "bar.xtc").is_ok());
  const auto old_answers = answers(*ada);
  ASSERT_EQ(answers(*ada), old_answers);  // now cached

  ASSERT_TRUE(ada->mount().remove_container("bar.xtc").is_ok());
  const auto xtc_new = make_xtc(3, /*seed=*/8);
  AdaConfig writer_config;
  writer_config.placement = PlacementPolicy::active_on_ssd(0, 1);
  Ada writer(ada->mount(), writer_config);
  ASSERT_TRUE(writer.ingest(system_, xtc_new, "bar.xtc").is_ok());

  auto reference = open_ada("recreate_ref");
  ASSERT_TRUE(reference->ingest(system_, xtc_new, "bar.xtc").is_ok());
  const auto expected = answers(*reference);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NE(expected[i], old_answers[i]) << "answer " << i << " must change";
  }
  for (int round = 0; round < 2; ++round) {  // round 1 is served from the cache
    EXPECT_EQ(answers(*ada), expected) << "round " << round;
  }
}

TEST_F(QueryCachePipelineTest, StreamChunkFlushAndSealInvalidate) {
  auto ada = open_ada("stream", kPlentyOfCache);
  const LabelMap labels = categorize_protein_misc(system_);
  auto stream = ada->begin_stream(labels, "live.xtc", /*chunk_frames=*/2);
  ASSERT_TRUE(stream.is_ok());

  workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
  auto push_frames = [&](std::uint32_t n) {
    for (std::uint32_t f = 0; f < n; ++f) {
      const auto frame = gen.next_frame();
      ASSERT_TRUE(stream.value()
                      .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(), frame)
                      .is_ok());
    }
  };

  push_frames(2);  // chunk 1 flushed: the tag is now durable and queryable
  const auto after_chunk1 = ada->query("live.xtc", kProteinTag).value();
  ASSERT_EQ(ada->query("live.xtc", kProteinTag).value(), after_chunk1);  // cached

  push_frames(2);  // chunk 2 flushed: the cached image is stale now
  const auto report = stream.value().finish();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().frames, 4u);

  // A cold reader over the same backends is the ground truth.
  auto reference = open_ada("stream");  // same directories, no cache
  const auto expected = reference->query("live.xtc", kProteinTag).value();
  const auto served = ada->query("live.xtc", kProteinTag).value();
  EXPECT_NE(served, after_chunk1) << "stream flush did not invalidate the cache";
  EXPECT_EQ(served, expected);
  EXPECT_EQ(formats::RawTrajCatReader::open(served).value().frame_count(), 4u);
}

TEST_F(QueryCachePipelineTest, FsckRepairQuarantineInvalidates) {
  auto ada = open_ada("fsck", kPlentyOfCache);
  ASSERT_TRUE(ada->ingest(system_, make_xtc(3), "bar.xtc").is_ok());
  const auto cached = ada->query("bar.xtc", kProteinTag).value();
  ASSERT_EQ(ada->query("bar.xtc", kProteinTag).value(), cached);  // warm

  // Flip one byte of the protein dropping on disk (silent media corruption).
  const auto records = ada->mount().read_index("bar.xtc").value().records;
  const auto p_record = std::find_if(records.begin(), records.end(), [](const auto& r) {
    return r.label == kProteinTag;
  });
  ASSERT_NE(p_record, records.end());
  const std::string path =
      ada->mount().dropping_host_path(p_record->backend, "bar.xtc", p_record->dropping);
  auto bytes = read_file(path).value();
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file(path, bytes).is_ok());

  // fsck quarantines the extent and rewrites the index; that mutation must
  // fence the cached image -- the stale (pre-corruption) bytes are exactly
  // what a query must NOT serve once the subset is gone from the index.
  const auto actions = plfs::repair_container(ada->mount(), "bar.xtc");
  ASSERT_TRUE(actions.is_ok()) << actions.error().to_string();
  EXPECT_EQ(actions.value().extents_quarantined, 1u);

  const auto after = ada->query("bar.xtc", kProteinTag);
  ASSERT_FALSE(after.is_ok()) << "query served a quarantined subset from the cache";
  EXPECT_EQ(after.error().code(), ErrorCode::kNotFound);
  // Other tags still read fine (and may refill the cache).
  EXPECT_TRUE(ada->query("bar.xtc", kMiscTag).is_ok());
}

// --- read-path bugfix regressions ----------------------------------------------------

TEST_F(QueryCachePipelineTest, DottedDirectoriesDoNotConfuseInterception) {
  auto ada = open_ada("ext");
  // A dot in a directory component is not an extension.
  EXPECT_FALSE(ada->should_intercept("/runs.2026/traj", "vmd"));
  EXPECT_TRUE(ada->should_intercept("/runs.2026/traj.xtc", "vmd"));
  // A dotfile's leading dot is part of its name, not an extension
  // (regression: "/data/.xtc" used to be trapped as a trajectory).
  EXPECT_FALSE(ada->should_intercept("/data/.xtc", "vmd"));

  // The VFS shim shares the same parsing: an extension-less file under a
  // dotted directory passes through even for the target application.
  VfsShim shim(*ada, root_ + "/host");
  const std::string note = "plain bytes";
  ASSERT_TRUE(shim.write("/runs.2026/notes", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(note.data()),
                                   note.size()))
                  .is_ok());
  EXPECT_FALSE(shim.was_intercepted("notes"));
  const auto back = shim.read("/runs.2026/notes", "vmd").value();
  EXPECT_EQ(std::string(back.begin(), back.end()), note);
}

TEST_F(QueryCachePipelineTest, UntaggedVfsReadMatchesPerTagConcatenation) {
  auto ada = open_ada("vfsall", kPlentyOfCache);
  VfsShim shim(*ada, root_ + "/host");
  const std::string pdb = formats::write_pdb(system_);
  ASSERT_TRUE(shim.write("/runs.2026/foo.pdb", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(pdb.data()), pdb.size()))
                  .is_ok());
  ASSERT_TRUE(shim.write("/runs.2026/bar.xtc", "vmd", make_xtc(2)).is_ok());

  std::vector<std::uint8_t> expected;
  const auto tags = ada->tags("bar.xtc").value();
  for (const Tag& tag : tags) {
    const auto subset = ada->query("bar.xtc", tag).value();
    expected.insert(expected.end(), subset.begin(), subset.end());
  }
  // Twice: the second untagged read is served from the cache.
  EXPECT_EQ(shim.read("/mnt/bar.xtc", "vmd").value(), expected);
  EXPECT_EQ(shim.read("/mnt/bar.xtc", "vmd").value(), expected);
}

}  // namespace
}  // namespace ada::core
