// Property tests for the frame-parallel ingest pipeline.
//
// The pipeline's contract is byte-identity: for ANY frame count and ANY
// thread budget, the parallel path (scan, then frame ranges decoded into
// their slots of the final images) must produce exactly the bytes of the
// serial decode loop.  These tests drive that invariant over frame/thread
// combinations (including the degenerate ones: zero frames, one frame, more
// threads than frames) for both codec versions, through the facade at the
// default budget (AdaConfig{}) and nested under ingest_batch's file-level
// tasks, and pin down the header-only frame-boundary scanner the ranges are
// cut from against the decoding reader.  The pipelined Ada::ingest, which
// checksums and writes each frame's records into the droppings as the
// workers decode them, must store containers byte-identical (every
// dropping file and the index image) to split() + IoDispatcher::dispatch().
// Those comparisons pit the pipeline against itself, so its answers and
// split() are also checked against an independent reference decode that
// shares none of its scatter plan, sinks or decode engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ada/categorizer.hpp"
#include "ada/label_store.hpp"
#include "ada/middleware.hpp"
#include "ada/preprocessor.hpp"
#include "common/binary_io.hpp"
#include "common/thread_pool.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

// Deterministic XTC image over the tiny GPCR system; returns the image and
// the steps it wrote (for the scanner cross-check).  v2 images get a
// keyframe every 3 frames, so a split has several ranges to cut.
std::vector<std::uint8_t> make_xtc(const chem::System& system, std::uint32_t frames,
                                   std::vector<std::uint32_t>* steps = nullptr,
                                   codec::CodecVersion version = codec::CodecVersion::kV1,
                                   std::uint32_t keyframe_interval = 3) {
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer({}, version, keyframe_interval);
  for (std::uint32_t f = 0; f < frames; ++f) {
    // Evaluate in sequence: next_frame() advances the step/time counters.
    const std::uint32_t step = gen.current_step();
    const float time_ps = gen.current_time_ps();
    const auto coords = gen.next_frame();
    if (steps != nullptr) steps->push_back(step);
    EXPECT_TRUE(writer.add_frame(step, time_ps, system.box(), coords).is_ok());
  }
  return writer.take();
}

/// The reference split: every frame decoded by XtcReader::next, each label
/// group's atoms copied one by one in index order, one RawTrajWriter per
/// tag.  It uses no scatter plan, frame sink or ada decode code.
std::map<Tag, std::vector<std::uint8_t>> reference_split(const LabelMap& labels,
                                                          std::span<const std::uint8_t> xtc) {
  std::map<Tag, std::vector<std::uint32_t>> atoms;
  std::map<Tag, formats::RawTrajWriter> writers;
  for (const auto& [tag, selection] : labels.groups) {
    atoms[tag] = selection.to_indices();
    writers.emplace(tag, formats::RawTrajWriter(static_cast<std::uint32_t>(atoms[tag].size())));
  }
  formats::XtcReader reader(xtc);
  formats::TrajFrame frame;
  std::vector<float> subset;
  while (reader.next(frame).value()) {
    for (auto& [tag, writer] : writers) {
      subset.clear();
      for (const std::uint32_t atom : atoms.at(tag)) {
        const float* xyz = &frame.coords[std::size_t{3} * atom];
        subset.insert(subset.end(), xyz, xyz + 3);
      }
      EXPECT_TRUE(writer.add_frame(frame.step, frame.time_ps, frame.box, subset).is_ok());
    }
  }
  std::map<Tag, std::vector<std::uint8_t>> images;
  for (auto& [tag, writer] : writers) images[tag] = writer.finish();
  return images;
}

/// A partition whose groups interleave in runs of one to five atoms, so
/// every group has many runs at many offsets (the categorizer's groups of
/// the tiny system are one run each).
LabelMap interleaved_labels(std::uint32_t atom_count) {
  LabelMap labels;
  labels.atom_count = atom_count;
  chem::Selection& protein = labels.groups[kProteinTag];
  chem::Selection& misc = labels.groups[kMiscTag];
  std::uint32_t begin = 0;
  for (std::uint32_t k = 0; begin < atom_count; ++k) {
    const std::uint32_t end = std::min(atom_count, begin + 1 + k % 5);
    (k % 2 == 0 ? protein : misc).add_run({begin, end});
    begin = end;
  }
  return labels;
}

TEST(ParallelIngestTest, IngestAndSplitMatchAnIndependentReference) {
  const std::string root = test::unique_temp_dir("ada_parallel_reference");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const LabelMap label_maps[] = {categorize_protein_misc(system),
                                 interleaved_labels(system.atom_count())};
  for (std::size_t m = 0; m < std::size(label_maps); ++m) {
    const LabelMap& labels = label_maps[m];
    ASSERT_TRUE(labels.is_partition());
    const DataPreProcessor preprocessor(labels);
    for (const auto version : {codec::CodecVersion::kV1, codec::CodecVersion::kV2}) {
      for (const std::uint32_t frames : {0u, 1u, 7u, 33u}) {
        // v2 images get a keyframe every 3 frames (make_xtc's default).
        const auto xtc = make_xtc(system, frames, nullptr, version);
        const auto reference = reference_split(labels, xtc);
        ASSERT_EQ(reference.size(), labels.groups.size());
        for (const unsigned threads : {1u, 2u, 4u, 0u}) {
          SCOPED_TRACE(testing::Message()
                       << "label map " << m << ", " << frames << " frames, codec v"
                       << static_cast<int>(version) << ", " << threads << " threads");
          const auto split = preprocessor.split(xtc, nullptr, threads);
          ASSERT_TRUE(split.is_ok()) << split.error().to_string();
          EXPECT_TRUE(split.value() == reference) << "split() differs from the reference";

          AdaConfig config;
          config.placement = PlacementPolicy::active_on_ssd(0, 1);
          config.threads = threads;
          const std::string base = root + "/m" + std::to_string(m) + "v" +
                                   std::to_string(static_cast<int>(version)) + "f" +
                                   std::to_string(frames) + "t" + std::to_string(threads);
          Ada ada(
              plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(),
              config);
          const auto report = ada.ingest_with_labels(labels, xtc, "traj.xtc");
          ASSERT_TRUE(report.is_ok()) << report.error().to_string();
          for (const auto& [tag, image] : reference) {
            const auto answer = ada.query("traj.xtc", tag);
            ASSERT_TRUE(answer.is_ok()) << tag << ": " << answer.error().to_string();
            EXPECT_TRUE(answer.value() == image) << "the ingest's tag " << tag << " differs";
          }
          fs::remove_all(base);
        }
      }
    }
  }
  fs::remove_all(root);
}

TEST(ParallelIngestTest, SplitByteIdenticalToSerialForAnyFrameAndThreadCount) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const DataPreProcessor preprocessor(categorize_protein_misc(system));

  for (const auto version : {codec::CodecVersion::kV1, codec::CodecVersion::kV2}) {
    for (const std::uint32_t frames : {0u, 1u, 2u, 3u, 7u, 16u}) {
      const auto xtc = make_xtc(system, frames, nullptr, version);
      PreprocessStats serial_stats;
      const auto serial = preprocessor.split(xtc, &serial_stats, 1);
      ASSERT_TRUE(serial.is_ok()) << frames << " frames, codec v" << static_cast<int>(version);

      // Budgets: 0 = every pool worker, plus caps below/at/above the frame
      // count (19 > 16 covers threads > frames for every case here).
      for (const unsigned threads : {0u, 2u, 3u, 8u, 19u}) {
        PreprocessStats stats;
        const auto parallel = preprocessor.split(xtc, &stats, threads);
        ASSERT_TRUE(parallel.is_ok()) << frames << " frames @ " << threads << " threads";
        EXPECT_EQ(serial.value(), parallel.value())
            << frames << " frames @ " << threads << " threads, codec v"
            << static_cast<int>(version) << ": subsets differ";
        EXPECT_EQ(serial_stats.frames, stats.frames);
        EXPECT_EQ(serial_stats.atoms, stats.atoms);
        EXPECT_EQ(serial_stats.compressed_bytes, stats.compressed_bytes);
        EXPECT_EQ(serial_stats.subset_bytes, stats.subset_bytes);
        EXPECT_EQ(serial_stats.subset_atoms, stats.subset_atoms);
      }
    }
  }
}

/// Every file of a container, by backend and file name: the droppings and,
/// on backend 0, the index image.
std::map<std::string, std::vector<std::uint8_t>> container_files(const plfs::PlfsMount& mount,
                                                                  const std::string& name) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (std::uint32_t b = 0; b < mount.backend_count(); ++b) {
    const fs::path dir = fs::path(mount.backend(b).host_root) / name;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      files[mount.backend(b).name + "/" + entry.path().filename().string()] =
          read_file(entry.path().string()).value();
    }
  }
  return files;
}

TEST(ParallelIngestTest, PipelinedIngestStoresTheContainerOfSplitThenDispatch) {
  const std::string root = test::unique_temp_dir("ada_pipelined_differential");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const LabelMap labels = categorize_protein_misc(system);
  const DataPreProcessor preprocessor(labels);
  const std::string label_text = encode_label_file(labels);
  const auto placement = PlacementPolicy::active_on_ssd(0, 1);
  struct Codec {
    codec::CodecVersion version;
    std::uint32_t keyframe_interval;
  };
  const Codec codecs[] = {{codec::CodecVersion::kV1, 1},
                          {codec::CodecVersion::kV2, 3},
                          {codec::CodecVersion::kV2, 16}};
  int case_id = 0;
  for (const Codec& codec : codecs) {
    for (const std::uint32_t frames : {0u, 1u, 2u, 7u, 8u, 33u}) {
      const auto xtc = make_xtc(system, frames, nullptr, codec.version, codec.keyframe_interval);
      const auto subsets = preprocessor.split(xtc).value();
      for (const bool keep_original : {false, true}) {
        // The reference: the in-memory split, then one dispatch.  The index
        // images must match byte for byte too: the pipelined writer states
        // each subset's shape itself, dispatch() reads it from the subset's
        // RAW header, and both must store the same span and atom count.
        const std::string ref_base = root + "/ref" + std::to_string(case_id);
        auto ref_mount = plfs::PlfsMount::open(
                             {{"ssd", ref_base + "/ssd"}, {"hdd", ref_base + "/hdd"}})
                             .value();
        std::vector<Blob> extras = {
            Blob{kLabelFileTag,
                 std::span(reinterpret_cast<const std::uint8_t*>(label_text.data()),
                           label_text.size()),
                 std::nullopt}};
        if (keep_original) extras.push_back(Blob{kOriginalTag, xtc, std::nullopt});
        ASSERT_TRUE(
            IoDispatcher(ref_mount, placement).dispatch("traj.xtc", subsets, extras).is_ok());
        const auto expected = container_files(ref_mount, "traj.xtc");
        ASSERT_EQ(expected.size(), 2u + 2u + (keep_original ? 1u : 0u));  // index, p, m, labels

        for (const unsigned threads : {1u, 2u, 4u, 0u}) {
          SCOPED_TRACE(testing::Message()
                       << frames << " frames, codec v" << static_cast<int>(codec.version)
                       << " keyframes every " << codec.keyframe_interval << ", "
                       << threads << " threads, keep_original " << keep_original);
          AdaConfig config;
          config.placement = placement;
          config.threads = threads;
          config.keep_original = keep_original;
          const std::string base =
              root + "/case" + std::to_string(case_id) + "t" + std::to_string(threads);
          Ada ada(plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}})
                      .value(),
                  config);
          const auto report = ada.ingest_with_labels(labels, xtc, "traj.xtc");
          ASSERT_TRUE(report.is_ok()) << report.error().to_string();
          EXPECT_EQ(report.value().preprocess.frames, frames);
          for (const auto& [tag, image] : subsets) {
            EXPECT_EQ(report.value().preprocess.subset_bytes.at(tag), image.size()) << tag;
          }
          const auto stored = container_files(ada.mount(), "traj.xtc");
          ASSERT_EQ(stored.size(), expected.size());
          for (const auto& [file, bytes] : expected) {
            ASSERT_TRUE(stored.count(file)) << "missing " << file;
            EXPECT_TRUE(stored.at(file) == bytes) << file << " differs";
          }
          fs::remove_all(base);
        }
        fs::remove_all(ref_base);
        ++case_id;
      }
    }
  }
  fs::remove_all(root);
}

TEST(ParallelIngestTest, ScannerExtentsMatchReaderPositions) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  for (const std::uint32_t frames : {0u, 1u, 5u, 11u}) {
    std::vector<std::uint32_t> steps;
    const auto xtc = make_xtc(system, frames, &steps);
    const auto extents = formats::scan_xtc_extents(xtc);
    ASSERT_TRUE(extents.is_ok()) << frames << " frames";
    ASSERT_EQ(extents.value().size(), frames);

    // The scanner's extents must tile the image exactly as the decoding
    // reader walks it, and each extent must decode to the frame it claims.
    formats::XtcReader reader(xtc);
    std::size_t expected_offset = 0;
    for (std::uint32_t f = 0; f < frames; ++f) {
      const auto& extent = extents.value()[f];
      EXPECT_EQ(extent.offset, expected_offset) << "frame " << f;
      EXPECT_EQ(extent.atom_count, system.atom_count()) << "frame " << f;
      ASSERT_TRUE(reader.skip().value()) << "frame " << f;
      EXPECT_EQ(extent.offset + extent.size, reader.position()) << "frame " << f;
      expected_offset = reader.position();

      const auto decoded = formats::read_xtc_frame_at(xtc, extent.offset);
      ASSERT_TRUE(decoded.is_ok()) << "frame " << f;
      EXPECT_EQ(decoded.value().step, steps[f]) << "frame " << f;
    }
    EXPECT_EQ(expected_offset, xtc.size());
  }
}

TEST(ParallelIngestTest, ScannerRejectsCorruptImages) {
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const auto xtc = make_xtc(system, 2);

  // Truncations at every structural boundary: mid-prelude, mid-payload.
  for (const std::size_t keep : {std::size_t{1}, std::size_t{50}, std::size_t{99},
                                 xtc.size() - 1}) {
    const std::vector<std::uint8_t> cut(xtc.begin(), xtc.begin() + static_cast<long>(keep));
    EXPECT_FALSE(formats::scan_xtc_extents(cut).is_ok()) << "kept " << keep << " bytes";
  }

  auto bad_magic = xtc;
  bad_magic[0] ^= 0xFF;  // frame magic is the first big-endian word
  EXPECT_FALSE(formats::scan_xtc_extents(bad_magic).is_ok());

  auto bad_codec = xtc;
  bad_codec[52] ^= 0xFF;  // codec magic is word 13 of the prelude
  EXPECT_FALSE(formats::scan_xtc_extents(bad_codec).is_ok());
}

TEST(ParallelIngestTest, DefaultBudgetByteIdenticalToSerial) {
  // AdaConfig{} follows the pool; its ingest must store exactly what the
  // paper's serial decode (threads = 1) stores, for empty, single-frame,
  // odd and more-frames-than-workers images.
  const std::string root = test::unique_temp_dir("ada_parallel_default");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const unsigned workers = ThreadPool::shared().worker_count();
  ASSERT_EQ(AdaConfig{}.threads, 0u);
  ASSERT_GT(ThreadPool::shared().budget(AdaConfig{}.threads), 1u);

  std::map<unsigned, std::unique_ptr<Ada>> by_threads;
  for (const unsigned threads : {AdaConfig{}.threads, 1u}) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.threads = threads;
    const std::string base = root + "/t" + std::to_string(threads);
    by_threads[threads] = std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(), config);
  }
  for (const std::uint32_t frames : {0u, 1u, 7u, 4 * (workers + 1) + 3}) {
    const auto xtc = make_xtc(system, frames);
    const std::string name = std::to_string(frames) + "-frames.xtc";
    const auto parallel = by_threads.at(0)->ingest(system, xtc, name);
    const auto serial = by_threads.at(1)->ingest(system, xtc, name);
    ASSERT_TRUE(parallel.is_ok()) << frames << " frames";
    ASSERT_TRUE(serial.is_ok()) << frames << " frames";
    EXPECT_EQ(parallel.value().preprocess.subset_bytes, serial.value().preprocess.subset_bytes);
    for (const Tag& tag : {kProteinTag, kMiscTag}) {
      EXPECT_EQ(by_threads.at(0)->query(name, tag).value(),
                by_threads.at(1)->query(name, tag).value())
          << frames << " frames, tag " << tag;
    }
  }
  fs::remove_all(root);
}

TEST(ParallelIngestTest, BatchIngestNestsFrameRangesUnderFileTasks) {
  // ingest_batch at the default budget runs each phase as a pool task whose
  // split fans its frame ranges out to the same pool: the nested batches
  // must neither deadlock nor race (run under -DADA_SANITIZE=thread) and
  // must store the serial bytes.
  const std::string root = test::unique_temp_dir("ada_parallel_nested");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  Ada ada(plfs::PlfsMount::open({{"ssd", root + "/ssd"}, {"hdd", root + "/hdd"}}).value(),
          config);
  const DataPreProcessor serial(categorize_protein_misc(system));

  std::vector<std::vector<std::uint8_t>> images;
  std::vector<Ada::Phase> phases;
  for (std::uint32_t p = 0; p < 6; ++p) images.push_back(make_xtc(system, 5 + 3 * p));
  for (std::uint32_t p = 0; p < images.size(); ++p) {
    phases.push_back({"phase" + std::to_string(p) + ".xtc", images[p]});
  }
  const auto results = ada.ingest_batch(system, phases);
  ASSERT_EQ(results.size(), phases.size());
  for (std::size_t p = 0; p < phases.size(); ++p) {
    ASSERT_TRUE(results[p].is_ok()) << phases[p].logical_name;
    const auto expected = serial.split(images[p], nullptr, 1).value();
    for (const auto& [tag, image] : expected) {
      EXPECT_EQ(ada.query(phases[p].logical_name, tag).value(), image)
          << phases[p].logical_name << " tag " << tag;
    }
  }
  fs::remove_all(root);
}

TEST(ParallelIngestTest, AtomMismatchErrorsMatchSerial) {
  // A frame whose header disagrees with the label map must fail with the
  // SAME message on both paths -- the parallel validator reports the global
  // frame index, not a range-local one.
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const DataPreProcessor preprocessor(categorize_protein_misc(system));
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});

  formats::XtcWriter writer;
  ASSERT_TRUE(writer
                  .add_frame(gen.current_step(), gen.current_time_ps(), system.box(),
                             gen.next_frame())
                  .is_ok());
  // Frame 1 carries one atom too many.
  const std::vector<float> bogus((system.atom_count() + 1) * 3, 0.5f);
  ASSERT_TRUE(writer.add_frame(1, 1.0f, system.box(), bogus).is_ok());
  const auto xtc = writer.take();

  const auto serial = preprocessor.split(xtc, nullptr, 1);
  ASSERT_FALSE(serial.is_ok());
  for (const unsigned threads : {0u, 2u, 8u}) {
    const auto parallel = preprocessor.split(xtc, nullptr, threads);
    ASSERT_FALSE(parallel.is_ok()) << threads << " threads";
    EXPECT_EQ(serial.error().to_string(), parallel.error().to_string())
        << threads << " threads";
  }
}

TEST(ParallelIngestTest, StreamedIngestByteIdenticalAcrossThreadCounts) {
  // A stream splits each frame on the producer's thread whatever the
  // budget: every tag's chunked byte stream is the same under any
  // AdaConfig::threads.
  const std::string root = test::unique_temp_dir("ada_parallel_stream");
  fs::remove_all(root);
  const auto system = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
  const auto labels = categorize_protein_misc(system);
  constexpr std::uint32_t kFrames = 10;

  std::map<unsigned, std::map<Tag, std::vector<std::uint8_t>>> by_threads;
  std::map<unsigned, StreamReport> reports;
  for (const unsigned threads : {1u, 4u}) {
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    config.threads = threads;
    const std::string base = root + "/t" + std::to_string(threads);
    Ada ada(plfs::PlfsMount::open({{"ssd", base + "/ssd"}, {"hdd", base + "/hdd"}}).value(),
            config);
    auto stream = ada.begin_stream(labels, "gpcr.xtc", /*chunk_frames=*/3).value();
    workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      ASSERT_TRUE(stream
                      .add_frame(gen.current_step(), gen.current_time_ps(), system.box(),
                                 gen.next_frame())
                      .is_ok());
    }
    reports[threads] = stream.finish().value();
    for (const Tag& tag : {kProteinTag, kMiscTag}) {
      by_threads[threads][tag] = ada.query("gpcr.xtc", tag).value();
    }
  }
  EXPECT_EQ(by_threads.at(1), by_threads.at(4));
  EXPECT_EQ(reports.at(1).frames, reports.at(4).frames);
  EXPECT_EQ(reports.at(1).chunks, reports.at(4).chunks);
  EXPECT_EQ(reports.at(1).subset_bytes, reports.at(4).subset_bytes);
  fs::remove_all(root);
}

}  // namespace
}  // namespace ada::core
