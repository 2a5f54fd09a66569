// Tests for the VFS interception shim, the streaming ingest, and the PLFS
// container verifier/repair (failure-injection suite).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>

#include "ada/ingest_stream.hpp"
#include "ada/middleware.hpp"
#include "ada/vfs.hpp"
#include "common/binary_io.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "plfs/fsck.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

class VfsFsckTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/ada_vfs_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
    fs::remove_all(root_);
    system_ = workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();

    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    ada_ = std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", root_ + "/ssd"}, {"hdd", root_ + "/hdd"}}).value(),
        config);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::vector<std::uint8_t> make_xtc(std::uint32_t frames) {
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    formats::XtcWriter writer;
    for (std::uint32_t f = 0; f < frames; ++f) {
      ADA_CHECK(writer
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
    }
    return writer.take();
  }

  std::string root_;
  chem::System system_;
  std::unique_ptr<Ada> ada_;
};

// --- VFS shim ------------------------------------------------------------------------

TEST_F(VfsFsckTest, NonTargetFilesPassThrough) {
  VfsShim shim(*ada_, root_ + "/host");
  const std::string note = "lab notes";
  ASSERT_TRUE(shim.write("/data/notes.txt", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(note.data()),
                                   note.size()))
                  .is_ok());
  const auto readback = shim.read("/data/notes.txt", "vmd").value();
  EXPECT_EQ(std::string(readback.begin(), readback.end()), note);
  EXPECT_FALSE(shim.was_intercepted("notes.txt"));
}

TEST_F(VfsFsckTest, NonTargetAppPassesThroughEvenForXtc) {
  VfsShim shim(*ada_, root_ + "/host");
  const auto xtc = make_xtc(1);
  ASSERT_TRUE(shim.write("/data/bar.xtc", "gromacs", xtc).is_ok());
  EXPECT_FALSE(shim.was_intercepted("bar.xtc"));
  EXPECT_EQ(shim.read("/data/bar.xtc", "gromacs").value(), xtc);
}

TEST_F(VfsFsckTest, XtcBeforePdbFails) {
  VfsShim shim(*ada_, root_ + "/host");
  const auto xtc = make_xtc(1);
  const Status s = shim.write("/data/bar.xtc", "vmd", xtc);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(VfsFsckTest, PdbThenXtcIngestsAndTagReads) {
  VfsShim shim(*ada_, root_ + "/host");
  const std::string pdb = formats::write_pdb(system_);
  ASSERT_TRUE(shim.write("/data/foo.pdb", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(pdb.data()), pdb.size()))
                  .is_ok());
  EXPECT_EQ(shim.registered_structures(), (std::vector<std::string>{"foo.pdb"}));
  ASSERT_TRUE(shim.write("/data/bar.xtc", "vmd", make_xtc(3)).is_ok());
  EXPECT_TRUE(shim.was_intercepted("bar.xtc"));

  // Tagged read returns the decompressed protein subset.
  const auto protein = shim.read("/mnt/bar.xtc", "vmd", Tag("p")).value();
  const auto reader = formats::RawTrajCatReader::open(protein).value();
  EXPECT_EQ(reader.frame_count(), 3u);
  EXPECT_EQ(reader.atom_count(), system_.count_category(chem::Category::kProtein));

  // The .pdb stayed readable as a plain file (mol new re-opens it).
  const auto pdb_back = shim.read("/data/foo.pdb", "vmd").value();
  EXPECT_EQ(std::string(pdb_back.begin(), pdb_back.end()), pdb);
}

TEST_F(VfsFsckTest, UntaggedReadOfDatasetReturnsAllSubsets) {
  VfsShim shim(*ada_, root_ + "/host");
  const std::string pdb = formats::write_pdb(system_);
  ASSERT_TRUE(shim.write("foo.pdb", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(pdb.data()), pdb.size()))
                  .is_ok());
  ASSERT_TRUE(shim.write("bar.xtc", "vmd", make_xtc(2)).is_ok());
  const auto all = shim.read("bar.xtc", "vmd").value();
  const std::uint64_t m = ada_->subset_bytes("bar.xtc", "m").value();
  const std::uint64_t p = ada_->subset_bytes("bar.xtc", "p").value();
  EXPECT_EQ(all.size(), m + p);
}

TEST_F(VfsFsckTest, GuideSelectionIsExplicit) {
  VfsShim shim(*ada_, root_ + "/host");
  const std::string pdb = formats::write_pdb(system_);
  const auto span_of = [](const std::string& s) {
    return std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  ASSERT_TRUE(shim.write("first.pdb", "vmd", span_of(pdb)).is_ok());
  ASSERT_TRUE(shim.write("second.pdb", "vmd", span_of(pdb)).is_ok());
  // Most recent wins by default; set_guide overrides.
  ASSERT_TRUE(shim.set_guide("first.pdb").is_ok());
  ASSERT_TRUE(shim.write("bar.xtc", "vmd", make_xtc(1)).is_ok());
  EXPECT_FALSE(shim.set_guide("missing.pdb").is_ok());
}

TEST_F(VfsFsckTest, TaggedReadOfPlainPathFails) {
  VfsShim shim(*ada_, root_ + "/host");
  const std::string note = "x";
  ASSERT_TRUE(shim.write("notes.txt", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(note.data()), 1))
                  .is_ok());
  EXPECT_FALSE(shim.read("notes.txt", "vmd", Tag("p")).is_ok());
}

// --- streaming ingest ------------------------------------------------------------------

TEST_F(VfsFsckTest, StreamingIngestChunksAndReadsBack) {
  const auto labels = categorize_protein_misc(system_);
  auto stream = ada_->begin_stream(labels, "stream.xtc", /*chunk_frames=*/4).value();
  workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
  for (int f = 0; f < 10; ++f) {
    ASSERT_TRUE(stream
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
  }
  const auto report = stream.finish().value();
  EXPECT_EQ(report.frames, 10u);
  EXPECT_EQ(report.chunks, 3u);  // 4 + 4 + 2

  // Chunked subsets read back as one logical trajectory.
  const auto protein = ada_->query("stream.xtc", kProteinTag).value();
  const auto reader = formats::RawTrajCatReader::open(protein).value();
  EXPECT_EQ(reader.frame_count(), 10u);
  EXPECT_EQ(reader.segment_count(), 3u);
  // Labels were persisted at finish().
  EXPECT_EQ(ada_->labels("stream.xtc").value(), labels);
}

TEST_F(VfsFsckTest, StreamRejectsAfterFinishAndBadFrames) {
  const auto labels = categorize_protein_misc(system_);
  auto stream = ada_->begin_stream(labels, "s2.xtc", 8).value();
  std::vector<float> wrong(3, 0.0f);
  EXPECT_FALSE(stream.add_frame(0, 0.0f, system_.box(), wrong).is_ok());
  ASSERT_TRUE(stream.add_frame(0, 0.0f, system_.box(), system_.reference_coords()).is_ok());
  ASSERT_TRUE(stream.finish().is_ok());
  EXPECT_FALSE(stream.add_frame(1, 2.0f, system_.box(), system_.reference_coords()).is_ok());
  EXPECT_FALSE(stream.finish().is_ok());
}

TEST_F(VfsFsckTest, MovedFromStreamIsSealedAndMoveTargetFinishes) {
  // Regression: the move constructor must seal the source.  A defaulted
  // move would leave the husk with a live dispatcher_ and finished_ ==
  // false, so a stale finish() on it would dispatch a second label file
  // into the container.
  const auto labels = categorize_protein_misc(system_);
  auto stream = ada_->begin_stream(labels, "moved.xtc", /*chunk_frames=*/4).value();
  workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
  for (int f = 0; f < 3; ++f) {
    ASSERT_TRUE(stream
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
  }

  IngestStream moved = std::move(stream);
  // The husk rejects everything; it must not touch the container.
  EXPECT_FALSE(stream.add_frame(3, 3.0f, system_.box(), gen.next_frame()).is_ok());
  EXPECT_FALSE(stream.finish().is_ok());

  // The move target carries on: buffered frames, counters, and the
  // container handle all travelled.
  ASSERT_TRUE(moved
                  .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                             gen.next_frame())
                  .is_ok());
  const auto report = moved.finish().value();
  EXPECT_EQ(report.frames, 4u);
  EXPECT_EQ(report.chunks, 1u);

  // Exactly one label file landed; the subset reads back whole.
  EXPECT_EQ(ada_->labels("moved.xtc").value(), labels);
  const auto protein = ada_->query("moved.xtc", kProteinTag).value();
  const auto reader = formats::RawTrajCatReader::open(protein).value();
  EXPECT_EQ(reader.frame_count(), 4u);
}

TEST_F(VfsFsckTest, StreamValidation) {
  const auto labels = categorize_protein_misc(system_);
  EXPECT_FALSE(ada_->begin_stream(labels, "bad.xtc", 0).is_ok());
  LabelMap holes;
  holes.atom_count = 10;
  holes.groups["p"] = chem::Selection::from_runs({{0, 5}});  // hole at [5,10)
  EXPECT_FALSE(ada_->begin_stream(holes, "holes.xtc", 4).is_ok());
}

// --- fsck -----------------------------------------------------------------------------

TEST_F(VfsFsckTest, CleanContainerVerifies) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  const auto report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.extents_complete);
}

TEST_F(VfsFsckTest, MissingDroppingDetectedAndRepaired) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  // Kill the protein dropping on the SSD backend.
  const auto locations = Indexer(ada_->mount()).locate("bar.xtc", kProteinTag).value();
  ASSERT_FALSE(locations.empty());
  fs::remove(locations[0].host_path);

  auto report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.broken_records.size(), 1u);
  EXPECT_EQ(report.broken_records[0].label, kProteinTag);
  EXPECT_FALSE(report.extents_complete);

  const auto actions = plfs::repair_container(ada_->mount(), "bar.xtc").value();
  EXPECT_EQ(actions.records_dropped, 1u);
  // After repair: index is consistent again (the protein subset is gone, the
  // MISC subset still reads).
  report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  EXPECT_TRUE(report.broken_records.empty());
  EXPECT_FALSE(ada_->query("bar.xtc", kProteinTag).is_ok());
  EXPECT_TRUE(ada_->query("bar.xtc", kMiscTag).is_ok());
}

TEST_F(VfsFsckTest, InspectReportsUnknownBackendAsBroken) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  // A CRC-valid index whose protein record names a backend the mount lacks.
  auto index = ada_->mount().read_index("bar.xtc").value();
  bool moved = false;
  for (auto& record : index.records) {
    if (record.label != kProteinTag) continue;
    record.backend = 7;
    moved = true;
  }
  ASSERT_TRUE(moved);
  ASSERT_TRUE(ada_->mount().rewrite_index("bar.xtc", index).is_ok());

  // The dump prints the id as unknown, and --fsck reports the record broken.
  const std::string out = root_ + "/inspect.out";
  const std::string command = std::string(ADA_INSPECT_BIN) + " --ssd " + root_ + "/ssd --hdd " +
                              root_ + "/hdd --name bar.xtc --fsck >" + out + " 2>&1";
  const int status = std::system(command.c_str());
  const auto bytes = read_file(out).value();
  const std::string report(bytes.begin(), bytes.end());
  ASSERT_TRUE(WIFEXITED(status)) << report;
  EXPECT_EQ(WEXITSTATUS(status), 1) << report;
  EXPECT_NE(report.find("unknown (7)"), std::string::npos) << report;
  EXPECT_NE(report.find("fsck: NOT CLEAN (1 broken records"), std::string::npos) << report;
}

TEST_F(VfsFsckTest, TruncatedDroppingDetected) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  const auto locations = Indexer(ada_->mount()).locate("bar.xtc", kMiscTag).value();
  ASSERT_FALSE(locations.empty());
  const auto full = read_file(locations[0].host_path).value();
  ASSERT_TRUE(write_file(locations[0].host_path,
                         std::span(full).subspan(0, full.size() / 2))
                  .is_ok());
  const auto report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  ASSERT_EQ(report.broken_records.size(), 1u);
  EXPECT_EQ(report.broken_records[0].label, kMiscTag);
}

TEST_F(VfsFsckTest, OrphanDroppingsDetectedAndRemoved) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(1), "bar.xtc").is_ok());
  // Drop a stray file into the container directory on backend 1.
  const std::string stray =
      ada_->mount().dropping_host_path(1, "bar.xtc", "dropping.zzz.999");
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  ASSERT_TRUE(write_file(stray, junk).is_ok());

  auto report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  ASSERT_EQ(report.orphan_droppings.size(), 1u);
  EXPECT_EQ(report.orphan_droppings[0].second, "dropping.zzz.999");

  const auto actions = plfs::repair_container(ada_->mount(), "bar.xtc").value();
  EXPECT_EQ(actions.orphans_removed, 1u);
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_TRUE(plfs::verify_container(ada_->mount(), "bar.xtc").value().clean());
}

TEST_F(VfsFsckTest, InterruptedStreamLeavesRepairableContainer) {
  // Simulate a crash: stream some chunks, never call finish().
  const auto labels = categorize_protein_misc(system_);
  {
    auto stream = ada_->begin_stream(labels, "crashed.xtc", 2).value();
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    for (int f = 0; f < 5; ++f) {
      ASSERT_TRUE(stream
                      .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                                 gen.next_frame())
                      .is_ok());
    }
    // stream dropped here: the partial 5th-frame chunk and label file are lost.
  }
  // The flushed chunks are durable and consistent.
  const auto report = plfs::verify_container(ada_->mount(), "crashed.xtc").value();
  EXPECT_TRUE(report.broken_records.empty());
  EXPECT_TRUE(report.orphan_droppings.empty());
  const auto protein = ada_->query("crashed.xtc", kProteinTag).value();
  EXPECT_EQ(formats::RawTrajCatReader::open(protein).value().frame_count(), 4u);
  // The label file is gone though -- labels() fails, which is how a recovery
  // tool knows finish() never ran.
  EXPECT_FALSE(ada_->labels("crashed.xtc").is_ok());
}

TEST_F(VfsFsckTest, VerifyMissingContainerFails) {
  EXPECT_FALSE(plfs::verify_container(ada_->mount(), "nope").is_ok());
  EXPECT_FALSE(plfs::repair_container(ada_->mount(), "nope").is_ok());
}

// --- checksums + quarantine -----------------------------------------------------------

TEST_F(VfsFsckTest, ChecksumBadExtentQuarantinedOthersSurvive) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  const auto misc_before = ada_->query("bar.xtc", kMiscTag).value();

  // Flip one byte in the middle of the protein dropping: length is intact,
  // so only the checksum can catch it.
  const auto locations = Indexer(ada_->mount()).locate("bar.xtc", kProteinTag).value();
  ASSERT_FALSE(locations.empty());
  auto bytes = read_file(locations[0].host_path).value();
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(write_file(locations[0].host_path, bytes).is_ok());

  // The read path refuses to serve the corrupt extent (never corrupt bytes).
  const auto corrupt = ada_->query("bar.xtc", kProteinTag);
  ASSERT_FALSE(corrupt.is_ok());
  EXPECT_EQ(corrupt.error().code(), ErrorCode::kCorruptData);

  // fsck pins the damage to exactly that extent.
  auto report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.broken_records.empty()) << "length is intact, only the CRC differs";
  ASSERT_EQ(report.checksum_bad_records.size(), 1u);
  EXPECT_EQ(report.checksum_bad_records[0].label, kProteinTag);

  // Repair quarantines the bad dropping (kept for forensics) and drops it
  // from the index; the other tag is untouched, byte for byte.
  const auto actions = plfs::repair_container(ada_->mount(), "bar.xtc").value();
  EXPECT_EQ(actions.extents_quarantined, 1u);
  EXPECT_EQ(actions.records_dropped, 0u);
  EXPECT_FALSE(fs::exists(locations[0].host_path));
  EXPECT_TRUE(fs::exists(locations[0].host_path + ".quarantined"));

  report = plfs::verify_container(ada_->mount(), "bar.xtc").value();
  EXPECT_TRUE(report.checksum_bad_records.empty());
  EXPECT_TRUE(report.orphan_droppings.empty()) << "quarantined files are not orphans";
  EXPECT_FALSE(ada_->query("bar.xtc", kProteinTag).is_ok());
  EXPECT_EQ(ada_->query("bar.xtc", kMiscTag).value(), misc_before);
}

TEST_F(VfsFsckTest, RepairIsIdempotentAfterQuarantine) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(1), "bar.xtc").is_ok());
  const auto locations = Indexer(ada_->mount()).locate("bar.xtc", kProteinTag).value();
  auto bytes = read_file(locations[0].host_path).value();
  bytes[0] ^= 0x01;
  ASSERT_TRUE(write_file(locations[0].host_path, bytes).is_ok());

  ASSERT_EQ(plfs::repair_container(ada_->mount(), "bar.xtc").value().extents_quarantined, 1u);
  const auto again = plfs::repair_container(ada_->mount(), "bar.xtc").value();
  EXPECT_EQ(again.extents_quarantined, 0u);
  EXPECT_EQ(again.orphans_removed, 0u);
  EXPECT_TRUE(fs::exists(locations[0].host_path + ".quarantined"));
}

// --- degraded queries ------------------------------------------------------------------

TEST_F(VfsFsckTest, DegradedQueryReturnsAllSubsetsWhenHealthy) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  const auto partial = ada_->query_degraded("bar.xtc").value();
  EXPECT_FALSE(partial.partial());
  EXPECT_EQ(partial.subsets.size(), 2u);  // m + p
  const std::uint64_t m = ada_->subset_bytes("bar.xtc", "m").value();
  const std::uint64_t p = ada_->subset_bytes("bar.xtc", "p").value();
  EXPECT_EQ(partial.concat().size(), m + p);
}

TEST_F(VfsFsckTest, DegradedQueryFlagsLostTagAndServesSurvivors) {
  ASSERT_TRUE(ada_->ingest(system_, make_xtc(2), "bar.xtc").is_ok());
  const auto misc = ada_->query("bar.xtc", kMiscTag).value();
  const auto locations = Indexer(ada_->mount()).locate("bar.xtc", kProteinTag).value();
  fs::remove(locations[0].host_path);

  const auto partial = ada_->query_degraded("bar.xtc").value();
  EXPECT_TRUE(partial.partial());
  ASSERT_EQ(partial.failed.size(), 1u);
  EXPECT_EQ(partial.failed[0].tag, kProteinTag);
  ASSERT_EQ(partial.subsets.size(), 1u);
  EXPECT_EQ(partial.subsets.at(kMiscTag), misc);
  EXPECT_EQ(partial.concat(), misc);
}

TEST_F(VfsFsckTest, DegradedReadThroughShim) {
  VfsShim shim(*ada_, root_ + "/host");
  const std::string pdb = formats::write_pdb(system_);
  ASSERT_TRUE(shim.write("foo.pdb", "vmd",
                         std::span(reinterpret_cast<const std::uint8_t*>(pdb.data()), pdb.size()))
                  .is_ok());
  ASSERT_TRUE(shim.write("bar.xtc", "vmd", make_xtc(1)).is_ok());
  EXPECT_FALSE(shim.read_degraded("foo.pdb", "vmd").is_ok()) << "passthrough has no partial mode";
  const auto partial = shim.read_degraded("bar.xtc", "vmd").value();
  EXPECT_FALSE(partial.partial());
  EXPECT_EQ(partial.concat(), shim.read("bar.xtc", "vmd").value());
}

TEST_F(VfsFsckTest, DegradedQueryFailsOnlyWhenIndexUnreadable) {
  EXPECT_FALSE(ada_->query_degraded("nope.xtc").is_ok());
}

}  // namespace
}  // namespace ada::core
