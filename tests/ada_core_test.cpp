// Tests for the ADA core: Algorithm 1 categorizer, label files, the schema
// config, the pre-processor split, dispatch policy, and the middleware
// ingest/query round trip.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "ada/categorizer.hpp"
#include "ada/label_store.hpp"
#include "ada/middleware.hpp"
#include "ada/preprocessor.hpp"
#include "ada/schema_config.hpp"
#include "common/binary_io.hpp"
#include "common/faults.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::core {
namespace {

namespace fs = std::filesystem;

chem::System tiny_system() {
  return workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
}

// --- Algorithm 1 (categorizer) -------------------------------------------------------

TEST(CategorizerTest, ProteinMiscPartition) {
  const auto system = tiny_system();
  const LabelMap labels = categorize_protein_misc(system);
  EXPECT_EQ(labels.atom_count, system.atom_count());
  EXPECT_TRUE(labels.is_partition());
  EXPECT_EQ(labels.tag_atoms(kProteinTag), system.count_category(chem::Category::kProtein));
  EXPECT_EQ(labels.tag_atoms(kMiscTag),
            system.atom_count() - system.count_category(chem::Category::kProtein));
}

TEST(CategorizerTest, RunLengthConstructionMatchesBruteForce) {
  const auto system = tiny_system();
  const LabelMap labels = categorize_fine_grained(system);
  EXPECT_TRUE(labels.is_partition());
  // Brute force: check every atom lands in the right tag's selection.
  for (std::uint32_t i = 0; i < system.atom_count(); ++i) {
    const Tag tag(1, chem::category_tag(system.category(i)));
    EXPECT_TRUE(labels.groups.at(tag).contains(i)) << "atom " << i;
  }
}

TEST(CategorizerTest, ContiguousGroupsYieldSingleRuns) {
  const auto system = tiny_system();
  const LabelMap labels = categorize_protein_misc(system);
  // Canonical ordering: protein first -> exactly one run per tag.
  EXPECT_EQ(labels.groups.at(kProteinTag).runs().size(), 1u);
  EXPECT_EQ(labels.groups.at(kMiscTag).runs().size(), 1u);
}

TEST(CategorizerTest, InterleavedTagsProduceMultipleRuns) {
  // A hand-built system alternating protein and water residues.
  chem::System system;
  for (int i = 0; i < 10; ++i) {
    chem::Atom atom;
    atom.serial = static_cast<std::uint32_t>(i) + 1;
    atom.name = "X";
    atom.residue_name = (i % 2 == 0) ? "ALA" : "SOL";
    atom.residue_seq = static_cast<std::uint32_t>(i) + 1;
    system.add_atom(atom, 0, 0, 0);
  }
  const LabelMap labels = categorize_protein_misc(system);
  EXPECT_EQ(labels.groups.at(kProteinTag).runs().size(), 5u);
  EXPECT_EQ(labels.groups.at(kMiscTag).runs().size(), 5u);
  EXPECT_TRUE(labels.is_partition());
}

TEST(CategorizerTest, EmptySystem) {
  const chem::System system;
  const LabelMap labels = categorize_protein_misc(system);
  EXPECT_EQ(labels.atom_count, 0u);
  EXPECT_TRUE(labels.groups.empty());
  EXPECT_TRUE(labels.is_partition());
}

TEST(CategorizerTest, CategoryRunFastPathsMatchGenericCategorize) {
  // categorize_protein_misc / categorize_fine_grained walk category runs
  // instead of calling GetType per atom; the label maps must be exactly the
  // ones Algorithm 1 builds with the same tag function.
  const TypeFn protein_misc = [](const chem::Atom&, chem::Category category) {
    return category == chem::Category::kProtein ? kProteinTag : kMiscTag;
  };
  const TypeFn fine_grained = [](const chem::Atom&, chem::Category category) {
    return Tag(1, chem::category_tag(category));
  };
  // Interleaved categories, adjacent different-category runs that share a
  // tag (ion then water are both "m"), and a single-atom system.
  constexpr const char* kPdb =
      "ATOM      1  N   ALA A   1      11.104   6.134  -6.504  1.00  0.00           N\n"
      "ATOM      2  CA  ALA A   1      11.639   6.071  -5.147  1.00  0.00           C\n"
      "HETATM    3 NA    NA I   2      20.000  20.000  20.000  1.00  0.00          NA\n"
      "ATOM      4  OW  SOL W   3       5.000   5.000   5.000  1.00  0.00           O\n"
      "ATOM      5  OW  SOL W   4       6.000   5.000   5.000  1.00  0.00           O\n"
      "ATOM      6  N   GLY A   5       1.000   2.000   3.000  1.00  0.00           N\n"
      "HETATM    7 CL    CL I   6       9.000   9.000   9.000  1.00  0.00          CL\n"
      "END\n";
  constexpr const char* kOneAtomPdb =
      "ATOM      1  OW  SOL W   1       5.000   5.000   5.000  1.00  0.00           O\n"
      "END\n";
  const auto tiny = tiny_system();
  std::vector<std::pair<std::string, chem::System>> systems;
  systems.emplace_back("tiny GPCR", tiny);
  systems.emplace_back("paper GPCR",
                       workload::GpcrSystemBuilder(workload::GpcrSpec::paper_default()).build());
  systems.emplace_back("interleaved PDB", formats::parse_pdb(kPdb).value());
  systems.emplace_back("one-atom PDB", formats::parse_pdb(kOneAtomPdb).value());
  systems.emplace_back("tiny GPCR via PDB",
                       formats::parse_pdb(formats::write_pdb(tiny)).value());
  systems.emplace_back("empty", chem::System{});
  for (const auto& [name, system] : systems) {
    EXPECT_EQ(categorize_protein_misc(system), categorize(system, protein_misc)) << name;
    EXPECT_EQ(categorize_fine_grained(system), categorize(system, fine_grained)) << name;
  }
}

TEST(CategorizerTest, SelectionLookup) {
  const auto labels = categorize_protein_misc(tiny_system());
  EXPECT_TRUE(labels.selection(kProteinTag).is_ok());
  EXPECT_FALSE(labels.selection("zzz").is_ok());
}

// --- label store -----------------------------------------------------------------------

TEST(LabelStoreTest, EncodeDecodeRoundTrip) {
  const auto labels = categorize_fine_grained(tiny_system());
  const std::string text = encode_label_file(labels);
  const auto decoded = decode_label_file(text).value();
  EXPECT_EQ(decoded, labels);
}

TEST(LabelStoreTest, HumanReadableFormat) {
  const auto labels = categorize_protein_misc(tiny_system());
  const std::string text = encode_label_file(labels);
  EXPECT_NE(text.find("# ada label file v1"), std::string::npos);
  EXPECT_NE(text.find("atoms 2176"), std::string::npos);
  EXPECT_NE(text.find("p 0-924"), std::string::npos);
}

TEST(LabelStoreTest, RejectsMissingHeader) {
  EXPECT_FALSE(decode_label_file("atoms 5\np 0-4\n").is_ok());
}

TEST(LabelStoreTest, RejectsDuplicateTags) {
  EXPECT_FALSE(decode_label_file("# ada label file v1\natoms 4\np 0-1\np 2-3\n").is_ok());
}

TEST(LabelStoreTest, RejectsMalformedRanges) {
  EXPECT_FALSE(decode_label_file("# ada label file v1\natoms 4\np zz\n").is_ok());
}

// --- schema config (Section 6 future work) ------------------------------------------------

TEST(SchemaTest, CategoryRules) {
  const auto schema = CategorizerSchema::parse(
      "# demo\n"
      "tag p category protein\n"
      "tag w category water\n"
      "default m\n")
                          .value();
  EXPECT_EQ(schema.rule_count(), 2u);
  const auto labels = schema.categorize(tiny_system());
  EXPECT_TRUE(labels.is_partition());
  EXPECT_EQ(labels.tag_atoms("p"), tiny_system().count_category(chem::Category::kProtein));
  EXPECT_EQ(labels.tag_atoms("w"), tiny_system().count_category(chem::Category::kWater));
  EXPECT_GT(labels.tag_atoms("m"), 0u);  // lipids + ions fall through
}

TEST(SchemaTest, ResidueRulesWinByOrder) {
  const auto schema = CategorizerSchema::parse(
      "tag special residues POPC\n"
      "tag rest category lipid\n"
      "default o\n")
                          .value();
  const auto labels = schema.categorize(tiny_system());
  // All POPC atoms matched the first rule; the category rule got nothing.
  EXPECT_EQ(labels.tag_atoms("special"),
            tiny_system().count_category(chem::Category::kLipid));
  EXPECT_EQ(labels.tag_atoms("rest"), 0u);
}

TEST(SchemaTest, AtomNameRules) {
  const auto schema = CategorizerSchema::parse("tag backbone names CA N C O\ndefault x\n").value();
  const auto labels = schema.categorize(tiny_system());
  EXPECT_GT(labels.tag_atoms("backbone"), 0u);
  EXPECT_TRUE(labels.is_partition());
}

TEST(SchemaTest, ParseErrors) {
  EXPECT_FALSE(CategorizerSchema::parse("").is_ok());
  EXPECT_FALSE(CategorizerSchema::parse("bogus line\n").is_ok());
  EXPECT_FALSE(CategorizerSchema::parse("tag p category nosuch\n").is_ok());
  EXPECT_FALSE(CategorizerSchema::parse("tag p\n").is_ok());
  EXPECT_FALSE(CategorizerSchema::parse("default a b\n").is_ok());
  EXPECT_TRUE(CategorizerSchema::parse("default m\n").is_ok());
}

TEST(SchemaTest, CommentsAndBlanksIgnored) {
  const auto schema = CategorizerSchema::parse(
      "\n   # full-line comment\n"
      "tag p category protein   # trailing comment\n"
      "\ndefault m\n");
  EXPECT_TRUE(schema.is_ok());
}

// --- pre-processor -------------------------------------------------------------------------

std::vector<std::uint8_t> make_xtc(const chem::System& system, std::uint32_t frames) {
  workload::TrajectoryGenerator gen(system, workload::DynamicsSpec{});
  formats::XtcWriter writer;
  for (std::uint32_t f = 0; f < frames; ++f) {
    ADA_CHECK(writer
                  .add_frame(gen.current_step(), gen.current_time_ps(), system.box(),
                             gen.next_frame())
                  .is_ok());
  }
  return writer.take();
}

TEST(PreprocessorTest, SplitProducesPerTagRawTrajectories) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 4);
  PreprocessStats stats;
  const auto subsets =
      DataPreProcessor(categorize_protein_misc(system)).split(xtc, &stats).value();
  ASSERT_EQ(subsets.size(), 2u);
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_EQ(stats.atoms, system.atom_count());
  EXPECT_EQ(stats.compressed_bytes, xtc.size());

  const auto protein_reader = formats::RawTrajReader::open(subsets.at(kProteinTag)).value();
  EXPECT_EQ(protein_reader.frame_count(), 4u);
  EXPECT_EQ(protein_reader.atom_count(), system.count_category(chem::Category::kProtein));
  const auto misc_reader = formats::RawTrajReader::open(subsets.at(kMiscTag)).value();
  EXPECT_EQ(misc_reader.atom_count(),
            system.atom_count() - system.count_category(chem::Category::kProtein));
}

TEST(PreprocessorTest, SubsetCoordinatesMatchDirectDecode) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 3);
  const auto labels = categorize_protein_misc(system);
  const auto subsets = DataPreProcessor(labels).split(xtc).value();
  const auto full_frames = formats::read_all_xtc(xtc).value();
  const auto protein_reader = formats::RawTrajReader::open(subsets.at(kProteinTag)).value();
  for (std::uint32_t f = 0; f < 3; ++f) {
    const auto subset_frame = protein_reader.frame(f).value();
    const auto expected =
        formats::extract_subset(full_frames[f].coords, labels.groups.at(kProteinTag));
    EXPECT_EQ(subset_frame.coords, expected) << "frame " << f;
    EXPECT_EQ(subset_frame.step, full_frames[f].step);
  }
}

TEST(PreprocessorTest, SubsetSizesSumToFullRaw) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 5);
  PreprocessStats stats;
  DataPreProcessor(categorize_fine_grained(system)).split(xtc, &stats).value();
  std::uint64_t atoms = 0;
  for (const auto& [tag, n] : stats.subset_atoms) atoms += n;
  EXPECT_EQ(atoms, system.atom_count());
  // Byte overhead per subset is the 16-byte header + per-frame 44 bytes.
  std::uint64_t bytes = 0;
  for (const auto& [tag, b] : stats.subset_bytes) bytes += b;
  const std::uint64_t full = formats::raw_file_bytes(system.atom_count(), 5);
  const std::uint64_t overhead =
      (stats.subset_bytes.size() - 1) * (16 + 5ull * 44);
  EXPECT_EQ(bytes, full + overhead);
}

TEST(PreprocessorTest, AtomCountMismatchRejected) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 2);
  // Label map for a different atom count.
  LabelMap labels;
  labels.atom_count = 10;
  labels.groups["p"] = chem::Selection::all(10);
  EXPECT_FALSE(DataPreProcessor(labels).split(xtc).is_ok());
}

TEST(PreprocessorTest, CorruptXtcRejected) {
  LabelMap labels;
  labels.atom_count = 4;
  labels.groups["p"] = chem::Selection::all(4);
  std::vector<std::uint8_t> garbage(64, 0xab);
  EXPECT_FALSE(DataPreProcessor(labels).split(garbage).is_ok());
}

// --- placement policy -------------------------------------------------------------------------

TEST(PolicyTest, ActiveOnSsd) {
  const auto policy = PlacementPolicy::active_on_ssd(0, 1);
  EXPECT_EQ(policy.backend_for("p"), 0u);
  EXPECT_EQ(policy.backend_for("m"), 1u);
  EXPECT_EQ(policy.backend_for("anything"), 1u);
}

TEST(PolicyTest, SingleBackend) {
  const auto policy = PlacementPolicy::single_backend(2);
  EXPECT_EQ(policy.backend_for("p"), 2u);
  EXPECT_EQ(policy.backend_for("m"), 2u);
}

// --- middleware round trip ---------------------------------------------------------------------

class AdaMiddlewareTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = test::unique_temp_dir("ada_mw_test");
    fs::remove_all(root_);
    AdaConfig config;
    config.placement = PlacementPolicy::active_on_ssd(0, 1);
    ada_ = std::make_unique<Ada>(
        plfs::PlfsMount::open({{"ssd", root_ + "/ssd"}, {"hdd", root_ + "/hdd"}}).value(),
        config);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
  std::unique_ptr<Ada> ada_;
};

TEST_F(AdaMiddlewareTest, InterceptDecision) {
  EXPECT_TRUE(ada_->should_intercept("/data/bar.xtc", "vmd"));
  EXPECT_TRUE(ada_->should_intercept("/data/foo.pdb", "VMD"));
  EXPECT_FALSE(ada_->should_intercept("/data/bar.xtc", "gromacs"));
  EXPECT_FALSE(ada_->should_intercept("/data/notes.txt", "vmd"));
  EXPECT_FALSE(ada_->should_intercept("no_extension", "vmd"));
  // The extension comes from the basename only: a dot in a directory
  // component is not an extension, and a dotfile's leading dot is part of
  // its name (regression for the full-path rfind('.') parse).
  EXPECT_FALSE(ada_->should_intercept("/runs.2026/traj", "vmd"));
  EXPECT_TRUE(ada_->should_intercept("/runs.2026/traj.xtc", "vmd"));
  EXPECT_FALSE(ada_->should_intercept("/data/.xtc", "vmd"));
}

TEST_F(AdaMiddlewareTest, IngestThenQueryRoundTrip) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 3);
  const auto report = ada_->ingest(system, xtc, "bar.xtc").value();
  EXPECT_EQ(report.preprocess.frames, 3u);
  EXPECT_EQ(report.backend_of_tag.at(kProteinTag), 0u);  // SSD
  EXPECT_EQ(report.backend_of_tag.at(kMiscTag), 1u);     // HDD

  // $ mol addfile /mnt/bar.xtc tag p
  const auto protein_image = ada_->query("bar.xtc", kProteinTag).value();
  const auto reader = formats::RawTrajReader::open(protein_image).value();
  EXPECT_EQ(reader.frame_count(), 3u);
  EXPECT_EQ(reader.atom_count(), system.count_category(chem::Category::kProtein));
}

TEST_F(AdaMiddlewareTest, LabelsPersistAcrossSessions) {
  const auto system = tiny_system();
  ASSERT_TRUE(ada_->ingest(system, make_xtc(system, 1), "bar.xtc").is_ok());
  const auto labels = ada_->labels("bar.xtc").value();
  EXPECT_EQ(labels, categorize_protein_misc(system));
}

TEST_F(AdaMiddlewareTest, TagListExcludesReserved) {
  const auto system = tiny_system();
  ASSERT_TRUE(ada_->ingest(system, make_xtc(system, 1), "bar.xtc").is_ok());
  const auto tags = ada_->tags("bar.xtc").value();
  EXPECT_EQ(tags, (std::vector<Tag>{"m", "p"}));
}

TEST_F(AdaMiddlewareTest, ReservedTagQueriesRejected) {
  const auto system = tiny_system();
  ASSERT_TRUE(ada_->ingest(system, make_xtc(system, 1), "bar.xtc").is_ok());
  EXPECT_FALSE(ada_->query("bar.xtc", kLabelFileTag).is_ok());
}

TEST_F(AdaMiddlewareTest, FineGrainedIngest) {
  const auto system = tiny_system();
  const auto labels = categorize_fine_grained(system);
  ASSERT_TRUE(ada_->ingest_with_labels(labels, make_xtc(system, 2), "fine.xtc").is_ok());
  // Water subset is queryable on its own ($ mol addfile fine.xtc tag w).
  const auto water = ada_->query("fine.xtc", "w").value();
  const auto reader = formats::RawTrajReader::open(water).value();
  EXPECT_EQ(reader.atom_count(), system.count_category(chem::Category::kWater));
}

TEST_F(AdaMiddlewareTest, SubsetBytesMatchesQuerySize) {
  const auto system = tiny_system();
  ASSERT_TRUE(ada_->ingest(system, make_xtc(system, 2), "bar.xtc").is_ok());
  const auto expected = ada_->query("bar.xtc", kProteinTag).value().size();
  EXPECT_EQ(ada_->subset_bytes("bar.xtc", kProteinTag).value(), expected);
}

TEST_F(AdaMiddlewareTest, QueryMissingDatasetFails) {
  EXPECT_FALSE(ada_->query("nope.xtc", kProteinTag).is_ok());
  EXPECT_FALSE(ada_->has_dataset("nope.xtc"));
}

TEST_F(AdaMiddlewareTest, DuplicateIngestFails) {
  const auto system = tiny_system();
  ASSERT_TRUE(ada_->ingest(system, make_xtc(system, 1), "bar.xtc").is_ok());
  const auto again = ada_->ingest(system, make_xtc(system, 1), "bar.xtc");
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kAlreadyExists);
}

TEST_F(AdaMiddlewareTest, BatchIngestOfPhases) {
  // Paper Section 2.1: one .pdb guides multiple .xtc files (motion phases).
  const auto system = tiny_system();
  const auto phase1 = make_xtc(system, 2);
  const auto phase2 = make_xtc(system, 3);
  const auto phase3 = make_xtc(system, 1);
  const std::vector<Ada::Phase> phases = {
      {"phase1.xtc", phase1}, {"phase2.xtc", phase2}, {"phase3.xtc", phase3}};
  const auto results = ada_->ingest_batch(system, phases, /*threads=*/3);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) ASSERT_TRUE(r.is_ok()) << r.error().to_string();
  EXPECT_EQ(results[0].value().preprocess.frames, 2u);
  EXPECT_EQ(results[1].value().preprocess.frames, 3u);
  // Every phase is independently queryable under the shared label map.
  for (const char* name : {"phase1.xtc", "phase2.xtc", "phase3.xtc"}) {
    EXPECT_TRUE(ada_->query(name, kProteinTag).is_ok()) << name;
    EXPECT_EQ(ada_->labels(name).value(), categorize_protein_misc(system)) << name;
  }
}

TEST_F(AdaMiddlewareTest, BatchIngestMatchesSerialByteForByte) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 2);
  const std::vector<Ada::Phase> phases = {{"parallel.xtc", xtc}};
  const auto results = ada_->ingest_batch(system, phases, 4);
  ASSERT_TRUE(results[0].is_ok());
  ASSERT_TRUE(ada_->ingest(system, xtc, "serial.xtc").is_ok());
  EXPECT_EQ(ada_->query("parallel.xtc", kProteinTag).value(),
            ada_->query("serial.xtc", kProteinTag).value());
  EXPECT_EQ(ada_->query("parallel.xtc", kMiscTag).value(),
            ada_->query("serial.xtc", kMiscTag).value());
}

TEST_F(AdaMiddlewareTest, BatchIngestRejectsDuplicateNames) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 1);
  const std::vector<Ada::Phase> phases = {{"same.xtc", xtc}, {"same.xtc", xtc}};
  const auto results = ada_->ingest_batch(system, phases);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].is_ok());
  EXPECT_FALSE(results[1].is_ok());
}

TEST_F(AdaMiddlewareTest, BatchIngestReportsPerPhaseFailures) {
  const auto system = tiny_system();
  const auto good = make_xtc(system, 1);
  const std::vector<std::uint8_t> garbage(32, 0x5a);
  const std::vector<Ada::Phase> phases = {{"good.xtc", good}, {"bad.xtc", garbage}};
  const auto results = ada_->ingest_batch(system, phases, 2);
  EXPECT_TRUE(results[0].is_ok());
  EXPECT_FALSE(results[1].is_ok());
  EXPECT_TRUE(ada_->has_dataset("good.xtc"));
}

/// Every regular file under `dir`, by path relative to it, with its bytes.
std::map<std::string, std::vector<std::uint8_t>> files_under(const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[fs::relative(entry.path(), dir).string()] = read_file(entry.path().string()).value();
    }
  }
  return files;
}

TEST_F(AdaMiddlewareTest, FailedFreshIngestLeavesNothingBehind) {
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 3);
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 1e-4;
  ada_->mount().set_retry_policy(fast);
  {
    // Every dropping open fails: the ingest fails with the injected error
    // after its container was created, and removes all of it.
    const fault::ScopedFault down("plfs.write_dropping", fault::Schedule::down_window(1, 100));
    const auto failed = ada_->ingest(system, xtc, "bar.xtc");
    ASSERT_FALSE(failed.is_ok());
    EXPECT_EQ(failed.error().code(), ErrorCode::kUnavailable);
  }
  EXPECT_FALSE(ada_->has_dataset("bar.xtc"));
  EXPECT_TRUE(files_under(root_).empty());
  EXPECT_FALSE(fs::exists(root_ + "/ssd/bar.xtc"));
  EXPECT_FALSE(fs::exists(root_ + "/hdd/bar.xtc"));
  {
    // The one index publication fails (hit 1 is the create's empty image),
    // after every dropping was written: nothing is left either.
    const fault::ScopedFault crash("plfs.write_index", fault::Schedule::fail_nth(2));
    ASSERT_FALSE(ada_->ingest(system, xtc, "bar.xtc").is_ok());
  }
  EXPECT_FALSE(ada_->has_dataset("bar.xtc"));
  EXPECT_TRUE(files_under(root_).empty());

  // The retry succeeds and stores what a never-failed ingest stores.
  ASSERT_TRUE(ada_->ingest(system, xtc, "bar.xtc").is_ok());
  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  Ada clean(plfs::PlfsMount::open({{"ssd", root_ + "/clean/ssd"}, {"hdd", root_ + "/clean/hdd"}})
                .value(),
            config);
  ASSERT_TRUE(clean.ingest(system, xtc, "bar.xtc").is_ok());
  const auto retried = files_under(root_ + "/ssd");
  ASSERT_FALSE(retried.empty());
  EXPECT_EQ(retried, files_under(root_ + "/clean/ssd"));
  EXPECT_EQ(files_under(root_ + "/hdd"), files_under(root_ + "/clean/hdd"));
}

TEST_F(AdaMiddlewareTest, KeepOriginalStoresCompressedImage) {
  AdaConfig config;
  config.placement = PlacementPolicy::active_on_ssd(0, 1);
  config.keep_original = true;
  Ada ada(plfs::PlfsMount::open({{"ssd", root_ + "/ssd2"}, {"hdd", root_ + "/hdd2"}}).value(),
          config);
  const auto system = tiny_system();
  const auto xtc = make_xtc(system, 2);
  ASSERT_TRUE(ada.ingest(system, xtc, "bar.xtc").is_ok());
  EXPECT_EQ(ada.mount().label_size("bar.xtc", kOriginalTag).value(), xtc.size());
}

}  // namespace
}  // namespace ada::core
