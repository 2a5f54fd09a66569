// Tests for mini-VMD: frame store, geometry, renderer, mol commands,
// profiler, animation replayer.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/binary_io.hpp"
#include "common/units.hpp"
#include "formats/pdb.hpp"
#include "formats/xtc_file.hpp"
#include "vmd/command.hpp"
#include "vmd/frame_store.hpp"
#include "vmd/geometry.hpp"
#include "vmd/mol.hpp"
#include "vmd/profiler.hpp"
#include "vmd/renderer.hpp"
#include "vmd/replay.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "test_util.hpp"

namespace ada::vmd {
namespace {

namespace fs = std::filesystem;

chem::System tiny_system() {
  return workload::GpcrSystemBuilder(workload::GpcrSpec::tiny()).build();
}

formats::TrajFrame frame_of(const chem::System& system) {
  formats::TrajFrame frame;
  frame.coords = system.reference_coords();
  frame.box = system.box();
  return frame;
}

// --- frame store -----------------------------------------------------------------

TEST(FrameStoreTest, AddAndAccess) {
  const auto system = tiny_system();
  FrameStore store;
  ASSERT_TRUE(store.add_frame(frame_of(system)).is_ok());
  ASSERT_TRUE(store.add_frame(frame_of(system)).is_ok());
  EXPECT_EQ(store.frame_count(), 2u);
  EXPECT_EQ(store.atom_count(), system.atom_count());
  EXPECT_GT(store.bytes(), 0.0);
}

TEST(FrameStoreTest, MemoryChargedAndFreed) {
  const auto system = tiny_system();
  storage::MemoryTracker memory(1 * kGB);
  {
    FrameStore store(&memory, "test_frames");
    ASSERT_TRUE(store.add_frame(frame_of(system)).is_ok());
    const double expected = static_cast<double>(system.atom_count()) * 12.0 + 44.0;
    EXPECT_DOUBLE_EQ(memory.charged("test_frames"), expected);
    store.clear();
    EXPECT_DOUBLE_EQ(memory.in_use(), 0.0);
    ASSERT_TRUE(store.add_frame(frame_of(system)).is_ok());
  }
  // Destructor releases the remaining charge.
  EXPECT_DOUBLE_EQ(memory.in_use(), 0.0);
}

TEST(FrameStoreTest, OomRejectsFrame) {
  const auto system = tiny_system();
  storage::MemoryTracker memory(30 * 1e3, 0.0);  // ~1 tiny frame
  FrameStore store(&memory, "f");
  ASSERT_TRUE(store.add_frame(frame_of(system)).is_ok());
  const Status s = store.add_frame(frame_of(system));
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(store.frame_count(), 1u);  // rejected frame not stored
}

TEST(FrameStoreTest, MismatchedAtomCountRejected) {
  FrameStore store;
  formats::TrajFrame a;
  a.coords.resize(9);
  formats::TrajFrame b;
  b.coords.resize(12);
  ASSERT_TRUE(store.add_frame(a).is_ok());
  EXPECT_FALSE(store.add_frame(b).is_ok());
}

// --- geometry ---------------------------------------------------------------------

TEST(GeometryTest, WaterMoleculeHasTwoBonds) {
  // O at origin, two H on opposite sides at 0.095 nm: both O-H pairs bond
  // (0.095 < 0.6*(0.152+0.12) = 0.163); the H-H pair does not
  // (0.19 nm > 0.6*(0.12+0.12) = 0.144).
  const std::vector<float> coords = {0, 0, 0, 0.095f, 0, 0, -0.095f, 0, 0};
  const std::vector<float> radii = {0.152f, 0.12f, 0.12f};
  const auto bonds = find_bonds(coords, radii);
  ASSERT_EQ(bonds.size(), 2u);
  EXPECT_EQ(bonds[0], (Bond{0, 1}));
  EXPECT_EQ(bonds[1], (Bond{0, 2}));
}

TEST(GeometryTest, DistantAtomsDoNotBond) {
  const std::vector<float> coords = {0, 0, 0, 1, 1, 1};
  const std::vector<float> radii = {0.17f, 0.17f};
  EXPECT_TRUE(find_bonds(coords, radii).empty());
}

TEST(GeometryTest, CoincidentAtomsDoNotBond) {
  // Exact overlap is excluded (dist2 ~ 0): VMD treats it as an alt-loc.
  const std::vector<float> coords = {1, 1, 1, 1, 1, 1};
  const std::vector<float> radii = {0.17f, 0.17f};
  EXPECT_TRUE(find_bonds(coords, radii).empty());
}

TEST(GeometryTest, CellListMatchesBruteForce) {
  const auto system = tiny_system();
  const auto selection = system.selection_for(chem::Category::kProtein);
  const auto radii = subset_radii(system, selection);
  const auto coords = formats::extract_subset(system.reference_coords(), selection);
  const auto fast = find_bonds(coords, radii);

  // O(N^2) reference.
  std::vector<Bond> slow;
  for (std::uint32_t i = 0; i < radii.size(); ++i) {
    for (std::uint32_t j = i + 1; j < radii.size(); ++j) {
      float d2 = 0;
      for (int d = 0; d < 3; ++d) {
        const float diff = coords[3 * i + static_cast<std::size_t>(d)] -
                           coords[3 * j + static_cast<std::size_t>(d)];
        d2 += diff * diff;
      }
      const float limit = 0.6f * (radii[i] + radii[j]);
      if (d2 < limit * limit && d2 > 1e-8f) slow.push_back(Bond{i, j});
    }
  }
  EXPECT_EQ(fast, slow);
}

TEST(GeometryTest, StatsConsistent) {
  const auto system = tiny_system();
  const auto selection = chem::Selection::all(system.atom_count());
  const auto radii = subset_radii(system, selection);
  const auto stats = build_geometry(system.reference_coords(), radii);
  EXPECT_EQ(stats.atoms, system.atom_count());
  EXPECT_EQ(stats.sphere_count, stats.atoms);
  EXPECT_EQ(stats.line_vertices, 2 * stats.bonds);
  EXPECT_GT(stats.bonds, stats.atoms / 2);  // molecules are bonded structures
}

TEST(GeometryTest, SubsetRadiiFollowElements) {
  const auto system = tiny_system();
  const auto protein = system.selection_for(chem::Category::kProtein);
  const auto radii = subset_radii(system, protein);
  ASSERT_EQ(radii.size(), protein.count());
  for (const float r : radii) {
    EXPECT_GT(r, 0.1f);
    EXPECT_LT(r, 0.3f);
  }
}

// --- renderer ----------------------------------------------------------------------

TEST(RendererTest, RendersNonEmptyImage) {
  const auto system = tiny_system();
  const auto selection = chem::Selection::all(system.atom_count());
  const auto radii = subset_radii(system, selection);
  std::vector<chem::Category> categories;
  for (std::uint32_t i = 0; i < system.atom_count(); ++i) categories.push_back(system.category(i));
  RenderOptions options;
  options.width = 64;
  options.height = 64;
  const auto result = render_frame(system.reference_coords(), radii, categories, options).value();
  EXPECT_EQ(result.image.rgb.size(), 3u * 64 * 64);
  // Some pixels must differ from the background.
  int lit = 0;
  for (std::size_t p = 0; p < result.image.rgb.size(); p += 3) {
    if (result.image.rgb[p] != 16) ++lit;
  }
  EXPECT_GT(lit, 100);
}

TEST(RendererTest, InputValidation) {
  const std::vector<float> coords = {0, 0, 0};
  const std::vector<float> radii = {0.1f};
  const std::vector<chem::Category> categories = {chem::Category::kProtein};
  RenderOptions bad;
  bad.width = 0;
  EXPECT_FALSE(render_frame(coords, radii, categories, bad).is_ok());
  bad = RenderOptions{};
  bad.view_axis = 5;
  EXPECT_FALSE(render_frame(coords, radii, categories, bad).is_ok());
  const std::vector<float> wrong_radii = {0.1f, 0.2f};
  EXPECT_FALSE(render_frame(coords, wrong_radii, categories, {}).is_ok());
}

TEST(RendererTest, EmptyFrameRenders) {
  const auto result = render_frame({}, {}, {}, {}).value();
  EXPECT_EQ(result.stats.atoms, 0u);
}

TEST(RendererTest, PpmRoundTrip) {
  Image image;
  image.width = 2;
  image.height = 1;
  image.rgb = {255, 0, 0, 0, 255, 0};
  const auto ppm = image.to_ppm();
  const std::string header(ppm.begin(), ppm.begin() + 9);
  EXPECT_EQ(header, "P6\n2 1\n25");
  const std::string path = testing::TempDir() + "/ada_render_test.ppm";
  ASSERT_TRUE(write_ppm(path, image).is_ok());
  EXPECT_EQ(read_file(path).value().size(), ppm.size());
}

TEST(RendererTest, CategoryColorsDistinct) {
  std::uint8_t protein[3];
  std::uint8_t water[3];
  category_color(chem::Category::kProtein, protein);
  category_color(chem::Category::kWater, water);
  EXPECT_NE(std::make_tuple(protein[0], protein[1], protein[2]),
            std::make_tuple(water[0], water[1], water[2]));
}

// --- profiler -----------------------------------------------------------------------

TEST(ProfilerTest, AccumulatesAndFolds) {
  PhaseProfiler profiler;
  profiler.add("vmd;load;decompress", 1.5);
  profiler.add("vmd;load;decompress", 0.5);
  profiler.add("vmd;render", 1.0);
  EXPECT_DOUBLE_EQ(profiler.total_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(profiler.seconds_under("vmd;load"), 2.0);
  EXPECT_NEAR(profiler.fraction_under("vmd;load;decompress"), 2.0 / 3.0, 1e-12);
  const auto lines = profiler.folded();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "vmd;load;decompress 2000");
  EXPECT_EQ(lines[1], "vmd;render 1000");
}

TEST(ProfilerTest, PrefixDoesNotMatchPartialNames) {
  PhaseProfiler profiler;
  profiler.add("vmd;loader", 1.0);
  EXPECT_DOUBLE_EQ(profiler.seconds_under("vmd;load"), 0.0);
}

TEST(ProfilerTest, ClearResets) {
  PhaseProfiler profiler;
  profiler.add("x", 1.0);
  profiler.clear();
  EXPECT_DOUBLE_EQ(profiler.total_seconds(), 0.0);
  EXPECT_TRUE(profiler.folded().empty());
}

// --- replayer ------------------------------------------------------------------------

TEST(ReplayTest, SequentialFirstPassAllMisses) {
  AnimationReplayer replayer(100, 1000.0, 1e9);  // cache fits everything
  replayer.play_sequential();
  EXPECT_EQ(replayer.stats().accesses, 100u);
  EXPECT_EQ(replayer.stats().misses, 100u);
  replayer.play_sequential();  // second pass all hits
  EXPECT_EQ(replayer.stats().hits, 100u);
}

TEST(ReplayTest, BackAndForthWithTightCacheThrashes) {
  // Paper Section 2.1: back-and-forth replay with limited memory -> low hit
  // rate.  Cache of 10 frames over 100-frame sweeps: LRU evicts everything
  // before it is revisited except at the turning points.
  AnimationReplayer replayer(100, 1000.0, 10 * 1000.0);
  replayer.play_back_and_forth(3);
  EXPECT_LT(replayer.stats().hit_rate(), 0.2);
  EXPECT_GT(replayer.stats().refetch_bytes, 400 * 1000.0);
}

TEST(ReplayTest, SmallerFramesRaiseHitRate) {
  // ADA's effect: protein-only frames are ~42% the size, so the same memory
  // caches ~2.4x the frames and the hit rate climbs.
  const double memory = 50 * 1000.0;
  AnimationReplayer full(100, 1000.0, memory);      // 50 frames fit
  AnimationReplayer protein(100, 425.0, memory);    // 117 frames fit -> all
  full.play_back_and_forth(2);
  protein.play_back_and_forth(2);
  EXPECT_GT(protein.stats().hit_rate(), full.stats().hit_rate() + 0.2);
}

TEST(ReplayTest, RandomAccessHitRateTracksCacheFraction) {
  Rng rng(42);
  AnimationReplayer replayer(1000, 1000.0, 250 * 1000.0);  // 25% cached
  replayer.play_random(20000, rng);
  EXPECT_NEAR(replayer.stats().hit_rate(), 0.25, 0.05);
}

TEST(ReplayTest, CacheNeverExceedsCapacity) {
  Rng rng(7);
  AnimationReplayer replayer(500, 1000.0, 32 * 1000.0);
  replayer.play_random(5000, rng);
  EXPECT_LE(replayer.cached_frames(), replayer.cache_capacity_frames());
}

// --- mol session + commands ------------------------------------------------------------

class MolSessionTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = test::unique_temp_dir("vmd_mol_test");
    fs::remove_all(root_);
    fs::create_directories(root_);
    system_ = tiny_system();

    core::AdaConfig config;
    config.placement = core::PlacementPolicy::active_on_ssd(0, 1);
    ada_ = std::make_unique<core::Ada>(
        plfs::PlfsMount::open({{"ssd", root_ + "/ssd"}, {"hdd", root_ + "/hdd"}}).value(),
        config);

    // Ingest a 3-frame trajectory as bar.xtc.
    workload::TrajectoryGenerator gen(system_, workload::DynamicsSpec{});
    formats::XtcWriter writer;
    for (int f = 0; f < 3; ++f) {
      ADA_CHECK(writer
                    .add_frame(gen.current_step(), gen.current_time_ps(), system_.box(),
                               gen.next_frame())
                    .is_ok());
    }
    xtc_image_ = writer.take();
    ADA_CHECK(ada_->ingest(system_, xtc_image_, "bar.xtc").is_ok());

    // Host-side files for the non-ADA paths.
    ADA_CHECK(formats::write_pdb_file(root_ + "/foo.pdb", system_).is_ok());
    ADA_CHECK(write_file(root_ + "/plain.xtc", xtc_image_).is_ok());
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
  chem::System system_;
  std::unique_ptr<core::Ada> ada_;
  std::vector<std::uint8_t> xtc_image_;
};

TEST_F(MolSessionTest, AddfileRequiresMolecule) {
  MolSession session(ada_.get());
  EXPECT_FALSE(session.mol_addfile("/mnt/bar.xtc").is_ok());
}

TEST_F(MolSessionTest, PlainXtcLoad) {
  MolSession session;
  ASSERT_TRUE(session.mol_new_file(root_ + "/foo.pdb").is_ok());
  ASSERT_TRUE(session.mol_addfile(root_ + "/plain.xtc").is_ok());
  EXPECT_EQ(session.frames().frame_count(), 3u);
  EXPECT_EQ(session.loaded_selection().count(), system_.atom_count());
  // The decompress phase was profiled (the Fig. 8 hot spot).
  EXPECT_GT(session.profiler().seconds_under("vmd;load;decompress"), 0.0);
}

TEST_F(MolSessionTest, TaggedLoadViaAda) {
  MolSession session(ada_.get());
  ASSERT_TRUE(session.mol_new_file(root_ + "/foo.pdb").is_ok());
  ASSERT_TRUE(session.mol_addfile("/mnt/bar.xtc", core::Tag("p")).is_ok());
  EXPECT_EQ(session.frames().frame_count(), 3u);
  EXPECT_EQ(session.loaded_selection().count(),
            system_.count_category(chem::Category::kProtein));
  // No decompression happened on the "compute node".
  EXPECT_DOUBLE_EQ(session.profiler().seconds_under("vmd;load;decompress"), 0.0);
}

TEST_F(MolSessionTest, AdaAllReconstructsFullFrames) {
  MolSession session(ada_.get());
  ASSERT_TRUE(session.mol_new_file(root_ + "/foo.pdb").is_ok());
  ASSERT_TRUE(session.mol_addfile("/mnt/bar.xtc").is_ok());  // no tag: ADA(all)
  ASSERT_EQ(session.frames().frame_count(), 3u);
  EXPECT_EQ(session.loaded_selection().count(), system_.atom_count());
  // Reconstructed frames must match direct decompression of the source.
  const auto direct = formats::read_all_xtc(xtc_image_).value();
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(session.frames().frame(f).coords, direct[f].coords) << "frame " << f;
    EXPECT_EQ(session.frames().frame(f).step, direct[f].step);
  }
}

TEST_F(MolSessionTest, TaggedLoadWithoutAdaFails) {
  MolSession session;  // no middleware
  ASSERT_TRUE(session.mol_new_file(root_ + "/foo.pdb").is_ok());
  EXPECT_FALSE(session.mol_addfile(root_ + "/plain.xtc", core::Tag("p")).is_ok());
}

TEST_F(MolSessionTest, RenderLoadedSubset) {
  MolSession session(ada_.get());
  ASSERT_TRUE(session.mol_new_file(root_ + "/foo.pdb").is_ok());
  ASSERT_TRUE(session.mol_addfile("/mnt/bar.xtc", core::Tag("p")).is_ok());
  RenderOptions options;
  options.width = 48;
  options.height = 48;
  const auto result = session.render(0, options).value();
  EXPECT_EQ(result.stats.atoms, system_.count_category(chem::Category::kProtein));
  EXPECT_FALSE(session.render(99).is_ok());
}

TEST_F(MolSessionTest, CommandInterpreterEndToEnd) {
  MolSession session(ada_.get());
  CommandInterpreter interpreter(session);
  ASSERT_TRUE(interpreter.execute("mol new " + root_ + "/foo.pdb").is_ok());
  const auto loaded = interpreter.execute("mol addfile /mnt/bar.xtc tag p");
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_NE(loaded.value().find("tag p"), std::string::npos);
  ASSERT_TRUE(interpreter.execute("animate goto 2").is_ok());
  EXPECT_EQ(interpreter.current_frame(), 2u);
  EXPECT_FALSE(interpreter.execute("animate goto 99").is_ok());
  const std::string out = root_ + "/snap.ppm";
  ASSERT_TRUE(interpreter.execute("render snapshot " + out).is_ok());
  EXPECT_TRUE(fs::exists(out));
  EXPECT_TRUE(interpreter.execute("mol info").is_ok());
  EXPECT_FALSE(interpreter.execute("bogus command").is_ok());
  EXPECT_TRUE(interpreter.execute("").is_ok());
}

TEST_F(MolSessionTest, AtomselectAndMeasureCommands) {
  MolSession session(ada_.get());
  CommandInterpreter interpreter(session);
  // Pre-molecule: both commands refuse.
  EXPECT_FALSE(interpreter.execute("atomselect protein").is_ok());
  ASSERT_TRUE(interpreter.execute("mol new " + root_ + "/foo.pdb").is_ok());
  EXPECT_FALSE(interpreter.execute("measure rgyr").is_ok());  // no frames yet
  ASSERT_TRUE(interpreter.execute("mol addfile /mnt/bar.xtc tag p").is_ok());

  const auto selected = interpreter.execute("atomselect protein and backbone").value();
  EXPECT_NE(selected.find("atoms selected"), std::string::npos);
  // Water is not part of the loaded protein subset.
  const auto water = interpreter.execute("atomselect water").value();
  EXPECT_NE(water.find("(0 in the loaded subset)"), std::string::npos);
  EXPECT_FALSE(interpreter.execute("atomselect").is_ok());
  EXPECT_FALSE(interpreter.execute("atomselect bogus keyword").is_ok());

  EXPECT_NE(interpreter.execute("measure rgyr").value().find("Rgyr ="), std::string::npos);
  EXPECT_NE(interpreter.execute("measure rmsd 0 2").value().find("aligned RMSD"),
            std::string::npos);
  EXPECT_FALSE(interpreter.execute("measure rmsd 0 99").is_ok());
  EXPECT_FALSE(interpreter.execute("measure bogus").is_ok());
}

TEST(LogicalNameTest, BasenameExtraction) {
  EXPECT_EQ(logical_name_of("/mnt/bar.xtc"), "bar.xtc");
  EXPECT_EQ(logical_name_of("bar.xtc"), "bar.xtc");
  EXPECT_EQ(logical_name_of("/a/b/c/d.pdb"), "d.pdb");
}

}  // namespace
}  // namespace ada::vmd
