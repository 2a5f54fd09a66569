// Tests for the PLFS container layer: index codec (v1/v2/v3), container
// lifecycle, multi-backend droppings, extent checksums, and the
// fault-injected retry paths.  Reads go through the one CRC-verified read
// path that remains, the ADA I/O retriever over Indexer::locate.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "ada/indexer.hpp"
#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/crc32c.hpp"
#include "common/faults.hpp"
#include "formats/raw_traj.hpp"
#include "plfs/container.hpp"
#include "plfs/fsck.hpp"
#include "plfs/plfs.hpp"
#include "test_util.hpp"

namespace ada::plfs {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// A batch container's index: records, no stream state.
Index index_of(std::vector<IndexRecord> records) { return Index{std::move(records), std::nullopt}; }

// --- index codec -----------------------------------------------------------------

TEST(IndexCodecTest, RoundTrip) {
  std::vector<IndexRecord> records = {
      {0, 100, 0, "p", "dropping.p.0", 0},
      {100, 50, 1, "m", "dropping.m.1", 0},
      {150, 7, 0, "", "dropping.data.2", 32},
  };
  const auto image = encode_index(index_of(records));
  const auto decoded = decode_index(image).value();
  EXPECT_EQ(decoded.records, records);
  EXPECT_FALSE(decoded.stream.has_value());
}

TEST(IndexCodecTest, EmptyIndex) {
  const auto image = encode_index({});
  EXPECT_TRUE(decode_index(image).value().records.empty());
}

TEST(IndexCodecTest, BadMagicRejected) {
  auto image = encode_index({});
  image[0] = 'X';
  EXPECT_FALSE(decode_index(image).is_ok());
}

TEST(IndexCodecTest, TrailingGarbageRejected) {
  auto image = encode_index(index_of({{0, 1, 0, "p", "d", 0}}));
  image.push_back(0xff);
  EXPECT_FALSE(decode_index(image).is_ok());
}

TEST(IndexCodecTest, TruncationRejected) {
  const auto image = encode_index(index_of({{0, 1, 0, "p", "d", 0}}));
  EXPECT_FALSE(decode_index(std::span(image).subspan(0, image.size() - 3)).is_ok());
}

TEST(IndexCodecTest, LogicalSizeAndCompleteness) {
  std::vector<IndexRecord> records = {{0, 100, 0, "p", "a", 0}, {100, 50, 1, "m", "b", 0}};
  EXPECT_EQ(logical_size(records), 150u);
  EXPECT_TRUE(is_complete(records));
  records.push_back({200, 10, 0, "p", "c", 0});  // hole at [150,200)
  EXPECT_FALSE(is_complete(records));
  std::vector<IndexRecord> overlapping = {{0, 100, 0, "p", "a", 0}, {50, 100, 1, "m", "b", 0}};
  EXPECT_FALSE(is_complete(overlapping));
  // Retention deletes the lowest records: tiling then starts at the first.
  std::vector<IndexRecord> retained = {{100, 50, 1, "m", "b", 0}, {150, 50, 0, "p", "c", 0}};
  EXPECT_FALSE(is_complete(retained));
  EXPECT_TRUE(is_complete(retained, /*from_first=*/true));
}

TEST(IndexCodecTest, V2RoundTripsChecksums) {
  IndexRecord checked = {0, 5, 0, "p", "d0", 0};
  checked.set_checksum(0xDEADBEEF);
  const IndexRecord unchecked = {5, 3, 1, "m", "d1", 0};  // no checksum flag
  const auto decoded = decode_index(encode_index(index_of({checked, unchecked}))).value().records;
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].has_checksum());
  EXPECT_EQ(decoded[0].crc32c, 0xDEADBEEFu);
  EXPECT_FALSE(decoded[1].has_checksum());
}

TEST(IndexCodecTest, StoredShapeRoundTripsAndNeedsASpan) {
  // A RAW record's shape: frame span plus atom count (flag 0x08), 4 bytes
  // more than the span alone.  A record written before atom counts were
  // stored keeps its span and decodes without one.
  IndexRecord spanned = {0, 16 + 8 * (44 + 12 * 5), 0, "p", "dropping.p.0", 0};
  spanned.set_checksum(0x1234u);
  spanned.set_frame_span(FrameSpan{0, 8});
  IndexRecord shaped = spanned;
  shaped.set_frame_span(FrameSpan{0, 8, 5});
  ASSERT_TRUE(shaped.has_atom_count());
  EXPECT_EQ(shaped.flags, IndexRecord::kHasChecksum | IndexRecord::kHasFrameSpan |
                              IndexRecord::kHasAtomCount);
  EXPECT_EQ(encode_index(index_of({shaped})).size(),
            encode_index(index_of({spanned})).size() + 4);
  const auto decoded = decode_index(encode_index(index_of({shaped, spanned}))).value().records;
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], shaped);
  EXPECT_EQ(decoded[0].atom_count, 5u);
  EXPECT_EQ(decoded[1], spanned);
  EXPECT_FALSE(decoded[1].has_atom_count());

  // An atom count without a span describes no frames: the image is corrupt.
  IndexRecord unspanned = {0, 16, 0, "p", "dropping.p.0", 0};
  unspanned.flags = IndexRecord::kHasAtomCount;
  unspanned.atom_count = 5;
  const auto rejected = decode_index(encode_index(index_of({unspanned})));
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kCorruptData);
}

TEST(IndexCodecTest, LegacyV1ImageDecodesWithoutChecksums) {
  // Hand-build a "PLFSIDX1" image: the pre-checksum record layout.
  ByteWriter w;
  const std::uint8_t magic[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '1'};
  w.put_bytes(magic);
  w.put_u32_le(1);
  w.put_u64_le(0);          // logical_offset
  w.put_u64_le(11);         // length
  w.put_u32_le(1);          // backend
  w.put_string_le("p");     // label
  w.put_string_le("d.p.0"); // dropping
  w.put_u64_le(0);          // physical_offset
  const auto decoded = decode_index(w.take()).value().records;
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].length, 11u);
  EXPECT_EQ(decoded[0].dropping, "d.p.0");
  EXPECT_FALSE(decoded[0].has_checksum()) << "v1 records carry no checksum";
}

// A v2 ("PLFSIDX2") record as the pre-v3 writer laid it out: checksum, flags,
// then the optional u64 frame table (0x02) and frame base (0x04).
struct V2Record {
  std::uint64_t length = 0;
  std::vector<std::uint64_t> table;  // written iff has_table
  bool has_table = false;
  bool has_base = false;
  std::uint64_t base = 0;
  std::uint32_t count = 0;
};

std::vector<std::uint8_t> v2_image(const std::vector<V2Record>& records) {
  ByteWriter w;
  const std::uint8_t magic[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '2'};
  w.put_bytes(magic);
  w.put_u32_le(static_cast<std::uint32_t>(records.size()));
  std::uint64_t offset = 0;
  for (const V2Record& r : records) {
    w.put_u64_le(offset);
    w.put_u64_le(r.length);
    w.put_u32_le(0);
    w.put_string_le("p");
    w.put_string_le("dropping.p." + std::to_string(offset));
    w.put_u64_le(0);
    w.put_u32_le(0xC0FFEE);
    w.put_u8(static_cast<std::uint8_t>(0x01 | (r.has_table ? 0x02 : 0) | (r.has_base ? 0x04 : 0)));
    if (r.has_table) {
      w.put_u32_le(static_cast<std::uint32_t>(r.table.size()));
      for (const std::uint64_t off : r.table) w.put_u64_le(off);
    }
    if (r.has_base) {
      w.put_u64_le(r.base);
      w.put_u32_le(r.count);
    }
    offset += r.length;
  }
  return w.take();
}

TEST(IndexCodecTest, V2FrameTablesAreSkipped) {
  // A v2 frame table is read past, whatever it says: a record keeps exactly
  // the span its 0x04 flag stated, and no record has an atom count (fsck
  // --repair rebuilds the shapes from the extents).
  constexpr std::uint64_t kFrame = 44 + 12 * 5;  // a 5-atom RAW frame
  const std::uint64_t length = 16 + 3 * kFrame;
  const std::vector<std::uint64_t> arithmetic = {16, 16 + kFrame, 16 + 2 * kFrame};
  const auto index = decode_index(v2_image({
                                     {length, arithmetic, true, false, 0, 0},
                                     {length, {16, 20, 16 + 2 * kFrame}, true, false, 0, 0},
                                     {length, {16, 16 + kFrame}, true, false, 0, 0},
                                     {length, arithmetic, true, true, 6, 3},
                                     {length, {}, false, true, 9, 3},
                                     {16, {}, true, false, 0, 0},
                                 }))
                         .value();
  ASSERT_EQ(index.records.size(), 6u);
  EXPECT_FALSE(index.stream.has_value());
  const auto span_of = [&](std::size_t i) {
    const IndexRecord& r = index.records[i];
    EXPECT_TRUE(r.has_checksum()) << i;
    EXPECT_FALSE(r.has_atom_count()) << i;
    return r.has_frame_span() ? std::optional<std::pair<std::uint64_t, std::uint32_t>>(
                                    {r.frame_base, r.frame_count})
                              : std::nullopt;
  };
  using Span = std::pair<std::uint64_t, std::uint32_t>;
  EXPECT_EQ(span_of(0), std::nullopt) << "an arithmetic batch table is no span";
  EXPECT_EQ(span_of(1), std::nullopt) << "a lying table leaves no span";
  EXPECT_EQ(span_of(2), std::nullopt) << "a truncated table leaves no span";
  EXPECT_EQ(span_of(3), Span(6, 3)) << "a streamed record keeps its frame base";
  EXPECT_EQ(span_of(4), Span(9, 3)) << "a table-less streamed record keeps its span";
  EXPECT_EQ(span_of(5), std::nullopt) << "an empty table is no span";

  // Re-encoding writes v3: the spans round-trip, the tables are gone.
  const auto image = encode_index(index);
  EXPECT_FALSE(is_legacy_index(image));
  EXPECT_EQ(decode_index(image).value(), index);

  // A table count past the bytes present fails before any allocation.
  auto lying = v2_image({{length, {}, true, false, 0, 0}});
  ByteWriter count;
  count.put_u32_le(0xFFFFFFFFu);
  const auto count_bytes = count.take();
  std::copy(count_bytes.begin(), count_bytes.end(), lying.end() - 4);
  const auto refused = decode_index(lying);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kCorruptData);
}

TEST(IndexCodecTest, V2TruncationsFailCleanly) {
  const auto image = v2_image({{16 + 2 * 56, {16, 72}, true, true, 0, 2}});
  ASSERT_TRUE(is_legacy_index(image));
  for (std::size_t len = 0; len < image.size(); ++len) {
    const auto r = decode_index(std::span(image.data(), len));
    ASSERT_FALSE(r.is_ok()) << len;
    EXPECT_EQ(r.error().code(), ErrorCode::kCorruptData) << len;
  }
}

// --- mount ------------------------------------------------------------------------

class PlfsMountTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = test::unique_temp_dir("plfs_test");
    fs::remove_all(root_);
    mount_ = std::make_unique<PlfsMount>(
        PlfsMount::open({{"ssd-fs", root_ + "/mnt1"}, {"hdd-fs", root_ + "/mnt2"}}).value());
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Every dropping carrying `label`, in logical order: the indexer's
  /// locations fetched by the I/O retriever (retried, CRC-verified).
  Result<std::vector<std::uint8_t>> read_tag(const std::string& logical_name,
                                             const std::string& label) const {
    ADA_ASSIGN_OR_RETURN(const auto locations, core::Indexer(*mount_).locate(logical_name, label));
    return core::IoRetriever(*mount_).retrieve(locations);
  }

  /// A one-extent publication (the single-extent case of PlfsMount::append).
  Result<IndexRecord> append(const std::string& logical_name, const std::string& label,
                             std::uint32_t backend, std::span<const std::uint8_t> bytes) {
    ADA_ASSIGN_OR_RETURN(auto records,
                         mount_->append(logical_name, {Extent{label, backend, bytes, {}}}));
    return records.front();
  }

  std::string root_;
  std::unique_ptr<PlfsMount> mount_;
};

TEST_F(PlfsMountTest, OpenCreatesBackendRoots) {
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt1"));
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt2"));
  EXPECT_EQ(mount_->backend_count(), 2u);
}

TEST_F(PlfsMountTest, OpenRejectsEmptyBackendList) {
  EXPECT_FALSE(PlfsMount::open({}).is_ok());
}

TEST_F(PlfsMountTest, ContainerLifecycle) {
  EXPECT_FALSE(mount_->container_exists("bar"));
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  EXPECT_TRUE(mount_->container_exists("bar"));
  // Container directories exist on both backends (paper Fig. 6 layout).
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt1/bar"));
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt2/bar"));
  // Double create is AlreadyExists.
  const Status again = mount_->create_container("bar");
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(mount_->remove_container("bar").is_ok());
  EXPECT_FALSE(mount_->container_exists("bar"));
}

TEST_F(PlfsMountTest, BadLogicalNamesRejected) {
  EXPECT_FALSE(mount_->create_container("").is_ok());
  EXPECT_FALSE(mount_->create_container("a/b").is_ok());
  EXPECT_FALSE(mount_->create_container("..").is_ok());
}

TEST_F(PlfsMountTest, AppendPlacesDroppingOnChosenBackend) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto r1 = append("bar", "p", 0, bytes_of("protein-data")).value();
  const auto r2 = append("bar", "m", 1, bytes_of("misc")).value();
  EXPECT_EQ(r1.logical_offset, 0u);
  EXPECT_EQ(r2.logical_offset, 12u);
  EXPECT_TRUE(fs::exists(root_ + "/mnt1/bar/" + r1.dropping));
  EXPECT_TRUE(fs::exists(root_ + "/mnt2/bar/" + r2.dropping));
  EXPECT_FALSE(fs::exists(root_ + "/mnt2/bar/" + r1.dropping));
}

TEST_F(PlfsMountTest, RetrieveReassemblesAcrossBackends) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("hello ")).is_ok());
  ASSERT_TRUE(append("bar", "m", 1, bytes_of("plfs ")).is_ok());
  ASSERT_TRUE(append("bar", "p", 1, bytes_of("world")).is_ok());
  const auto locations = core::Indexer(*mount_).locate("bar", "p").value();
  ASSERT_EQ(locations.size(), 2u);
  EXPECT_EQ(locations[0].backend, 0u);
  EXPECT_EQ(locations[1].backend, 1u);
  const auto p = core::IoRetriever(*mount_).retrieve(locations).value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "hello world");
}

TEST_F(PlfsMountTest, ReadLabelFiltersSubsets) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("AAA")).is_ok());
  ASSERT_TRUE(append("bar", "m", 1, bytes_of("BBB")).is_ok());
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("CCC")).is_ok());
  const auto p = read_tag("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "AAACCC");
  const auto m = read_tag("bar", "m").value();
  EXPECT_EQ(std::string(m.begin(), m.end()), "BBB");
  const auto none = read_tag("bar", "zzz");
  ASSERT_FALSE(none.is_ok());
  EXPECT_EQ(none.error().code(), ErrorCode::kNotFound);
}

TEST_F(PlfsMountTest, LabelSize) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("12345")).is_ok());
  ASSERT_TRUE(append("bar", "p", 1, bytes_of("678")).is_ok());
  EXPECT_EQ(mount_->label_size("bar", "p").value(), 8u);
  EXPECT_EQ(mount_->label_size("bar", "m").value(), 0u);
}

TEST_F(PlfsMountTest, AppendToMissingContainerFails) {
  EXPECT_FALSE(append("nope", "p", 0, bytes_of("x")).is_ok());
}

TEST_F(PlfsMountTest, AppendToBadBackendFails) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  EXPECT_FALSE(append("bar", "p", 7, bytes_of("x")).is_ok());
}

TEST_F(PlfsMountTest, ListContainers) {
  ASSERT_TRUE(mount_->create_container("zeta").is_ok());
  ASSERT_TRUE(mount_->create_container("alpha").is_ok());
  const auto names = mount_->list_containers().value();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
}

TEST_F(PlfsMountTest, MissingDroppingDetectedOnRead) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto record = append("bar", "p", 0, bytes_of("payload")).value();
  fs::remove(root_ + "/mnt1/bar/" + record.dropping);
  EXPECT_FALSE(read_tag("bar", "p").is_ok());
}

TEST_F(PlfsMountTest, EmptyContainerReadsEmpty) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  EXPECT_TRUE(mount_->read_index("bar").value().records.empty());
  const auto none = read_tag("bar", "p");
  ASSERT_FALSE(none.is_ok());
  EXPECT_EQ(none.error().code(), ErrorCode::kNotFound);
}

TEST_F(PlfsMountTest, LegacyStreamContainerIsRefused) {
  // A v2 container beside its old stream-state file: the v2 index does not
  // mark the unsealed tail, so serving it as batch data would be wrong.
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const std::string dir = root_ + "/mnt1/bar/";
  ASSERT_TRUE(write_file(dir + "index.plfs", v2_image({{7, {}, false, false, 0, 0}})).is_ok());
  ASSERT_EQ(mount_->read_index("bar").value().records.size(), 1u);  // v2 batch: fine
  ASSERT_TRUE(write_file(dir + "stream.plfs", bytes_of("ADASTRM1")).is_ok());
  const auto refused = mount_->read_index("bar");
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(append("bar", "p", 0, bytes_of("x")).is_ok()) << "appended past a refused index";
}

// --- fsck over stored shapes -----------------------------------------------------

TEST_F(PlfsMountTest, FsckRebuildsShapesFromRawHeaders) {
  // Per label, in logical order, each RAW extent's shape is its header's
  // frames and atoms from the label's running base.  fsck lists a record
  // that states another shape, a RAW record that states none, and a span on
  // an extent that is no RAW image; one repair rebuilds each from its
  // extent, and a second changes nothing.
  const auto raw = [](std::uint32_t atoms, std::uint32_t frames) {
    formats::RawTrajWriter writer(atoms);
    const std::vector<float> coords(std::size_t{3} * atoms, 1.5f);
    for (std::uint32_t f = 0; f < frames; ++f) {
      ADA_CHECK(writer.add_frame(f, 0.0f, chem::Box{}, coords).is_ok());
    }
    return writer.finish();
  };
  const auto two = raw(3, 2);
  const auto one = raw(3, 1);
  const auto misc = raw(4, 2);
  const auto text = bytes_of("no RAW image");
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(mount_
                  ->append("bar", {Extent{"p", 0, two, FrameSpan{0, 2, 3}},
                                   Extent{"p", 0, one, FrameSpan{5, 1, 3}},  // base should be 2
                                   Extent{"m", 1, misc, std::nullopt},       // no shape
                                   Extent{"x", 1, text, FrameSpan{0, 4, 9}}})
                  .is_ok());
  const Index written = mount_->read_index("bar").value();

  const auto report = verify_container(*mount_, "bar").value();
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.wrong_shapes.size(), 2u);  // in label order: "p", then "x"
  EXPECT_EQ(report.wrong_shapes[0].record, written.records[1]);
  ASSERT_TRUE(report.wrong_shapes[0].shape.has_value());
  EXPECT_EQ(report.wrong_shapes[0].shape->base, 2u);
  EXPECT_EQ(report.wrong_shapes[1].record, written.records[3]);
  EXPECT_EQ(report.wrong_shapes[1].shape, std::nullopt);
  ASSERT_EQ(report.shapeless_records.size(), 1u);
  EXPECT_EQ(report.shapeless_records[0].record, written.records[2]);

  const auto actions = repair_container(*mount_, "bar").value();
  EXPECT_EQ(actions.shapes_rebuilt, 3u);
  EXPECT_EQ(actions.records_dropped, 0u);
  const Index repaired = mount_->read_index("bar").value();
  EXPECT_EQ(repaired.records[0], written.records[0]);
  EXPECT_EQ(repaired.records[1].frame_base, 2u);
  EXPECT_EQ(repaired.records[1].frame_count, 1u);
  EXPECT_EQ(repaired.records[2].frame_count, 2u);
  EXPECT_EQ(repaired.records[2].atom_count, 4u);
  EXPECT_TRUE(repaired.records[2].has_atom_count());
  EXPECT_FALSE(repaired.records[3].has_frame_span());
  EXPECT_FALSE(repaired.records[3].has_atom_count());
  EXPECT_TRUE(verify_container(*mount_, "bar").value().clean());
  const auto again = repair_container(*mount_, "bar").value();
  EXPECT_EQ(again.shapes_rebuilt, 0u);
  EXPECT_EQ(mount_->read_index("bar").value(), repaired);
}

// --- extent checksums --------------------------------------------------------------

TEST_F(PlfsMountTest, AppendStoresExtentChecksum) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto payload = bytes_of("checksummed payload");
  ASSERT_TRUE(append("bar", "p", 0, payload).is_ok());
  const auto records = mount_->read_index("bar").value().records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].has_checksum());
  EXPECT_EQ(records[0].crc32c, crc32c(payload.data(), payload.size()));
}

TEST_F(PlfsMountTest, BitFlipOnDiskCaughtByRead) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto record = append("bar", "p", 0, bytes_of("precious bytes")).value();
  const std::string path = root_ + "/mnt1/bar/" + record.dropping;
  auto bytes = read_file(path).value();
  bytes[3] ^= 0x08;  // length unchanged: only the checksum can see this
  ASSERT_TRUE(write_file(path, bytes).is_ok());

  const auto read = read_tag("bar", "p");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
  const auto location = core::Indexer(*mount_).locate("bar", "p").value().at(0);
  const auto extent = core::IoRetriever(*mount_).retrieve_extent(location);
  ASSERT_FALSE(extent.is_ok());
  EXPECT_EQ(extent.error().code(), ErrorCode::kCorruptData);
}

// --- fault injection + retries -----------------------------------------------------

TEST_F(PlfsMountTest, TornWriteReportsSuccessButReadCatchesIt) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  // The torn write itself MUST report success -- that is the failure mode
  // being modeled (silent short write).  The read side is the detector.
  const fault::ScopedFault torn("plfs.write_dropping", fault::Schedule::torn_write(0.5, 1));
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("0123456789abcdef")).is_ok());
  const auto read = read_tag("bar", "p");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
}

TEST_F(PlfsMountTest, CorruptReadNeverServesBadBytes) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto payload = bytes_of("the one true payload");
  ASSERT_TRUE(append("bar", "p", 0, payload).is_ok());
  // An in-flight corruption on every read attempt: the checksum must turn
  // it into a typed error, not silently different bytes.
  const fault::ScopedFault corrupt("plfs.read_dropping",
                                   []() {
                                     fault::Schedule s = fault::Schedule::corrupt_read(1);
                                     s.trigger = fault::Schedule::Trigger::kAlways;
                                     return s;
                                   }());
  const auto read = read_tag("bar", "p");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
}

TEST_F(PlfsMountTest, WriteRetriesThroughTransientFault) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const fault::ScopedFault flaky("plfs.write_dropping", fault::Schedule::fail_nth(1));
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("survives a retry")).is_ok());
  EXPECT_EQ(fault::Injector::global().hits("plfs.write_dropping"), 2u);
  const auto p = read_tag("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "survives a retry");
}

TEST_F(PlfsMountTest, ReadRetriesThroughTransientFault) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("flaky read")).is_ok());
  const fault::ScopedFault flaky("plfs.read_dropping", fault::Schedule::fail_nth(1));
  const auto p = read_tag("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "flaky read");
  EXPECT_EQ(fault::Injector::global().fired("plfs.read_dropping"), 1u);
}

TEST_F(PlfsMountTest, RetryExhaustionSurfacesTypedError) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 1e-4;
  mount_->set_retry_policy(fast);
  const fault::ScopedFault down("plfs.write_dropping", fault::Schedule::down_window(1, 100));
  const auto result = append("bar", "p", 0, bytes_of("never lands"));
  ASSERT_FALSE(result.is_ok());
  // down: windows inject kUnavailable (a down server) -- transient, so the
  // retry loop runs to exhaustion and surfaces the last injected error.
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(fault::Injector::global().hits("plfs.write_dropping"), 2u);
}

TEST_F(PlfsMountTest, FailedIndexWriteLeavesOldIndexIntact) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(append("bar", "p", 0, bytes_of("first")).is_ok());
  {
    // Crash-before-rename on the next index update: the append fails, the
    // previous index generation stays readable (atomic tmp+rename).
    const fault::ScopedFault crash("plfs.write_index", fault::Schedule::fail_nth(1));
    EXPECT_FALSE(append("bar", "m", 1, bytes_of("second")).is_ok());
  }
  const auto records = mount_->read_index("bar").value().records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label, "p");
  const auto p = read_tag("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "first");
}

// --- overflow-safe extent bounds ---------------------------------------------------
//
// A corrupt index record must never steer a read outside its dropping: the
// bounds check [physical_offset, +length) against the file size is done
// without u64 overflow and before any buffer is sized from `length`.

constexpr std::uint64_t kWrappingOffset = std::numeric_limits<std::uint64_t>::max() - 7;
constexpr std::uint64_t kHugeLength = std::uint64_t{1} << 62;

class ExtentBoundsTest : public PlfsMountTest {
 protected:
  /// A 100-byte dropping whose "p" record is then forged to [offset, +length);
  /// `checksummed` false forges a v1 (no-CRC) record.
  void forge(std::uint64_t offset, std::uint64_t length, bool checksummed) {
    ASSERT_TRUE(mount_->create_container("bar").is_ok());
    ASSERT_TRUE(append("bar", "p", 0, std::vector<std::uint8_t>(100, 0x5A)).is_ok());
    auto index = mount_->read_index("bar").value();
    IndexRecord& record = index.records[0];
    record.physical_offset = offset;
    record.length = length;
    if (!checksummed) record.flags &= static_cast<std::uint8_t>(~IndexRecord::kHasChecksum);
    ASSERT_TRUE(mount_->rewrite_index("bar", index).is_ok());
  }

  void expect_corrupt_on_every_read() {
    const auto location = core::Indexer(*mount_).locate("bar", "p").value().at(0);
    const auto extent = core::IoRetriever(*mount_).retrieve_extent(location);
    ASSERT_FALSE(extent.is_ok()) << extent.value().size() << " stray bytes served";
    EXPECT_EQ(extent.error().code(), ErrorCode::kCorruptData);
    const auto subset = read_tag("bar", "p");
    ASSERT_FALSE(subset.is_ok());
    EXPECT_EQ(subset.error().code(), ErrorCode::kCorruptData);
  }

  void expect_fsck_broken() {
    const auto report = verify_container(*mount_, "bar").value();
    ASSERT_EQ(report.broken_records.size(), 1u);
    EXPECT_TRUE(report.checksum_bad_records.empty());
    EXPECT_FALSE(report.clean());
  }
};

TEST_F(ExtentBoundsTest, OverflowWrappingOffsetIsCorruptOnRead) {
  ASSERT_NO_FATAL_FAILURE(forge(kWrappingOffset, 16, /*checksummed=*/false));
  expect_corrupt_on_every_read();
}

TEST_F(ExtentBoundsTest, OverflowWrappingOffsetWithChecksumIsCorruptOnRead) {
  ASSERT_NO_FATAL_FAILURE(forge(kWrappingOffset, 16, /*checksummed=*/true));
  expect_corrupt_on_every_read();
}

TEST_F(ExtentBoundsTest, OverflowHugeLengthIsCorruptWithoutAllocating) {
  // An allocation of 2^62 bytes would abort the test binary: the check must
  // run before the buffer is sized.
  ASSERT_NO_FATAL_FAILURE(forge(0, kHugeLength, /*checksummed=*/true));
  expect_corrupt_on_every_read();
}

TEST_F(ExtentBoundsTest, OverflowHugeLengthInMultiExtentSubsetIsCorrupt) {
  // The multi-extent image is preallocated from the index: a forged length
  // must not size it.
  ASSERT_NO_FATAL_FAILURE(forge(0, kHugeLength, /*checksummed=*/true));
  ASSERT_TRUE(append("bar", "p", 1, bytes_of("second extent")).is_ok());
  const auto locations = core::Indexer(*mount_).locate("bar", "p").value();
  ASSERT_EQ(locations.size(), 2u);
  const auto subset = core::IoRetriever(*mount_).retrieve(locations);
  ASSERT_FALSE(subset.is_ok());
  EXPECT_EQ(subset.error().code(), ErrorCode::kCorruptData);
}

TEST_F(ExtentBoundsTest, OverflowFsckFlagsWrappingOffsetAsBroken) {
  ASSERT_NO_FATAL_FAILURE(forge(kWrappingOffset, 16, /*checksummed=*/false));
  expect_fsck_broken();
}

TEST_F(ExtentBoundsTest, OverflowFsckFlagsWrappingChecksummedOffsetAsBroken) {
  ASSERT_NO_FATAL_FAILURE(forge(kWrappingOffset, 16, /*checksummed=*/true));
  expect_fsck_broken();
}

TEST_F(ExtentBoundsTest, OverflowFsckFlagsHugeLengthAsBroken) {
  ASSERT_NO_FATAL_FAILURE(forge(0, kHugeLength, /*checksummed=*/true));
  expect_fsck_broken();
}

TEST_F(ExtentBoundsTest, InteriorExtentIsReadAndCheckedAlone) {
  // The retriever and fsck read exactly [offset, +length) of a dropping:
  // the bytes around it are neither served nor checksummed.
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto record = append("bar", "p", 0, bytes_of("0123456789")).value();
  auto index = mount_->read_index("bar").value();
  index.records[0].physical_offset = 2;
  index.records[0].length = 5;
  index.records[0].set_checksum(crc32c(bytes_of("23456")));
  ASSERT_TRUE(mount_->rewrite_index("bar", index).is_ok());
  EXPECT_TRUE(verify_container(*mount_, "bar").value().checksum_bad_records.empty());
  const auto p = read_tag("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "23456");
  const std::string path = root_ + "/mnt1/bar/" + record.dropping;
  auto bytes = read_file(path).value();
  bytes[4] ^= 0x01;  // inside the extent
  ASSERT_TRUE(write_file(path, bytes).is_ok());
  EXPECT_EQ(verify_container(*mount_, "bar").value().checksum_bad_records.size(), 1u);
}

}  // namespace
}  // namespace ada::plfs
