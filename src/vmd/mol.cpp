#include "vmd/mol.hpp"

#include <cstring>

#include "common/binary_io.hpp"
#include "common/stopwatch.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/trr_file.hpp"
#include "formats/xtc_file.hpp"

namespace ada::vmd {

std::string logical_name_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

MolSession::MolSession(core::Ada* ada, storage::MemoryTracker* memory)
    : ada_(ada), frames_(memory) {}

const chem::System& MolSession::system() const {
  ADA_CHECK(system_ != nullptr);
  return *system_;
}

Status MolSession::mol_new_text(const std::string& pdb_text) {
  Stopwatch stopwatch;
  ADA_ASSIGN_OR_RETURN(chem::System system, formats::parse_pdb(pdb_text));
  profiler_.add("vmd;load;structure", stopwatch.elapsed_seconds());
  return mol_new_system(std::move(system));
}

Status MolSession::mol_new_file(const std::string& path) {
  ADA_ASSIGN_OR_RETURN(const auto bytes, read_file(path));
  return mol_new_text(std::string(bytes.begin(), bytes.end()));
}

Status MolSession::mol_new_system(chem::System system) {
  system_ = std::make_unique<chem::System>(std::move(system));
  frames_.clear();
  loaded_selection_ = chem::Selection::all(system_->atom_count());
  return Status::ok();
}

Status MolSession::mol_addfile(const std::string& path, const std::optional<core::Tag>& tag) {
  if (system_ == nullptr) {
    return failed_precondition("no molecule loaded: run 'mol new <structure.pdb>' first");
  }
  const std::string logical = logical_name_of(path);
  if (ada_ != nullptr && ada_->has_dataset(logical)) {
    return addfile_via_ada(logical, tag);
  }
  if (tag.has_value()) {
    return failed_precondition("tagged loads need the ADA middleware and an ingested dataset");
  }
  return addfile_host(path);
}

Status MolSession::addfile_via_ada(const std::string& logical_name,
                                   const std::optional<core::Tag>& tag) {
  ADA_ASSIGN_OR_RETURN(const core::LabelMap labels, ada_->labels(logical_name));
  if (labels.atom_count != system_->atom_count()) {
    return failed_precondition("dataset " + logical_name + " was ingested with " +
                               std::to_string(labels.atom_count) + " atoms, molecule has " +
                               std::to_string(system_->atom_count()));
  }

  if (tag.has_value()) {
    // $ mol addfile bar.xtc tag p -- a single tagged subset, already raw.
    ADA_ASSIGN_OR_RETURN(const chem::Selection selection, labels.selection(*tag));
    Stopwatch stopwatch;
    ADA_ASSIGN_OR_RETURN(const auto image, ada_->query(logical_name, *tag));
    profiler_.add("vmd;load;read", stopwatch.elapsed_seconds());
    return load_raw_image(image, selection);
  }

  // ADA (all): retrieve every subset and scatter them back into full frames.
  Stopwatch read_watch;
  std::vector<std::pair<chem::Selection, std::vector<std::uint8_t>>> subsets;
  for (const core::Tag& t : labels.tags()) {
    ADA_ASSIGN_OR_RETURN(auto image, ada_->query(logical_name, t));
    subsets.emplace_back(labels.groups.at(t), std::move(image));
  }
  profiler_.add("vmd;load;read", read_watch.elapsed_seconds());

  Stopwatch merge_watch;
  std::vector<formats::RawTrajCatReader> readers;
  for (auto& [selection, image] : subsets) {
    ADA_ASSIGN_OR_RETURN(auto reader, formats::RawTrajCatReader::open(image));
    if (!readers.empty() && reader.frame_count() != readers.front().frame_count()) {
      return corrupt_data("subsets of " + logical_name + " disagree on frame count");
    }
    readers.push_back(std::move(reader));
  }
  const std::uint32_t frame_count = readers.empty() ? 0 : readers.front().frame_count();
  for (std::uint32_t f = 0; f < frame_count; ++f) {
    formats::TrajFrame merged;
    merged.coords.resize(std::size_t{3} * system_->atom_count());
    for (std::size_t s = 0; s < readers.size(); ++s) {
      ADA_ASSIGN_OR_RETURN(const formats::TrajFrame piece, readers[s].frame(f));
      merged.step = piece.step;
      merged.time_ps = piece.time_ps;
      merged.box = piece.box;
      // Scatter the subset's contiguous coords back to global positions.
      std::size_t cursor = 0;
      for (const chem::Run& run : subsets[s].first.runs()) {
        std::memcpy(&merged.coords[std::size_t{3} * run.begin], &piece.coords[cursor],
                    sizeof(float) * 3 * run.size());
        cursor += std::size_t{3} * run.size();
      }
    }
    ADA_RETURN_IF_ERROR(frames_.add_frame(std::move(merged)));
  }
  profiler_.add("vmd;load;merge", merge_watch.elapsed_seconds());
  loaded_selection_ = chem::Selection::all(system_->atom_count());
  return Status::ok();
}

Status MolSession::addfile_host(const std::string& path) {
  Stopwatch stopwatch;
  ADA_ASSIGN_OR_RETURN(const auto image, read_file(path));
  profiler_.add("vmd;load;read", stopwatch.elapsed_seconds());
  // Sniff the container format.
  if (formats::looks_like_raw(image)) {
    return load_raw_image(image, chem::Selection::all(system_->atom_count()));
  }
  if (formats::looks_like_trr(image)) return load_trr_image(image);
  return load_xtc_image(image);
}

Status MolSession::load_trr_image(std::span<const std::uint8_t> image) {
  Stopwatch stopwatch;
  formats::TrrReader reader(image);
  while (true) {
    ADA_ASSIGN_OR_RETURN(auto frame, reader.next());
    if (!frame.has_value()) break;
    if (frame->atom_count() != system_->atom_count()) {
      return corrupt_data("trr frame has " + std::to_string(frame->atom_count()) +
                          " atoms, molecule has " + std::to_string(system_->atom_count()));
    }
    ADA_RETURN_IF_ERROR(frames_.add_frame(frame->to_traj_frame()));
  }
  // TRR is uncompressed: this is plain frame ingestion, not a decode burst.
  profiler_.add("vmd;load;frames", stopwatch.elapsed_seconds());
  loaded_selection_ = chem::Selection::all(system_->atom_count());
  return Status::ok();
}

Status MolSession::load_raw_image(std::span<const std::uint8_t> image, chem::Selection selection) {
  // Cat reader: tagged subsets may be stored as several chunk droppings.
  ADA_ASSIGN_OR_RETURN(const auto reader, formats::RawTrajCatReader::open(image));
  if (reader.atom_count() != selection.count()) {
    return corrupt_data("raw trajectory atom count " + std::to_string(reader.atom_count()) +
                        " does not match the selection's " + std::to_string(selection.count()));
  }
  Stopwatch stopwatch;
  for (std::uint32_t f = 0; f < reader.frame_count(); ++f) {
    ADA_ASSIGN_OR_RETURN(formats::TrajFrame frame, reader.frame(f));
    ADA_RETURN_IF_ERROR(frames_.add_frame(std::move(frame)));
  }
  profiler_.add("vmd;load;frames", stopwatch.elapsed_seconds());
  loaded_selection_ = std::move(selection);
  return Status::ok();
}

Status MolSession::load_xtc_image(std::span<const std::uint8_t> image) {
  Stopwatch stopwatch;
  formats::XtcReader reader(image);
  std::uint32_t frames = 0;
  while (true) {
    ADA_ASSIGN_OR_RETURN(auto frame, reader.next());
    if (!frame.has_value()) break;
    if (frame->atom_count() != system_->atom_count()) {
      return corrupt_data("xtc frame has " + std::to_string(frame->atom_count()) +
                          " atoms, molecule has " + std::to_string(system_->atom_count()));
    }
    ADA_RETURN_IF_ERROR(frames_.add_frame(std::move(*frame)));
    ++frames;
  }
  // The whole loop is decompression-dominated: this is the repeated
  // pre-processing cost ADA eliminates (paper Fig. 8).
  profiler_.add("vmd;load;decompress", stopwatch.elapsed_seconds());
  loaded_selection_ = chem::Selection::all(system_->atom_count());
  return Status::ok();
}

Result<RenderResult> MolSession::render(std::size_t index, const RenderOptions& options) {
  if (system_ == nullptr) return failed_precondition("no molecule loaded");
  if (index >= frames_.frame_count()) {
    return out_of_range("frame " + std::to_string(index) + " of " +
                        std::to_string(frames_.frame_count()));
  }
  const formats::TrajFrame& frame = frames_.frame(index);
  const auto radii = subset_radii(*system_, loaded_selection_);
  std::vector<chem::Category> categories;
  categories.reserve(radii.size());
  for (const chem::Run& run : loaded_selection_.runs()) {
    for (std::uint32_t i = run.begin; i < run.end; ++i) {
      categories.push_back(system_->category(i));
    }
  }
  Stopwatch stopwatch;
  auto result = render_frame(frame.coords, radii, categories, options);
  // Render-phase CPU accounting happens on success only.
  if (result.is_ok()) profiler_.add("vmd;render", stopwatch.elapsed_seconds());
  return result;
}

}  // namespace ada::vmd
