#include "ada/preprocessor.hpp"

#include <atomic>
#include <functional>

#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::core {

namespace {

/// First frame of every range the split decodes.  One range when the
/// budget is one; otherwise more ranges than workers so stealing can
/// rebalance frames whose coordinate blocks decode unevenly.  Ranges may
/// only begin at self-contained frames (any v1 frame, or a v2 keyframe): a
/// predicted frame can't be the first one a worker decodes.
std::vector<std::uint32_t> range_starts(std::span<const formats::XtcFrameExtent> extents,
                                        unsigned budget) {
  const auto frames = static_cast<std::uint32_t>(extents.size());
  if (frames == 0) return {};
  const unsigned workers = static_cast<unsigned>(std::min<std::uint32_t>(budget, frames));
  std::vector<std::uint32_t> starts{0};
  if (workers <= 1) return starts;
  const std::uint32_t range_count = std::min(frames, workers * 4u);
  const std::uint32_t chunk = (frames + range_count - 1) / range_count;
  std::uint32_t next_target = chunk;
  for (std::uint32_t f = 1; f < frames; ++f) {
    if (extents[f].intra && f >= next_target) {
      starts.push_back(f);
      next_target = f + chunk;
    }
  }
  return starts;
}

}  // namespace

DataPreProcessor::DataPreProcessor(LabelMap labels) : labels_(std::move(labels)) {
  ADA_CHECK(labels_.is_partition());
}

Result<std::map<Tag, std::vector<std::uint8_t>>> DataPreProcessor::split(
    std::span<const std::uint8_t> xtc_image, PreprocessStats* stats, unsigned threads) const {
  const obs::Span span("preprocess");

  // Stage 1: header-only boundary scan -- frame extents, no decompression.
  std::vector<formats::XtcFrameExtent> extents;
  {
    const obs::Span scan_span("scan");
    ADA_ASSIGN_OR_RETURN(extents, formats::scan_xtc_extents(xtc_image));
  }
  const auto frames = static_cast<std::uint32_t>(extents.size());
  for (std::uint32_t f = 0; f < frames; ++f) {
    if (extents[f].atom_count != labels_.atom_count) {
      return corrupt_data("frame " + std::to_string(f) + " has " +
                          std::to_string(extents[f].atom_count) + " atoms, label map expects " +
                          std::to_string(labels_.atom_count));
    }
  }

  // Every tag's final RAW image (and its size for the stats), sized once
  // from the scan's frame count.  RAW frames are fixed-size, so frame f of
  // a tag has its slot at raw_file_bytes(atoms, f) whichever range decodes
  // it: no per-range images and no merge.
  struct Target {
    const chem::Selection* selection;
    std::uint32_t atoms;
    std::uint8_t* image;
  };
  std::map<Tag, std::vector<std::uint8_t>> out;
  std::map<Tag, std::uint64_t> subset_bytes;
  std::map<Tag, std::uint64_t> subset_atoms;
  std::vector<Target> targets;
  targets.reserve(labels_.groups.size());
  for (const auto& [tag, selection] : labels_.groups) {
    const auto atoms = static_cast<std::uint32_t>(selection.count());
    auto& image = out.emplace(tag, formats::make_raw_image(atoms, frames)).first->second;
    subset_bytes[tag] = image.size();
    subset_atoms[tag] = atoms;
    targets.push_back(Target{&selection, atoms, image.data()});
  }

  // Stage 2: decode each frame range into one of at most `budget` scratch
  // slots -- a reader and a frame buffer sized here, on the calling thread,
  // so pool workers allocate nothing -- and gather every tag's atom runs
  // into the final images.  Nothing that outlives the call is allocated
  // after the scratch, so freeing it leaves no hole in the heap.
  const unsigned budget = ThreadPool::shared().budget(threads);
  const std::vector<std::uint32_t> starts = range_starts(extents, budget);
  struct Slot {
    formats::XtcReader reader;
    formats::TrajFrame frame;
    double decode_seconds = 0.0;  // inside XtcReader::next only
  };
  std::vector<Slot> slots(std::min<std::size_t>(budget, starts.size()),
                          Slot{formats::XtcReader(xtc_image), {}});
  for (Slot& slot : slots) slot.frame.coords.reserve(std::size_t{3} * labels_.atom_count);

  auto decode_range = [&](std::size_t range, Slot& slot) -> Status {
    const std::uint32_t last = range + 1 < starts.size() ? starts[range + 1] : frames;
    slot.reader.seek(extents[starts[range]].offset);
    for (std::uint32_t f = starts[range]; f < last; ++f) {
      {
        const obs::Span decode_span("decode");
        const Stopwatch decode_clock;
        ADA_ASSIGN_OR_RETURN(const bool decoded, slot.reader.next(slot.frame));
        slot.decode_seconds += decode_clock.elapsed_seconds();
        if (!decoded || slot.frame.coords.size() != std::size_t{3} * labels_.atom_count) {
          return corrupt_data("frame " + std::to_string(f) + " does not match its scanned extent");
        }
      }
      const obs::Span split_span("split");
      const formats::TrajFrame& frame = slot.frame;
      for (const Target& t : targets) {
        formats::encode_raw_frame(t.image + formats::raw_file_bytes(t.atoms, f), frame.step,
                                  frame.time_ps, frame.box, frame.coords, *t.selection);
      }
    }
    return Status::ok();
  };

  double decompress_seconds = 0.0;
  if (slots.size() == 1) {
    ADA_RETURN_IF_ERROR(decode_range(0, slots.front()));
    decompress_seconds = slots.front().decode_seconds;
  } else if (slots.size() > 1) {
    // One pool task per slot, claiming ranges in frame order.  After a
    // failure none are claimed, but every lower range already was: the
    // first failure in frame order wins, as in a serial decode.
    const Stopwatch fan_out;
    std::vector<Status> statuses(starts.size());
    std::atomic<std::size_t> next_range{0};
    std::atomic<bool> failed{false};
    std::vector<std::function<void()>> tasks;
    for (Slot& slot : slots) {
      tasks.push_back([&, slot = &slot] {
        while (!failed.load()) {
          const std::size_t range = next_range++;
          if (range >= starts.size()) return;
          const obs::Span range_span("split_range");
          statuses[range] = decode_range(range, *slot);
          if (!statuses[range].is_ok()) failed = true;
        }
      });
    }
    parallel_run(std::move(tasks), budget);
    decompress_seconds = fan_out.elapsed_seconds();
    for (const Status& status : statuses) ADA_RETURN_IF_ERROR(status);
  }
  ADA_OBS_COUNT("ingest.frames", frames);

  if (stats != nullptr) {
    stats->frames = frames;
    stats->atoms = labels_.atom_count;
    stats->compressed_bytes = xtc_image.size();
    stats->decompress_wall_seconds = decompress_seconds;
    stats->subset_bytes = std::move(subset_bytes);
    stats->subset_atoms = std::move(subset_atoms);
  }
  return out;
}

}  // namespace ada::core
