#include "ada/preprocessor.hpp"

#include <algorithm>
#include <atomic>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::core {

namespace {

/// First frame of every range the split decodes.  One range when the
/// budget is one; otherwise more ranges than workers, claimed one at a
/// time from a shared counter, so frames whose coordinate blocks decode
/// unevenly still spread over the slots.  Ranges may only begin at
/// self-contained frames (any v1 frame, or a v2 keyframe): a predicted
/// frame can't be the first one a worker decodes.
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

/// split()'s sink: every tag's final RAW image, sized once from the frame
/// count; frame f of a tag has its slot at raw_file_bytes(atoms, f) whichever
/// range decodes it, and that slot is the frame's record, so there are no
/// per-range images, no gather and no merge.
class ImageSink final : public FrameSink {
 public:
  explicit ImageSink(const LabelMap& labels) : labels_(labels) {}

  Status open(std::uint32_t frames, std::size_t slots) override {
    targets_.reserve(labels_.groups.size());
    for (const auto& [tag, selection] : labels_.groups) {
      const auto atoms = static_cast<std::uint32_t>(selection.count());
      auto& image = images_.emplace(tag, formats::make_raw_image(atoms, frames)).first->second;
      targets_.push_back(Target{atoms, image.data()});
    }
    records_.resize(slots * targets_.size());
    return Status::ok();
  }

  std::span<std::uint8_t* const> records(std::size_t slot, std::uint32_t f) override {
    const std::span out(records_.data() + slot * targets_.size(), targets_.size());
    for (std::size_t g = 0; g < targets_.size(); ++g) {
      out[g] = targets_[g].image + formats::raw_file_bytes(targets_[g].atoms, f);
    }
    return out;
  }

  Status frame(std::size_t slot, std::uint32_t /*f*/, const formats::FrameStamp& stamp) override {
    for (std::size_t g = 0; g < targets_.size(); ++g) {
      formats::encode_raw_frame_header(records_[slot * targets_.size() + g], stamp);
    }
    return Status::ok();
  }

  std::map<Tag, std::vector<std::uint8_t>> take() { return std::move(images_); }

 private:
  struct Target {
    std::uint32_t atoms;
    std::uint8_t* image;
  };

  const LabelMap& labels_;
  std::map<Tag, std::vector<std::uint8_t>> images_;
  std::vector<Target> targets_;
  std::vector<std::uint8_t*> records_;  // each slot's current records
};

}  // namespace

DataPreProcessor::DataPreProcessor(LabelMap labels) : labels_(std::move(labels)) {
  ADA_CHECK(labels_.is_partition());
}

Status DataPreProcessor::decode(std::span<const std::uint8_t> xtc_image, FrameSink& sink,
                                PreprocessStats* stats, unsigned threads) const {
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

  // The report (it outlives the call) first, then the sink's buffers, then
  // the decode scratch: nothing that outlives the call is allocated above
  // scratch, so freeing it leaves no hole in the heap.
  if (stats != nullptr) {
    stats->frames = frames;
    stats->atoms = labels_.atom_count;
    stats->compressed_bytes = xtc_image.size();
    stats->subset_bytes.clear();
    stats->subset_atoms.clear();
    for (const auto& [tag, selection] : labels_.groups) {
      const auto atoms = static_cast<std::uint32_t>(selection.count());
      stats->subset_bytes[tag] = formats::raw_file_bytes(atoms, frames);
      stats->subset_atoms[tag] = atoms;
    }
  }
  const unsigned budget = ThreadPool::shared().budget(threads);
  const std::vector<std::uint32_t> starts = range_starts(extents, budget);
  const std::size_t slot_count = std::min<std::size_t>(budget, starts.size());
  ADA_RETURN_IF_ERROR(sink.open(frames, slot_count));

  // Stage 2: decode each frame range on one of the slots -- a reader sized
  // here, on the calling thread, so pool workers allocate nothing -- into
  // the records the sink lends for each frame, and hand the frame to the
  // sink.  A v1 frame's atom runs go straight to their records by the
  // scatter plan; only an image with a v2 frame (or a big-endian host)
  // needs a scratch frame per slot to decode into and gather from.
  std::vector<const chem::Selection*> groups;
  groups.reserve(labels_.groups.size());
  for (const auto& [tag, selection] : labels_.groups) groups.push_back(&selection);
  const std::vector<codec::ScatterRun> plan = formats::raw_scatter_plan(groups);
  const bool scratch = !formats::kRawFloatsNative ||
                       std::any_of(extents.begin(), extents.end(),
                                   [](const formats::XtcFrameExtent& e) { return e.v2; });
  struct Slot {
    formats::XtcReader reader;
    formats::TrajFrame frame;  // its coordinates only on the scratch path
    double decode_seconds = 0.0;  // inside the decode and its scatter or gather only
  };
  std::vector<Slot> slots(slot_count, Slot{formats::XtcReader(xtc_image), {}});
  if (scratch) {
    for (Slot& slot : slots) slot.frame.coords.reserve(std::size_t{3} * labels_.atom_count);
  }

  auto decode_range = [&](std::size_t range, std::size_t slot_index) -> Status {
    Slot& slot = slots[slot_index];
    const std::uint32_t last = range + 1 < starts.size() ? starts[range + 1] : frames;
    slot.reader.seek(extents[starts[range]].offset);
    for (std::uint32_t f = starts[range]; f < last; ++f) {
      const std::span<std::uint8_t* const> records = sink.records(slot_index, f);
      {
        const obs::Span decode_span("decode");
        const Stopwatch decode_clock;
        bool decoded = false;
        if (scratch) {
          ADA_ASSIGN_OR_RETURN(decoded, slot.reader.next(slot.frame));
          decoded = decoded && slot.frame.coords.size() == std::size_t{3} * labels_.atom_count;
          if (decoded) formats::encode_raw_coords(plan, slot.frame.coords, records);
        } else {
          ADA_ASSIGN_OR_RETURN(decoded, slot.reader.next_routed(slot.frame, plan, records));
        }
        slot.decode_seconds += decode_clock.elapsed_seconds();
        if (!decoded) {
          return corrupt_data("frame " + std::to_string(f) + " does not match its scanned extent");
        }
      }
      const obs::Span split_span("split");
      ADA_RETURN_IF_ERROR(sink.frame(slot_index, f, slot.frame));
    }
    return Status::ok();
  };

  double decompress_seconds = 0.0;
  if (slots.size() == 1) {
    ADA_RETURN_IF_ERROR(decode_range(0, 0));
    decompress_seconds = slots.front().decode_seconds;
  } else if (slots.size() > 1) {
    // One pool job per slot, each claiming ranges in frame order from one
    // shared counter.  After a failure none are claimed, but every lower
    // range already was: the first failure in frame order wins, as in a
    // serial decode.
    const Stopwatch fan_out;
    std::vector<Status> statuses(starts.size());
    std::atomic<std::size_t> next_range{0};
    std::atomic<bool> failed{false};
    ThreadPool::shared().run(slots.size(), budget, [&](std::size_t slot_index) {
      while (!failed.load()) {
        const std::size_t range = next_range++;
        if (range >= starts.size()) return;
        const obs::Span range_span("split_range");
        statuses[range] = decode_range(range, slot_index);
        if (!statuses[range].is_ok()) failed = true;
      }
    });
    decompress_seconds = fan_out.elapsed_seconds();
    for (const Status& status : statuses) ADA_RETURN_IF_ERROR(status);
  }
  ADA_OBS_COUNT("ingest.frames", frames);
  if (stats != nullptr) stats->decompress_wall_seconds = decompress_seconds;
  return Status::ok();
}

Result<std::map<Tag, std::vector<std::uint8_t>>> DataPreProcessor::split(
    std::span<const std::uint8_t> xtc_image, PreprocessStats* stats, unsigned threads) const {
  ImageSink sink(labels_);
  ADA_RETURN_IF_ERROR(decode(xtc_image, sink, stats, threads));
  return sink.take();
}

}  // namespace ada::core
