#include "ada/preprocessor.hpp"

#include <atomic>
#include <functional>

#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "obs/events.hpp"
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
  const obs::ScopedTimer span("preprocess");
  const obs::TraceSpan trace("preprocess");

  // Stage 1: header-only boundary scan -- frame extents, no decompression.
  std::vector<formats::XtcFrameExtent> extents;
  {
    const obs::ScopedTimer scan_span("scan");
    const obs::TraceSpan scan_trace("scan");
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

  // Stage 2: decode each frame range and gather every tag's atoms straight
  // into that range's per-tag RAW images, reserved once from the scan's
  // frame count.  One range runs on the calling thread; more fan out to
  // the pool.
  const unsigned budget = threads != 0 ? threads : ThreadPool::shared().worker_count() + 1;
  const std::vector<std::uint32_t> starts = range_starts(extents, budget);
  struct RangeShard {
    std::uint32_t first = 0;
    std::uint32_t last = 0;  // exclusive
    std::map<Tag, formats::RawTrajWriter> writers;
    double decode_seconds = 0.0;  // inside XtcReader::next only
    double busy_seconds = 0.0;    // the whole range: decode + gather
    Status status;
  };
  std::vector<RangeShard> shards(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    RangeShard& shard = shards[i];
    shard.first = starts[i];
    shard.last = i + 1 < starts.size() ? starts[i + 1] : frames;
    for (const auto& [tag, selection] : labels_.groups) {
      formats::RawTrajWriter writer(static_cast<std::uint32_t>(selection.count()));
      writer.reserve_frames(shard.last - shard.first);
      shard.writers.emplace(tag, std::move(writer));
    }
  }

  auto run_range = [&](RangeShard& shard) -> Status {
    const Stopwatch busy;
    std::span<const std::uint8_t> range_image;  // empty for an empty image
    if (shard.first < shard.last) {
      const std::size_t begin = extents[shard.first].offset;
      const auto& last = extents[shard.last - 1];
      range_image = xtc_image.subspan(begin, last.offset + last.size - begin);
    }
    formats::XtcReader reader(range_image);
    std::uint32_t f = shard.first;
    while (true) {
      std::optional<formats::TrajFrame> frame;
      {
        const obs::ScopedTimer decode_span("decode");
        const obs::TraceSpan decode_trace("decode");
        const Stopwatch decode_clock;
        ADA_ASSIGN_OR_RETURN(frame, reader.next());
        shard.decode_seconds += decode_clock.elapsed_seconds();
      }
      if (!frame.has_value()) break;
      const obs::ScopedTimer split_span("split");
      const obs::TraceSpan split_trace("split");
      for (auto& [tag, writer] : shard.writers) {
        ADA_RETURN_IF_ERROR(writer.add_frame(frame->step, frame->time_ps, frame->box,
                                             frame->coords, labels_.groups.at(tag)));
      }
      ++f;
    }
    if (f != shard.last) {
      return corrupt_data("decoded " + std::to_string(f - shard.first) + " frames of range [" +
                          std::to_string(shard.first) + ", " + std::to_string(shard.last) + ")");
    }
    shard.busy_seconds = busy.elapsed_seconds();
    return Status::ok();
  };

  double decompress_seconds = 0.0;
  if (shards.size() == 1) {
    ADA_RETURN_IF_ERROR(run_range(shards.front()));
    decompress_seconds = shards.front().decode_seconds;
  } else {
    const Stopwatch fan_out;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards.size());
    for (auto& shard : shards) {
      tasks.push_back([&run_range, &shard] {
        const obs::ScopedTimer range_span("split_range");
        const obs::TraceSpan range_trace("split_range");
        shard.status = run_range(shard);
      });
    }
    parallel_run(std::move(tasks), threads);
    decompress_seconds = fan_out.elapsed_seconds();
    // First failure in frame order wins, mirroring a serial decode.
    double busy_seconds = 0.0;
    for (const auto& shard : shards) {
      ADA_RETURN_IF_ERROR(shard.status);
      busy_seconds += shard.busy_seconds;
    }
    ADA_OBS_COUNT("preprocess.ranges", shards.size());
    ADA_OBS_COUNT("preprocess.decode_busy_ns", static_cast<std::uint64_t>(busy_seconds * 1e9));
  }
  ADA_OBS_COUNT("ingest.frames", frames);

  // Stage 3: one range's images are final; several are concatenated in
  // range order (ordered merge), byte-identical to one serial writer.
  std::map<Tag, std::vector<std::uint8_t>> out;
  if (shards.size() == 1) {
    for (auto& [tag, writer] : shards.front().writers) out.emplace(tag, writer.finish());
  } else {
    const obs::ScopedTimer merge_span("merge");
    const obs::TraceSpan merge_trace("merge");
    const Stopwatch merge_busy;
    for (const auto& [tag, selection] : labels_.groups) {
      std::vector<std::vector<std::uint8_t>> images;
      images.reserve(shards.size());
      for (auto& shard : shards) images.push_back(shard.writers.at(tag).finish());
      ADA_ASSIGN_OR_RETURN(
          auto merged,
          formats::merge_raw_images(static_cast<std::uint32_t>(selection.count()), images));
      out.emplace(tag, std::move(merged));
    }
    ADA_OBS_COUNT("preprocess.merge_busy_ns", merge_busy.elapsed_seconds() * 1e9);
  }

  if (stats != nullptr) {
    stats->frames = frames;
    stats->atoms = labels_.atom_count;
    stats->compressed_bytes = xtc_image.size();
    stats->decompress_wall_seconds = decompress_seconds;
    stats->subset_bytes.clear();
    stats->subset_atoms.clear();
    for (const auto& [tag, image] : out) {
      stats->subset_bytes[tag] = image.size();
      stats->subset_atoms[tag] = labels_.groups.at(tag).count();
    }
  }
  return out;
}

}  // namespace ada::core
