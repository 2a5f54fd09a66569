#include "ada/ingest_stream.hpp"

#include <filesystem>
#include <utility>
#include <vector>

#include "ada/label_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ada::core {

IngestStream::IngestStream(IngestStream&& other) noexcept
    : dispatcher_(std::exchange(other.dispatcher_, nullptr)),
      labels_(std::move(other.labels_)),
      logical_name_(std::move(other.logical_name_)),
      chunk_frames_(other.chunk_frames_),
      retain_bytes_(other.retain_bytes_),
      writers_(std::move(other.writers_)),
      frames_in_chunk_(other.frames_in_chunk_),
      frames_(other.frames_),
      chunks_(other.chunks_),
      subset_bytes_(std::move(other.subset_bytes_)),
      state_(other.state_),
      live_chunks_(std::move(other.live_chunks_)),
      live_bytes_(other.live_bytes_),
      finished_(other.finished_) {
  other.finished_ = true;  // seal the husk: add_frame/finish now reject it
}

IngestStream::IngestStream(IoDispatcher& dispatcher, LabelMap labels, std::string logical_name,
                           std::uint32_t chunk_frames, std::uint64_t retain_bytes)
    : dispatcher_(&dispatcher),
      labels_(std::move(labels)),
      logical_name_(std::move(logical_name)),
      chunk_frames_(chunk_frames),
      retain_bytes_(retain_bytes) {
  reset_writers();
}

Result<IngestStream> IngestStream::begin(IoDispatcher& dispatcher, LabelMap labels,
                                         std::string logical_name, std::uint32_t chunk_frames,
                                         std::uint64_t retain_bytes) {
  if (!labels.is_partition()) {
    return invalid_argument("label map does not partition the atom range");
  }
  if (chunk_frames == 0) return invalid_argument("chunk_frames must be positive");
  ADA_RETURN_IF_ERROR(dispatcher.mount().create_container(logical_name));
  // Mark the container as live-streaming from the start: watermark 0, not
  // sealed.  Readers now clamp to the watermark instead of treating the
  // half-written container as batch data.
  ADA_RETURN_IF_ERROR(dispatcher.mount().write_stream_state(logical_name, plfs::StreamState{}));
  return IngestStream(dispatcher, std::move(labels), std::move(logical_name), chunk_frames,
                      retain_bytes);
}

void IngestStream::reset_writers() {
  writers_.clear();
  for (const auto& [tag, selection] : labels_.groups) {
    writers_.emplace(tag, formats::RawTrajWriter(static_cast<std::uint32_t>(selection.count())));
  }
  frames_in_chunk_ = 0;
}

Status IngestStream::add_frame(std::uint32_t step, float time_ps, const chem::Box& box,
                               std::span<const float> coords) {
  if (finished_ || dispatcher_ == nullptr) {
    return failed_precondition("stream already finished or moved-from");
  }
  ADA_OBS_COUNT("stream.frames", 1);
  if (coords.size() != std::size_t{3} * labels_.atom_count) {
    return invalid_argument("frame has " + std::to_string(coords.size() / 3) +
                            " atoms, label map expects " + std::to_string(labels_.atom_count));
  }
  // One memcpy per selection run per tag: too little work to pay a pool
  // round-trip on every published frame.
  for (auto& [tag, writer] : writers_) {
    ADA_RETURN_IF_ERROR(writer.add_frame(step, time_ps, box, coords, labels_.groups.at(tag)));
  }
  ++frames_;
  ++frames_in_chunk_;
  if (frames_in_chunk_ >= chunk_frames_) return flush_chunk();
  return Status::ok();
}

Status IngestStream::flush_chunk() {
  if (frames_in_chunk_ == 0) return Status::ok();
  const obs::Span span("stream_flush", logical_name_);
  obs::trace_counter("stream.chunk_frames", frames_in_chunk_);
  ADA_OBS_COUNT("stream.chunks", 1);
  const std::uint64_t first_frame = state_.sealed_frames;
  std::uint64_t chunk_bytes = 0;
  for (auto& [tag, writer] : writers_) {
    const auto image = writer.finish();
    subset_bytes_[tag] += image.size();
    chunk_bytes += image.size();
    if (obs::enabled()) {
      obs::Registry::global().counter("stream.bytes." + tag).add(image.size());
    }
    ADA_RETURN_IF_ERROR(dispatcher_
                            ->dispatch_one(logical_name_, tag, image, &first_frame,
                                           frames_in_chunk_)
                            .status());
  }
  // Publish: every tag's extent for this chunk is durable, so advance the
  // sealed-frame watermark over it.  A crash before this write leaves the
  // new extents indexed but above the watermark -- invisible to readers,
  // which is exactly the open-tail contract.
  state_.sealed_frames += frames_in_chunk_;
  ++state_.sealed_chunks;
  ADA_RETURN_IF_ERROR(dispatcher_->mount().write_stream_state(logical_name_, state_));
  if (obs::enabled()) {
    obs::Registry::global().gauge("stream.sealed_frames").set(
        static_cast<double>(state_.sealed_frames));
  }
  live_chunks_.push_back(ChunkInfo{first_frame, frames_in_chunk_, chunk_bytes});
  live_bytes_ += chunk_bytes;
  ++chunks_;
  reset_writers();
  return apply_retention();
}

Status IngestStream::apply_retention() {
  if (retain_bytes_ == 0) return Status::ok();
  bool dropped = false;
  plfs::PlfsMount& mount = dispatcher_->mount();
  // Drop oldest sealed chunks until the live window fits the budget; the
  // newest chunk always survives so the stream never goes dark.  Order per
  // chunk: rewrite the index without the chunk's records (no record ever
  // references a missing dropping), unlink the droppings (a failed unlink
  // leaves an orphan for fsck), then publish the raised floor.
  while (live_bytes_ > retain_bytes_ && live_chunks_.size() > 1) {
    const ChunkInfo oldest = live_chunks_.front();
    const std::uint64_t new_floor = oldest.first_frame + oldest.frames;
    ADA_ASSIGN_OR_RETURN(auto records, mount.read_index(logical_name_));
    std::vector<plfs::IndexRecord> keep;
    std::vector<plfs::IndexRecord> drop;
    keep.reserve(records.size());
    for (plfs::IndexRecord& r : records) {
      if (r.has_frame_base() && r.frame_base + r.frame_count <= new_floor) {
        drop.push_back(std::move(r));
      } else {
        keep.push_back(std::move(r));
      }
    }
    ADA_RETURN_IF_ERROR(mount.rewrite_index(logical_name_, keep));
    for (const plfs::IndexRecord& r : drop) {
      std::error_code ec;
      std::filesystem::remove(mount.dropping_host_path(r.backend, logical_name_, r.dropping), ec);
    }
    live_bytes_ -= oldest.bytes;
    live_chunks_.pop_front();
    state_.floor_frames = new_floor;
    ++state_.retention_drops;
    ADA_OBS_COUNT("stream.retention_drops", 1);
    dropped = true;
  }
  if (dropped) {
    ADA_RETURN_IF_ERROR(mount.write_stream_state(logical_name_, state_));
  }
  return Status::ok();
}

Result<StreamReport> IngestStream::finish() {
  if (finished_ || dispatcher_ == nullptr) {
    return failed_precondition("stream already finished or moved-from");
  }
  ADA_RETURN_IF_ERROR(flush_chunk());
  const std::string label_text = encode_label_file(labels_);
  ADA_RETURN_IF_ERROR(
      dispatcher_
          ->dispatch_one(logical_name_, kLabelFileTag,
                         std::span(reinterpret_cast<const std::uint8_t*>(label_text.data()),
                                   label_text.size()))
          .status());
  // Seal: the watermark stops moving and --follow loops terminate.
  state_.sealed = true;
  ADA_RETURN_IF_ERROR(dispatcher_->mount().write_stream_state(logical_name_, state_));
  finished_ = true;
  StreamReport report;
  report.logical_name = logical_name_;
  report.frames = frames_;
  report.chunks = chunks_;
  report.subset_bytes = subset_bytes_;
  report.sealed_frames = state_.sealed_frames;
  report.floor_frames = state_.floor_frames;
  report.retention_drops = state_.retention_drops;
  return report;
}

}  // namespace ada::core
