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
  // The container is live-streaming from its first image: watermark 0, not
  // sealed.  Readers clamp to the watermark instead of treating the
  // half-written container as batch data.
  ADA_RETURN_IF_ERROR(dispatcher.mount().create_container(logical_name, plfs::StreamState{}));
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
  const plfs::FrameSpan chunk{state_.sealed_frames, frames_in_chunk_};
  std::vector<std::vector<std::uint8_t>> images;
  images.reserve(writers_.size());
  for (auto& [tag, writer] : writers_) images.push_back(writer.finish());
  std::vector<Blob> blobs;
  for (const auto& [tag, writer] : writers_) {
    blobs.push_back(Blob{tag, images[blobs.size()], chunk});
  }
  // Publish: every tag's extent for this chunk plus the watermark advanced
  // over them, in one index image.  A crash before it leaves only orphan
  // droppings; readers never see part of a chunk.
  plfs::StreamState next = state_;
  next.sealed_frames += frames_in_chunk_;
  ++next.sealed_chunks;
  ADA_RETURN_IF_ERROR(dispatcher_->publish(logical_name_, blobs, next).status());
  state_ = next;
  std::uint64_t chunk_bytes = 0;
  for (const Blob& blob : blobs) {
    chunk_bytes += blob.bytes.size();
    subset_bytes_[blob.tag] += blob.bytes.size();
    if (obs::enabled()) {
      obs::Registry::global().counter("stream.bytes." + blob.tag).add(blob.bytes.size());
    }
  }
  if (obs::enabled()) {
    obs::Registry::global().gauge("stream.sealed_frames").set(
        static_cast<double>(state_.sealed_frames));
  }
  live_chunks_.push_back(ChunkInfo{chunk.base, chunk.count, chunk_bytes});
  live_bytes_ += chunk_bytes;
  ++chunks_;
  reset_writers();
  return apply_retention();
}

Status IngestStream::apply_retention() {
  if (retain_bytes_ == 0) return Status::ok();
  // Drop the oldest sealed chunks until the live window fits the budget; the
  // newest chunk always survives so the stream never goes dark.
  plfs::StreamState next = state_;
  while (live_bytes_ > retain_bytes_ && live_chunks_.size() > 1) {
    const ChunkInfo& oldest = live_chunks_.front();
    next.floor_frames = oldest.first_frame + oldest.frames;
    ++next.retention_drops;
    live_bytes_ -= oldest.bytes;
    live_chunks_.pop_front();
  }
  if (next == state_) return Status::ok();

  // One publication: the index without the dropped chunks' records plus the
  // raised floor.  The droppings are unlinked only after it, so no published
  // record ever names a missing dropping (a failed unlink leaves an orphan
  // for fsck).
  plfs::PlfsMount& mount = dispatcher_->mount();
  ADA_ASSIGN_OR_RETURN(plfs::Index index, mount.read_index(logical_name_));
  std::vector<plfs::IndexRecord> drop;
  std::erase_if(index.records, [&](const plfs::IndexRecord& r) {
    const bool below = r.has_frame_span() && r.frame_base + r.frame_count <= next.floor_frames;
    if (below) drop.push_back(r);
    return below;
  });
  index.stream = next;
  ADA_RETURN_IF_ERROR(mount.rewrite_index(logical_name_, index));
  ADA_OBS_COUNT("stream.retention_drops", next.retention_drops - state_.retention_drops);
  state_ = next;
  for (const plfs::IndexRecord& r : drop) {
    std::error_code ec;
    std::filesystem::remove(mount.dropping_host_path(r.backend, logical_name_, r.dropping), ec);
  }
  return Status::ok();
}

Result<StreamReport> IngestStream::finish() {
  if (finished_ || dispatcher_ == nullptr) {
    return failed_precondition("stream already finished or moved-from");
  }
  ADA_RETURN_IF_ERROR(flush_chunk());
  // One publication: the label file plus the seal (the watermark stops
  // moving and --follow loops terminate).
  const std::string label_text = encode_label_file(labels_);
  const Blob label{kLabelFileTag,
                   std::span(reinterpret_cast<const std::uint8_t*>(label_text.data()),
                             label_text.size()),
                   std::nullopt};
  plfs::StreamState sealed = state_;
  sealed.sealed = true;
  ADA_RETURN_IF_ERROR(dispatcher_->publish(logical_name_, std::span(&label, 1), sealed).status());
  state_ = sealed;
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
