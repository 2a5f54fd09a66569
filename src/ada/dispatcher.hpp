// I/O dispatcher: routes labeled data subsets to backend file systems.
//
// The I/O determinator's write half (paper Section 3.3): "Coupled with the
// tags and target storage path passed from the data pre-processor, the I/O
// dispatcher sends each data subset to an underlying file system."  Built on
// the PLFS container layer; the placement policy is the paper's
// active-on-SSD / inactive-on-HDD rule, made configurable.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>

#include "ada/tag.hpp"
#include "common/result.hpp"
#include "plfs/plfs.hpp"

namespace ada::core {

/// Tag -> backend routing.
struct PlacementPolicy {
  std::map<Tag, std::uint32_t> backend_of_tag;
  std::uint32_t default_backend = 0;

  /// The paper's policy: active data ("p") on the SSD file system,
  /// everything else on the HDD file system.
  static PlacementPolicy active_on_ssd(std::uint32_t ssd_backend, std::uint32_t hdd_backend);

  /// Everything on one backend (ablation baseline).
  static PlacementPolicy single_backend(std::uint32_t backend);

  std::uint32_t backend_for(const Tag& tag) const;
};

/// One labeled blob of a publication.  `span` is set for a streamed chunk
/// (its global frames); a batch blob leaves it unset.
struct Blob {
  Tag tag;
  std::span<const std::uint8_t> bytes;
  std::optional<plfs::FrameSpan> span;
};

class IoDispatcher {
 public:
  /// `frame_tables`: give each batch-dispatched RAW subset its frame span
  /// [0, frames) in the index, enabling the frame-range query fast path.
  /// Reserved labels and non-RAW payloads carry none.  Streamed blobs always
  /// carry their span (readers clamp to the watermark with it).
  IoDispatcher(plfs::PlfsMount& mount, PlacementPolicy policy, bool frame_tables = true)
      : mount_(mount), policy_(std::move(policy)), frame_tables_(frame_tables) {}

  const PlacementPolicy& policy() const noexcept { return policy_; }
  plfs::PlfsMount& mount() noexcept { return mount_; }

  /// Create the container and publish each subset, then `extras` (the label
  /// file, a kept original), to its backend in one index image.
  Status dispatch(const std::string& logical_name,
                  const std::map<Tag, std::vector<std::uint8_t>>& subsets,
                  std::span<const Blob> extras = {});

  /// Publish blobs to an existing container in one index image, with
  /// `stream` as its new stream state when given.
  Result<std::vector<plfs::IndexRecord>> publish(const std::string& logical_name,
                                                 std::span<const Blob> blobs,
                                                 std::optional<plfs::StreamState> stream = {});

  /// publish() of one blob.  A non-null `frame_base` gives it the streamed
  /// span [*frame_base, *frame_base + frame_count); the stream state is left
  /// as it is, so the record stays above the watermark until a
  /// PlfsMount::write_stream_state moves it.
  Result<plfs::IndexRecord> dispatch_one(const std::string& logical_name, const Tag& tag,
                                         std::span<const std::uint8_t> bytes,
                                         const std::uint64_t* frame_base = nullptr,
                                         std::uint32_t frame_count = 0);

 private:
  plfs::PlfsMount& mount_;
  PlacementPolicy policy_;
  bool frame_tables_;
};

}  // namespace ada::core
