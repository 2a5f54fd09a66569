// Frame store: mini-VMD's in-memory trajectory, with memory accounting.
//
// VMD holds decoded frames as an array in DRAM; that array is what blows
// past the fat node's 1 TB in the paper's Section 4.3.  The store charges
// every frame to an optional MemoryTracker so scenario pipelines observe
// exactly the allocation pattern the paper describes.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "storage/memory.hpp"

namespace ada::vmd {

class FrameStore {
 public:
  /// `memory` may be null (no accounting); `label` names this store's
  /// charges in the tracker.
  explicit FrameStore(storage::MemoryTracker* memory = nullptr,
                      std::string label = "frame_store");
  ~FrameStore();

  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;
  FrameStore(FrameStore&&) = delete;
  FrameStore& operator=(FrameStore&&) = delete;

  /// Append a frame; fails (without storing) if the tracker reports OOM.
  Status add_frame(formats::TrajFrame frame);

  std::size_t frame_count() const noexcept { return frames_.size(); }
  const formats::TrajFrame& frame(std::size_t i) const { return frames_.at(i); }

  /// Atom count of the stored trajectory (0 when empty).
  std::uint32_t atom_count() const noexcept {
    return frames_.empty() ? 0 : frames_.front().atom_count();
  }

  /// Total charged bytes (coordinate payload + per-frame header).
  double bytes() const noexcept { return charged_bytes_; }

  /// Drop all frames and release their memory.
  void clear();

 private:
  static double frame_bytes(const formats::TrajFrame& frame) noexcept {
    // The frame's RAW on-disk footprint (what the paper calls raw data in
    // memory): float coords plus the frame metadata.
    return static_cast<double>(formats::raw_frame_bytes(frame.atom_count()));
  }

  std::vector<formats::TrajFrame> frames_;
  storage::MemoryTracker* memory_;
  std::string label_;
  double charged_bytes_ = 0.0;
};

}  // namespace ada::vmd
