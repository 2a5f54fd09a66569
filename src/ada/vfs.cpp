#include "ada/vfs.hpp"

#include <filesystem>
#include <numeric>

#include "common/binary_io.hpp"
#include "common/strings.hpp"
#include "common/parallel.hpp"
#include "formats/pdb.hpp"

namespace ada::core {

namespace {

std::string basename_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool has_extension(const std::string& path, const char* extension) {
  // Extension of the basename only (common/strings.hpp), shared with
  // Ada::should_intercept: a dot in a directory component ("/runs.2026/x")
  // must never be parsed as the extension.
  return to_upper(path_extension(path)) == to_upper(extension);
}

}  // namespace

VfsShim::VfsShim(Ada& ada, std::string passthrough_root)
    : ada_(&ada), passthrough_root_(std::move(passthrough_root)) {
  std::error_code ec;
  std::filesystem::create_directories(passthrough_root_, ec);
  ADA_CHECK(!ec);
}

std::string VfsShim::host_path(const std::string& path) const {
  return passthrough_root_ + "/" + basename_of(path);
}

Status VfsShim::passthrough_write(const std::string& path, std::span<const std::uint8_t> bytes) {
  return write_file(host_path(path), bytes);
}

Result<std::vector<std::uint8_t>> VfsShim::passthrough_read(const std::string& path) const {
  return read_file(host_path(path));
}

Status VfsShim::write(const std::string& path, const std::string& app_id,
                      std::span<const std::uint8_t> bytes) {
  if (!ada_->should_intercept(path, app_id)) {
    return passthrough_write(path, bytes);
  }
  const std::string logical = basename_of(path);

  if (has_extension(path, ".pdb")) {
    // Structure files register the categorization context *and* remain
    // readable as plain files (VMD re-opens them for `mol new`).
    ADA_ASSIGN_OR_RETURN(chem::System system,
                         formats::parse_pdb(std::string(bytes.begin(), bytes.end())));
    structures_[logical] = std::make_shared<const chem::System>(std::move(system));
    current_guide_ = logical;
    return passthrough_write(path, bytes);
  }

  // Trapped trajectory: needs a guiding structure.
  if (current_guide_.empty()) {
    return failed_precondition("no structure registered: write the guiding .pdb first");
  }
  const auto& structure = structures_.at(current_guide_);
  return ada_->ingest(*structure, bytes, logical).status();
}

Result<std::vector<std::uint8_t>> VfsShim::read(const std::string& path,
                                                const std::string& app_id,
                                                const std::optional<Tag>& tag,
                                                const std::optional<FrameRange>& frames) const {
  if (frames.has_value() && !tag.has_value()) {
    return invalid_argument("frame-range read requires a tag: " + path);
  }
  const std::string logical = basename_of(path);
  if (ada_->has_dataset(logical) && ada_->should_intercept(path, app_id)) {
    if (tag.has_value()) {
      return frames.has_value() ? ada_->query(logical, *tag, *frames)
                                : ada_->query(logical, *tag);
    }
    // Untagged read of an ADA dataset: every user subset, in tag order (the
    // ADA(all) retrieval the paper benchmarks).
    ADA_ASSIGN_OR_RETURN(const auto tags, ada_->tags(logical));
    // Per-tag queries run as one batch under AdaConfig::threads (0: the
    // shared pool; 1: inline, in tag order; N: N in flight), each query's
    // piece reads under the same budget -- nested pool batches cannot
    // deadlock because every caller drains its own batch -- then concatenate
    // in tag order.  The first failure in tag order is the error.
    std::vector<Result<std::vector<std::uint8_t>>> subsets(
        tags.size(), Result<std::vector<std::uint8_t>>(internal_error("not executed")));
    std::vector<std::size_t> order(tags.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    run_until_failure(order, ada_->config().threads, [&](std::size_t i) {
      subsets[i] = ada_->query(logical, tags[i]);
      return subsets[i].is_ok();
    });
    // PartialQuery::concat sizes the result from the fetched subsets, so the
    // concatenation never reallocates mid-copy.
    Ada::PartialQuery all;
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (!subsets[i].is_ok()) return subsets[i].error();
      all.subsets.emplace(tags[i], std::move(subsets[i]).value());
    }
    return all.concat();
  }
  if (tag.has_value()) {
    return failed_precondition("tagged read of a non-ADA path: " + path);
  }
  return passthrough_read(path);
}

Result<Ada::PartialQuery> VfsShim::read_degraded(const std::string& path,
                                                 const std::string& app_id) const {
  const std::string logical = basename_of(path);
  if (!ada_->has_dataset(logical) || !ada_->should_intercept(path, app_id)) {
    return failed_precondition("degraded read of a non-ADA path: " + path);
  }
  return ada_->query_degraded(logical);
}

Result<Ada::TailChunk> VfsShim::read_tail(const std::string& path, const std::string& app_id,
                                          const Tag& tag, std::uint64_t from_frame) const {
  const std::string logical = basename_of(path);
  if (!ada_->has_dataset(logical) || !ada_->should_intercept(path, app_id)) {
    return failed_precondition("tail read of a non-ADA path: " + path);
  }
  return ada_->query_tail(logical, tag, from_frame);
}

Status VfsShim::set_guide(const std::string& pdb_logical_name) {
  if (structures_.count(pdb_logical_name) == 0) {
    return not_found("no structure registered as " + pdb_logical_name);
  }
  current_guide_ = pdb_logical_name;
  return Status::ok();
}

std::vector<std::string> VfsShim::registered_structures() const {
  std::vector<std::string> out;
  out.reserve(structures_.size());
  for (const auto& [name, system] : structures_) out.push_back(name);
  return out;
}

}  // namespace ada::core
