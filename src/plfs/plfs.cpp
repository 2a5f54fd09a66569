#include "plfs/plfs.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "common/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fs = std::filesystem;

namespace ada::plfs {

namespace {
constexpr const char* kIndexFile = "index.plfs";
// Where a v2 container kept its stream state; read_index refuses a legacy
// container that still holds one.
constexpr const char* kLegacyStreamStateFile = "stream.plfs";
constexpr const char* kQuarantineSuffix = ".quarantined";

// Fault-injection sites (docs/robustness.md).
constexpr const char* kSiteWriteDropping = "plfs.write_dropping";
constexpr const char* kSiteReadDropping = "plfs.read_dropping";
constexpr const char* kSiteWriteIndex = "plfs.write_index";
constexpr const char* kSiteReadIndex = "plfs.read_index";

bool valid_logical_name(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  return name.find('/') == std::string::npos && name.find('\0') == std::string::npos;
}

bool is_quarantined_name(const std::string& name) {
  return name.size() > std::strlen(kQuarantineSuffix) &&
         name.ends_with(kQuarantineSuffix);
}

std::size_t flip_position(std::size_t size, double fraction) {
  if (size == 0) return 0;
  const auto pos = static_cast<std::size_t>(static_cast<double>(size) * fraction);
  return pos < size ? pos : size - 1;
}

/// A corrupt outcome flips one byte of `bytes` (a simulated media error the
/// extent's stored CRC must catch); every other outcome leaves them alone.
void damage(const fault::Outcome& outcome, std::span<std::uint8_t> bytes) {
  if (outcome.kind == fault::Outcome::Kind::kCorrupt && !bytes.empty()) {
    bytes[flip_position(bytes.size(), outcome.fraction)] ^= 0x01;
  }
}

/// Write one dropping file under the write_dropping fault site.  Torn and
/// corrupt outcomes REPORT SUCCESS -- that is the point: the stored CRC is
/// computed over the intended bytes, so the damage is caught on read.
Status write_dropping_bytes(const std::string& path, std::span<const std::uint8_t> bytes) {
  const fault::Outcome outcome = fault::hit(kSiteWriteDropping);
  switch (outcome.kind) {
    case fault::Outcome::Kind::kError:
      return outcome.to_error(kSiteWriteDropping);
    case fault::Outcome::Kind::kDelay:
      std::this_thread::sleep_for(std::chrono::duration<double>(outcome.delay_seconds));
      break;
    case fault::Outcome::Kind::kTorn: {
      const auto keep = static_cast<std::size_t>(
          static_cast<double>(bytes.size()) * outcome.fraction);
      return write_file(path, bytes.subspan(0, keep));
    }
    case fault::Outcome::Kind::kCorrupt: {
      std::vector<std::uint8_t> damaged(bytes.begin(), bytes.end());
      damage(outcome, damaged);
      return write_file(path, damaged);
    }
    case fault::Outcome::Kind::kNone:
      break;
  }
  return write_file(path, bytes);
}

/// Enter the read_dropping fault site: an injected error is returned, a
/// delay is slept; the outcome is returned so a corrupt one can damage the
/// bytes once they are read.
Result<fault::Outcome> enter_read_site() {
  const fault::Outcome outcome = fault::hit(kSiteReadDropping);
  if (outcome.kind == fault::Outcome::Kind::kError) {
    return outcome.to_error(kSiteReadDropping);
  }
  if (outcome.kind == fault::Outcome::Kind::kDelay) {
    std::this_thread::sleep_for(std::chrono::duration<double>(outcome.delay_seconds));
  }
  return outcome;
}

/// Overflow-safe: does [offset, offset + length) lie inside `size` bytes?
bool fits(std::uint64_t size, std::uint64_t offset, std::uint64_t length) {
  return offset <= size && length <= size - offset;
}

/// One past the highest dropping ordinal in use.  NOT records.size():
/// retention and repair shrink the index, and a size-derived name would then
/// collide with (and overwrite) a live chunk's dropping.
std::uint64_t next_ordinal(const std::vector<IndexRecord>& records) {
  std::uint64_t ordinal = 0;
  for (const IndexRecord& r : records) {
    const auto dot = r.dropping.rfind('.');
    if (dot == std::string::npos) continue;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(r.dropping.c_str() + dot + 1, &end, 10);
    if (end != nullptr && *end == '\0') ordinal = std::max<std::uint64_t>(ordinal, n + 1);
  }
  return ordinal;
}

/// A file descriptor closed on scope exit.
struct ScopedFd {
  explicit ScopedFd(int descriptor) : fd(descriptor) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  const int fd;
};

}  // namespace

Result<std::vector<std::uint8_t>> read_dropping_file(const std::string& path) {
  ADA_ASSIGN_OR_RETURN(const fault::Outcome outcome, enter_read_site());
  ADA_ASSIGN_OR_RETURN(auto data, read_file(path));
  damage(outcome, data);
  return data;
}

bool extent_fits(const std::string& path, std::uint64_t offset, std::uint64_t length) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 &&
         fits(static_cast<std::uint64_t>(st.st_size), offset, length);
}

Result<std::span<std::uint8_t>> read_extent(const std::string& path, std::uint64_t offset,
                                            std::uint64_t length, const ExtentSink& sink) {
  const ScopedFd file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.fd < 0) return not_found("cannot open " + path);
  struct stat st {};
  if (::fstat(file.fd, &st) != 0) return io_error("fstat failed on " + path);
  if (!fits(static_cast<std::uint64_t>(st.st_size), offset, length)) {
    return corrupt_data("dropping " + path + " size mismatch");
  }
  const std::span<std::uint8_t> out = sink();
  if (out.size() != length) return internal_error("extent buffer of the wrong size for " + path);
  for (std::uint64_t done = 0; done < length;) {
    const ssize_t got = ::pread(file.fd, out.data() + done, length - done,
                                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return io_error("short read on " + path);
    done += static_cast<std::uint64_t>(got);
  }
  return out;
}

Result<std::span<std::uint8_t>> read_dropping_extent(const std::string& path,
                                                     std::uint64_t offset, std::uint64_t length,
                                                     const ExtentSink& sink) {
  ADA_ASSIGN_OR_RETURN(const fault::Outcome outcome, enter_read_site());
  ADA_ASSIGN_OR_RETURN(const auto extent, read_extent(path, offset, length, sink));
  damage(outcome, extent);
  return extent;
}

Result<PlfsMount> PlfsMount::open(std::vector<Backend> backends) {
  if (backends.empty()) return invalid_argument("plfs mount needs at least one backend");
  for (const Backend& backend : backends) {
    if (backend.host_root.empty()) return invalid_argument("backend has empty host root");
    std::error_code ec;
    fs::create_directories(backend.host_root, ec);
    if (ec) return io_error("cannot create backend root " + backend.host_root + ": " + ec.message());
  }
  return PlfsMount(std::move(backends));
}

std::string PlfsMount::container_dir(std::uint32_t backend_id,
                                     const std::string& logical_name) const {
  return backends_.at(backend_id).host_root + "/" + logical_name;
}

std::string PlfsMount::index_path(const std::string& logical_name) const {
  return container_dir(0, logical_name) + "/" + kIndexFile;
}

Status PlfsMount::create_container(const std::string& logical_name,
                                   std::optional<StreamState> stream) {
  if (!valid_logical_name(logical_name)) {
    return invalid_argument("bad logical name: " + logical_name);
  }
  if (container_exists(logical_name)) {
    return already_exists("container " + logical_name + " already exists");
  }
  for (std::uint32_t b = 0; b < backend_count(); ++b) {
    std::error_code ec;
    fs::create_directories(container_dir(b, logical_name), ec);
    if (ec) return io_error("cannot create container dir on backend " + backends_[b].name);
  }
  return write_index(logical_name, Index{{}, stream});
}

bool PlfsMount::container_exists(const std::string& logical_name) const {
  return valid_logical_name(logical_name) && fs::exists(index_path(logical_name));
}

void PlfsMount::bump_generation(const std::string& logical_name) const {
  const std::lock_guard<std::mutex> lock(clock_->mutex);
  ++clock_->generation[logical_name];
}

std::uint64_t PlfsMount::mutation_generation(const std::string& logical_name) const {
  const std::lock_guard<std::mutex> lock(clock_->mutex);
  const auto it = clock_->generation.find(logical_name);
  return it == clock_->generation.end() ? 0 : it->second;
}

void PlfsMount::bump_rewrite_generation(const std::string& logical_name) const {
  const std::lock_guard<std::mutex> lock(clock_->mutex);
  ++clock_->rewrite[logical_name];
}

std::uint64_t PlfsMount::rewrite_generation(const std::string& logical_name) const {
  const std::lock_guard<std::mutex> lock(clock_->mutex);
  const auto it = clock_->rewrite.find(logical_name);
  return it == clock_->rewrite.end() ? 0 : it->second;
}

Status PlfsMount::write_stream_state(const std::string& logical_name,
                                     const StreamState& state) {
  ADA_ASSIGN_OR_RETURN(Index index, read_index(logical_name));
  index.stream = state;
  return write_index(logical_name, index);
}

Status PlfsMount::write_index(const std::string& logical_name, const Index& index) const {
  // Bump first: if the write fails (or tears before the atomic rename) the
  // container is treated as mutated anyway -- caches re-read instead of
  // trusting entries recorded before the attempt.
  bump_generation(logical_name);
  // The index is replaced atomically (tmp + rename); an injected fault here
  // models a crash before the rename, so readers keep the previous index.
  ADA_RETURN_IF_ERROR(fault::check(kSiteWriteIndex));
  return write_file_atomic(index_path(logical_name), encode_index(index));
}

Result<Index> PlfsMount::read_index(const std::string& logical_name) const {
  if (!container_exists(logical_name)) {
    return not_found("container " + logical_name + " does not exist");
  }
  ADA_RETURN_IF_ERROR(fault::check(kSiteReadIndex));
  ADA_ASSIGN_OR_RETURN(const auto image, read_file(index_path(logical_name)));
  if (is_legacy_index(image) &&
      fs::exists(container_dir(0, logical_name) + "/" + kLegacyStreamStateFile)) {
    return failed_precondition("container " + logical_name +
                               " is a legacy stream: its open tail is not marked in the "
                               "index; re-ingest it");
  }
  return decode_index(image);
}

Result<std::vector<IndexRecord>> PlfsMount::append(const std::string& logical_name,
                                                   const std::vector<Extent>& extents,
                                                   std::optional<StreamState> stream) {
  for (const Extent& extent : extents) {
    if (extent.backend >= backend_count()) {
      return invalid_argument("backend " + std::to_string(extent.backend) + " out of range");
    }
  }
  const obs::Span span("plfs_append", logical_name);
  ADA_OBS_COUNT("plfs.append.calls", 1);
  ADA_ASSIGN_OR_RETURN(Index index, read_index(logical_name));

  std::uint64_t ordinal = next_ordinal(index.records);
  std::uint64_t offset = logical_size(index.records);
  std::vector<IndexRecord> added;
  added.reserve(extents.size());
  for (const Extent& extent : extents) {
    ADA_OBS_COUNT("plfs.append.bytes", extent.bytes.size());
    if (obs::enabled()) {
      obs::Registry::global()
          .counter("plfs.append.bytes." + backends_[extent.backend].name)
          .add(extent.bytes.size());
    }
    IndexRecord record;
    record.logical_offset = offset;
    record.length = extent.bytes.size();
    record.backend = extent.backend;
    record.label = extent.label;
    record.dropping = "dropping." + (extent.label.empty() ? std::string("data") : extent.label) +
                      "." + std::to_string(ordinal++);
    record.physical_offset = 0;  // one dropping file per extent
    {
      const obs::Span crc_span("crc");
      record.set_checksum(crc32c(extent.bytes.data(), extent.bytes.size()));
    }
    if (extent.span.has_value()) record.set_frame_span(*extent.span);
    const std::string path = container_dir(extent.backend, logical_name) + "/" + record.dropping;
    {
      const obs::Span write_span("dropping_write");
      ADA_RETURN_IF_ERROR(retry_sync("plfs_write_dropping", retry_policy_, [&] {
        return write_dropping_bytes(path, extent.bytes);
      }));
    }
    offset += record.length;
    added.push_back(std::move(record));
  }
  index.records.insert(index.records.end(), added.begin(), added.end());
  if (stream.has_value()) index.stream = stream;
  const obs::Span index_span("index_write");
  ADA_RETURN_IF_ERROR(write_index(logical_name, index));
  return added;
}

Result<std::uint64_t> PlfsMount::label_size(const std::string& logical_name,
                                            const std::string& label) const {
  ADA_ASSIGN_OR_RETURN(const Index index, read_index(logical_name));
  std::uint64_t total = 0;
  for (const IndexRecord& record : index.records) {
    if (record.label == label) total += record.length;
  }
  return total;
}

Status PlfsMount::remove_container(const std::string& logical_name) {
  if (!container_exists(logical_name)) {
    return not_found("container " + logical_name + " does not exist");
  }
  bump_generation(logical_name);
  bump_rewrite_generation(logical_name);
  for (std::uint32_t b = 0; b < backend_count(); ++b) {
    std::error_code ec;
    fs::remove_all(container_dir(b, logical_name), ec);
    if (ec) return io_error("cannot remove container on backend " + backends_[b].name);
  }
  return Status::ok();
}

Status PlfsMount::replace_container(const std::string& from, const std::string& to) {
  if (!valid_logical_name(to)) return invalid_argument("bad logical name: " + to);
  if (!container_exists(from)) {
    return not_found("staging container " + from + " does not exist");
  }
  bump_generation(from);
  bump_generation(to);
  bump_rewrite_generation(from);
  bump_rewrite_generation(to);
  for (std::uint32_t b = 0; b < backend_count(); ++b) {
    std::error_code ec;
    fs::remove_all(container_dir(b, to), ec);
    if (ec) return io_error("cannot remove old container on backend " + backends_[b].name);
    fs::rename(container_dir(b, from), container_dir(b, to), ec);
    if (ec) {
      return io_error("cannot swap container into place on backend " + backends_[b].name +
                      ": " + ec.message());
    }
  }
  return Status::ok();
}

std::string PlfsMount::dropping_host_path(std::uint32_t backend_id,
                                          const std::string& logical_name,
                                          const std::string& dropping) const {
  return container_dir(backend_id, logical_name) + "/" + dropping;
}

Result<std::vector<std::string>> PlfsMount::list_dropping_files(
    std::uint32_t backend_id, const std::string& logical_name) const {
  if (backend_id >= backend_count()) return invalid_argument("backend out of range");
  std::vector<std::string> out;
  std::error_code ec;
  const std::string dir = container_dir(backend_id, logical_name);
  if (!fs::is_directory(dir)) return out;  // backend never got this container
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kIndexFile || is_quarantined_name(name)) continue;
    out.push_back(name);
  }
  if (ec) return io_error("cannot list " + dir + ": " + ec.message());
  std::sort(out.begin(), out.end());
  return out;
}

Status PlfsMount::rewrite_index(const std::string& logical_name, const Index& index) {
  if (!container_exists(logical_name)) {
    return not_found("container " + logical_name + " does not exist");
  }
  // Wholesale index replacement (repair, retention) can rewrite history:
  // fence frame-block cache entries too, not just whole-subset entries.
  bump_rewrite_generation(logical_name);
  return write_index(logical_name, index);
}

Result<std::vector<std::string>> PlfsMount::list_containers() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(backends_[0].host_root, ec)) {
    if (entry.is_directory() && fs::exists(entry.path() / kIndexFile)) {
      out.push_back(entry.path().filename().string());
    }
  }
  if (ec) return io_error("cannot list " + backends_[0].host_root + ": " + ec.message());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ada::plfs
