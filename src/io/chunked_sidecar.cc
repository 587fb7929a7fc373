#include "io/chunked_sidecar.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "io/binary_format.h"  // kEndianTag / kEndianTagSwapped

namespace uclust::io {

namespace {

constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();

uint64_t Get64(const unsigned char* header, std::size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, header + offset, sizeof(v));
  return v;
}

void Put64(unsigned char* header, std::size_t offset, uint64_t v) {
  std::memcpy(header + offset, &v, sizeof(v));
}

uint64_t RowWidth(const SidecarLayout& layout, const SidecarInfo& info) {
  return layout.row_width_field >= 0
             ? info.fields[static_cast<std::size_t>(layout.row_width_field)]
             : layout.row_width;
}

uint64_t NextStoreSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Validates the header of the file open as `fd`; `path` names it in errors.
common::Result<SidecarInfo> ValidateHeader(const SidecarLayout& layout,
                                           int fd, const std::string& path) {
  auto corrupt = [&](const std::string& msg) {
    return common::Status::IOError(path + ": " + msg);
  };
  struct stat st;
  if (::fstat(fd, &st) != 0) return corrupt("cannot determine file size");
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  const std::string kind = layout.kind;
  if (file_size < layout.header_bytes) {
    return corrupt("file too short for a " + kind + "-sidecar header");
  }
  std::vector<unsigned char> header(layout.header_bytes);
  UCLUST_RETURN_NOT_OK(ReadExact(fd, path, 0, header.size(), header.data()));
  if (std::memcmp(header.data(), layout.magic, sizeof(layout.magic)) != 0) {
    return corrupt("bad magic (not a uclust " + kind + " sidecar)");
  }
  uint32_t endian = 0, version = 0;
  std::memcpy(&endian, header.data() + 8, sizeof(endian));
  std::memcpy(&version, header.data() + 12, sizeof(version));
  if (endian == kEndianTagSwapped) {
    return corrupt("sidecar was written on an opposite-endian machine");
  }
  if (endian != kEndianTag) {
    return corrupt("bad endianness canary (corrupt header)");
  }
  if (version == 0 || version > layout.version) {
    return corrupt("unsupported " + kind + "-format version " +
                   std::to_string(version) + " (reader supports up to " +
                   std::to_string(layout.version) + ")");
  }
  const uint64_t n = Get64(header.data(), 16);
  const uint64_t m = Get64(header.data(), 24);
  const uint64_t chunk_rows = Get64(header.data(), layout.chunk_rows_offset);
  if (m == 0) return corrupt("header declares zero dimensions");
  SidecarInfo info;
  for (std::size_t f = 0; f < layout.num_fields; ++f) {
    const SidecarField& field = layout.fields[f];
    info.fields[f] = Get64(header.data(), field.offset);
    if (info.fields[f] < field.min || info.fields[f] > field.max) {
      return corrupt(std::string("header ") + field.name + " out of range");
    }
  }
  if (chunk_rows == 0 || (chunk_rows & (chunk_rows - 1)) != 0) {
    return corrupt("chunk_rows must be a power of two");
  }
  // The payload size is fully determined by n and the row shape; an exact
  // check rejects truncated and padded files alike. Overflow-safe in plain
  // uint64: headers whose shape would wrap the multiplication are rejected
  // before it happens (field ranges keep the row width above zero).
  const uint64_t width = RowWidth(layout, info);
  if (m > (kMaxU64 / sizeof(double) - layout.row_pad) / width) {
    return corrupt("header row shape overflows the size check");
  }
  const uint64_t row_bytes = (m * width + layout.row_pad) * sizeof(double);
  if (n != 0 && row_bytes > (kMaxU64 - layout.header_bytes) / n) {
    return corrupt("header object count overflows the size check");
  }
  if (layout.header_bytes + n * row_bytes != file_size) {
    return corrupt(
        "physical size does not match header (truncated or padded sidecar)");
  }
  info.n = static_cast<std::size_t>(n);
  info.m = static_cast<std::size_t>(m);
  info.chunk_rows = static_cast<std::size_t>(chunk_rows);
  info.source = {Get64(header.data(), layout.source_offset),
                 Get64(header.data(), layout.source_offset + 8),
                 Get64(header.data(), layout.source_offset + 16)};
  return info;
}

}  // namespace

// ------------------------------------------------------------------ header --

std::size_t NormalizeChunkRows(const SidecarLayout& layout, std::size_t hint) {
  if (hint == 0) return layout.default_chunk_rows;
  std::size_t rows = 1;
  while (rows < hint && rows < (std::size_t{1} << 20)) rows <<= 1;
  return rows;
}

uint64_t SidecarRowBytes(const SidecarLayout& layout, const SidecarInfo& info) {
  return (info.m * RowWidth(layout, info) + layout.row_pad) * sizeof(double);
}

common::Result<SidecarSource> DescribeSource(const std::string& dataset_path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(dataset_path, ec);
  if (ec) return common::Status::IOError(dataset_path + ": cannot stat source");
  return SidecarSource{static_cast<uint64_t>(size),
                       FileMTimeTicks(dataset_path),
                       FileProbeHash(dataset_path)};
}

common::Result<SidecarInfo> ReadSidecarInfo(const SidecarLayout& layout,
                                            const std::string& path) {
  MappedSidecar sidecar;
  UCLUST_RETURN_NOT_OK(sidecar.Open(layout, path));
  return sidecar.info();
}

bool SidecarReusable(const SidecarLayout& layout, const std::string& path,
                     const SidecarInfo& want, std::size_t chunk_requirement) {
  auto got = ReadSidecarInfo(layout, path);
  if (!got.ok()) return false;
  const SidecarInfo& info = got.ValueOrDie();
  return info.n == want.n && info.m == want.m && info.fields == want.fields &&
         info.source == want.source &&
         (chunk_requirement == 0 ||
          info.chunk_rows <= NormalizeChunkRows(layout, chunk_requirement));
}

std::size_t SidecarChunkRequirement(const SidecarLayout& layout,
                                    std::size_t budget_bytes, int threads,
                                    std::size_t row_bytes) {
  if (budget_bytes == 0) return 0;
  const std::size_t window_budget =
      budget_bytes / (static_cast<std::size_t>(threads) * kSidecarWindowSlots);
  const std::size_t want = window_budget / row_bytes;
  std::size_t pow2 = 1;
  while (pow2 * 2 <= want && pow2 < layout.default_chunk_rows) pow2 *= 2;
  return std::max(pow2, layout.budget_floor_rows);
}

common::Status CommitSidecarBuild(
    const std::string& sidecar_path,
    const std::function<common::Status(const std::string& tmp_path)>& build) {
  const std::string tmp_path = UniqueScratchSiblingPath(sidecar_path);
  const common::Status built = build(tmp_path);
  if (!built.ok()) {
    std::remove(tmp_path.c_str());
    return built;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, sidecar_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return common::Status::IOError(sidecar_path +
                                   ": cannot move rebuilt sidecar into "
                                   "place: " + ec.message());
  }
  return common::Status::Ok();
}

// ------------------------------------------------------------------ writer --

common::Status SidecarWriter::Fail(const std::string& msg) {
  file_.reset();
  return common::Status::IOError(path_ + ": " + msg);
}

common::Status SidecarWriter::Open(const SidecarLayout& layout,
                                   const std::string& path,
                                   const SidecarInfo& header,
                                   std::vector<std::size_t> column_widths) {
  if (file_ != nullptr) {
    return common::Status::InvalidArgument(std::string(layout.kind) +
                                           " writer is already open");
  }
  if (header.m == 0) return common::Status::InvalidArgument("dims must be > 0");
  layout_ = &layout;
  path_ = path;
  widths_ = std::move(column_widths);
  chunk_rows_ = NormalizeChunkRows(layout, header.chunk_rows);
  written_ = 0;
  buf_rows_ = 0;
  std::size_t row_doubles = 0;
  for (const std::size_t w : widths_) row_doubles += w;
  buf_.resize(chunk_rows_ * row_doubles);
  file_.reset(std::fopen(path.c_str(), "wb"));
  if (file_ == nullptr) return common::Status::IOError("cannot create " + path);

  std::vector<unsigned char> bytes(layout.header_bytes, 0);
  std::memcpy(bytes.data(), layout.magic, sizeof(layout.magic));
  const uint32_t endian = kEndianTag;
  std::memcpy(bytes.data() + 8, &endian, sizeof(endian));
  std::memcpy(bytes.data() + 12, &layout.version, sizeof(layout.version));
  Put64(bytes.data(), 16, 0);  // n, patched by Finish()
  Put64(bytes.data(), 24, header.m);
  Put64(bytes.data(), layout.chunk_rows_offset, chunk_rows_);
  for (std::size_t f = 0; f < layout.num_fields; ++f) {
    Put64(bytes.data(), layout.fields[f].offset, header.fields[f]);
  }
  Put64(bytes.data(), layout.source_offset, header.source.size);
  Put64(bytes.data(), layout.source_offset + 8, header.source.mtime);
  Put64(bytes.data(), layout.source_offset + 16, header.source.probe);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
      bytes.size()) {
    return Fail("short write on header");
  }
  return common::Status::Ok();
}

common::Status SidecarWriter::FlushChunk() {
  const std::size_t rows = buf_rows_;
  if (rows == 0) return common::Status::Ok();
  const double* column = buf_.data();
  for (const std::size_t w : widths_) {
    if (std::fwrite(column, sizeof(double), rows * w, file_.get()) !=
        rows * w) {
      return Fail(std::string("short write on ") + layout_->kind + " chunk");
    }
    column += chunk_rows_ * w;
  }
  buf_rows_ = 0;
  return common::Status::Ok();
}

common::Status SidecarWriter::AppendRows(
    std::size_t count, std::initializer_list<const double*> columns) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("sidecar writer is not open");
  }
  assert(columns.size() == widths_.size());
  std::size_t done = 0;
  while (done < count) {
    const std::size_t take = std::min(count - done, chunk_rows_ - buf_rows_);
    double* column = buf_.data();
    const double* const* src = columns.begin();
    for (const std::size_t w : widths_) {
      std::memcpy(column + buf_rows_ * w, *src++ + done * w,
                  take * w * sizeof(double));
      column += chunk_rows_ * w;
    }
    buf_rows_ += take;
    done += take;
    written_ += take;
    if (buf_rows_ == chunk_rows_) UCLUST_RETURN_NOT_OK(FlushChunk());
  }
  return common::Status::Ok();
}

common::Status SidecarWriter::Finish() {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("sidecar writer is not open");
  }
  UCLUST_RETURN_NOT_OK(FlushChunk());
  const uint64_t n = written_;
  if (std::fseek(file_.get(), 16, SEEK_SET) != 0 ||
      std::fwrite(&n, sizeof(n), 1, file_.get()) != 1) {
    return Fail("failed to patch header");
  }
  const int rc = std::fclose(file_.release());
  if (rc != 0) return common::Status::IOError(path_ + ": close failed");
  return common::Status::Ok();
}

// ------------------------------------------------------------ mapped reader --

void WindowCache::Drop(WindowSlot* s) {
  if (s->counters != nullptr && s->region.valid()) {
    s->counters->bytes.fetch_sub(s->region.size(), std::memory_order_relaxed);
  }
  s->region = MappedRegion();
  s->counters.reset();
  s->serial = 0;
  s->tick = 0;
}

WindowCache::~WindowCache() {
  for (auto& s : slots) Drop(&s);
}

MappedSidecar::~MappedSidecar() {
  if (fd_ >= 0) ::close(fd_);
}

common::Status MappedSidecar::Open(const SidecarLayout& layout,
                                   const std::string& path) {
  layout_ = &layout;
  pool_ = layout.window_pool;
  path_ = path;
  // Descriptor first, then validate through it: a rebuild renamed over
  // `path` between the two steps would otherwise pair this header's
  // chunk_rows with the other inode's bytes (the file size does not depend
  // on chunk_rows, so the size check cannot tell). Checking and mapping one
  // descriptor closes that window by construction.
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return common::Status::NotFound("cannot open " + path);
  auto info = ValidateHeader(layout, fd_, path);
  UCLUST_RETURN_NOT_OK(info.status());
  info_ = info.ValueOrDie();
  row_bytes_ = SidecarRowBytes(layout, info_);
  serial_ = NextStoreSerial();
  return common::Status::Ok();
}

const double* MappedSidecar::Fault(std::size_t chunk, WindowSlot* victim,
                                   uint64_t tick) const {
  WindowCache::Drop(victim);
  const uint64_t offset =
      layout_->header_bytes +
      static_cast<uint64_t>(chunk) * info_.chunk_rows * row_bytes_;
  auto region =
      MapFileRegion(fd_, path_, offset, RowsInChunk(chunk) * row_bytes_);
  if (!region.ok()) {
    // The view API is exception- and status-free by design (it sits inside
    // allocation-free hot loops, possibly on pool threads). A chunk that can
    // neither be mapped nor read back is unrecoverable mid-kernel.
    std::fprintf(stderr, "mapped %s sidecar: %s\n", layout_->kind,
                 region.status().ToString().c_str());
    std::abort();
  }
  victim->serial = serial_;
  victim->chunk = chunk;
  victim->tick = tick;
  victim->region = std::move(region).ValueOrDie();
  victim->counters = counters_;
  if (victim->region.mapped()) {
    counters_->mmap_windows.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t live =
      counters_->bytes.fetch_add(victim->region.size(),
                                 std::memory_order_relaxed) +
      victim->region.size();
  std::size_t peak = counters_->peak.load(std::memory_order_relaxed);
  while (live > peak && !counters_->peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return reinterpret_cast<const double*>(victim->region.data());
}

}  // namespace uclust::io
