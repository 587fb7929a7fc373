#include "io/moment_file.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "io/binary_format.h"  // kEndianTag / kEndianTagSwapped
#include "io/mmap_file.h"
#include "io/moment_format.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace uclust::io {

// ------------------------------------------------------------------ writer --

MomentFileWriter::~MomentFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status MomentFileWriter::Fail(const std::string& msg) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return common::Status::IOError(path_ + ": " + msg);
}

common::Status MomentFileWriter::Open(const std::string& path,
                                      std::size_t dims,
                                      std::size_t chunk_rows,
                                      uint64_t source_size,
                                      uint64_t source_mtime,
                                      uint64_t source_probe) {
  if (file_ != nullptr) {
    return common::Status::InvalidArgument("moment writer is already open");
  }
  if (dims == 0) return common::Status::InvalidArgument("dims must be > 0");
  path_ = path;
  m_ = dims;
  chunk_rows_ = NormalizeMomentChunkRows(chunk_rows);
  written_ = 0;
  buf_rows_ = 0;
  mean_buf_.resize(chunk_rows_ * m_);
  mu2_buf_.resize(chunk_rows_ * m_);
  var_buf_.resize(chunk_rows_ * m_);
  tv_buf_.resize(chunk_rows_);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return common::Status::IOError("cannot create " + path);

  unsigned char header[kMomentHeaderBytes] = {};
  std::memcpy(header, kMomentMagic, sizeof(kMomentMagic));
  const uint32_t endian = kEndianTag;
  const uint32_t version = kMomentFormatVersion;
  const uint64_t n = 0;  // patched by Finish()
  const uint64_t m = m_;
  const uint64_t rows = chunk_rows_;
  std::memcpy(header + 8, &endian, sizeof(endian));
  std::memcpy(header + 12, &version, sizeof(version));
  std::memcpy(header + 16, &n, sizeof(n));
  std::memcpy(header + 24, &m, sizeof(m));
  std::memcpy(header + 32, &rows, sizeof(rows));
  std::memcpy(header + 40, &source_size, sizeof(source_size));
  std::memcpy(header + 48, &source_mtime, sizeof(source_mtime));
  std::memcpy(header + 56, &source_probe, sizeof(source_probe));
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
    return Fail("short write on header");
  }
  return common::Status::Ok();
}

common::Status MomentFileWriter::FlushChunk() {
  const std::size_t rows = buf_rows_;
  if (rows == 0) return common::Status::Ok();
  if (std::fwrite(mean_buf_.data(), sizeof(double), rows * m_, file_) !=
          rows * m_ ||
      std::fwrite(mu2_buf_.data(), sizeof(double), rows * m_, file_) !=
          rows * m_ ||
      std::fwrite(var_buf_.data(), sizeof(double), rows * m_, file_) !=
          rows * m_ ||
      std::fwrite(tv_buf_.data(), sizeof(double), rows, file_) != rows) {
    return Fail("short write on moment chunk");
  }
  buf_rows_ = 0;
  return common::Status::Ok();
}

common::Status MomentFileWriter::AppendRows(std::size_t count, std::size_t m,
                                            const double* mean,
                                            const double* mu2,
                                            const double* var,
                                            const double* total_var) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("moment writer is not open");
  }
  if (m != m_) {
    return common::Status::InvalidArgument(
        "moment rows have " + std::to_string(m) + " dims, file has " +
        std::to_string(m_));
  }
  std::size_t done = 0;
  while (done < count) {
    const std::size_t take =
        std::min(count - done, chunk_rows_ - buf_rows_);
    std::memcpy(mean_buf_.data() + buf_rows_ * m_, mean + done * m_,
                take * m_ * sizeof(double));
    std::memcpy(mu2_buf_.data() + buf_rows_ * m_, mu2 + done * m_,
                take * m_ * sizeof(double));
    std::memcpy(var_buf_.data() + buf_rows_ * m_, var + done * m_,
                take * m_ * sizeof(double));
    std::memcpy(tv_buf_.data() + buf_rows_, total_var + done,
                take * sizeof(double));
    buf_rows_ += take;
    done += take;
    written_ += take;
    if (buf_rows_ == chunk_rows_) UCLUST_RETURN_NOT_OK(FlushChunk());
  }
  return common::Status::Ok();
}

common::Status MomentFileWriter::Finish() {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("moment writer is not open");
  }
  UCLUST_RETURN_NOT_OK(FlushChunk());
  const uint64_t n = written_;
  if (std::fseek(file_, 16, SEEK_SET) != 0 ||
      std::fwrite(&n, sizeof(n), 1, file_) != 1) {
    return Fail("failed to patch header");
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return common::Status::IOError(path_ + ": close failed");
  return common::Status::Ok();
}

// ------------------------------------------------------------------ header --

common::Result<MomentFileInfo> ReadMomentFileInfo(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return common::Status::NotFound("cannot open " + path);
  }
  auto corrupt = [&](const std::string& msg) {
    std::fclose(f);
    return common::Status::IOError(path + ": " + msg);
  };
  // std::filesystem reports 64-bit sizes everywhere; a long-based ftell
  // would cap validatable sidecars at 2 GB on LLP64 platforms.
  std::error_code size_ec;
  const uint64_t file_size =
      static_cast<uint64_t>(std::filesystem::file_size(path, size_ec));
  if (size_ec) return corrupt("cannot determine file size");
  unsigned char header[kMomentHeaderBytes];
  if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
    return corrupt("file too short for a moment-sidecar header");
  }
  std::fclose(f);
  f = nullptr;
  if (std::memcmp(header, kMomentMagic, sizeof(kMomentMagic)) != 0) {
    return common::Status::IOError(
        path + ": bad magic (not a uclust moment sidecar)");
  }
  uint32_t endian = 0, version = 0;
  uint64_t n = 0, m = 0, chunk_rows = 0, source_size = 0, source_mtime = 0,
           source_probe = 0;
  std::memcpy(&endian, header + 8, sizeof(endian));
  std::memcpy(&version, header + 12, sizeof(version));
  std::memcpy(&n, header + 16, sizeof(n));
  std::memcpy(&m, header + 24, sizeof(m));
  std::memcpy(&chunk_rows, header + 32, sizeof(chunk_rows));
  std::memcpy(&source_size, header + 40, sizeof(source_size));
  std::memcpy(&source_mtime, header + 48, sizeof(source_mtime));
  std::memcpy(&source_probe, header + 56, sizeof(source_probe));
  if (endian == kEndianTagSwapped) {
    return common::Status::IOError(
        path + ": sidecar was written on an opposite-endian machine");
  }
  if (endian != kEndianTag) {
    return common::Status::IOError(
        path + ": bad endianness canary (corrupt header)");
  }
  if (version == 0 || version > kMomentFormatVersion) {
    return common::Status::IOError(
        path + ": unsupported moment-format version " +
        std::to_string(version) + " (reader supports up to " +
        std::to_string(kMomentFormatVersion) + ")");
  }
  if (m == 0) {
    return common::Status::IOError(path + ": header declares zero dimensions");
  }
  if (chunk_rows == 0 || (chunk_rows & (chunk_rows - 1)) != 0) {
    return common::Status::IOError(
        path + ": chunk_rows must be a power of two");
  }
  // The payload size is fully determined by n and m (n rows of (3m+1)
  // doubles); an exact check rejects truncated and padded files alike.
  // Overflow-safe in plain uint64: headers whose n/m would wrap the
  // multiplication are rejected before it happens.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (m > (kMax / sizeof(double) - 1) / 3) {
    return common::Status::IOError(
        path + ": header dimensionality overflows the size check");
  }
  const uint64_t row_bytes = (3 * m + 1) * sizeof(double);
  if (n != 0 && row_bytes > (kMax - kMomentHeaderBytes) / n) {
    return common::Status::IOError(
        path + ": header object count overflows the size check");
  }
  if (kMomentHeaderBytes + n * row_bytes != file_size) {
    return common::Status::IOError(
        path + ": physical size does not match header (truncated or padded "
               "sidecar)");
  }
  MomentFileInfo info;
  info.n = static_cast<std::size_t>(n);
  info.m = static_cast<std::size_t>(m);
  info.chunk_rows = static_cast<std::size_t>(chunk_rows);
  info.source_size = source_size;
  info.source_mtime = source_mtime;
  info.source_probe = source_probe;
  return info;
}

// ------------------------------------------------------------ mapped store --

namespace {

// Per-thread LRU of mapped chunk windows, shared across every live store
// (keyed by store serial + chunk index). One global array per thread keeps
// total address use bounded by kMomentWindowSlots x chunk bytes per thread
// no matter how many stores come and go; windows belonging to destroyed
// stores age out by normal LRU pressure, and the shared Counters keep their
// byte accounting safe after the store is gone.
struct WindowSlot {
  uint64_t serial = 0;  // 0 = empty
  std::size_t chunk = 0;
  uint64_t tick = 0;
  MappedRegion region;
  std::shared_ptr<void> counters;  // type-erased; see Drop()
  std::atomic<std::size_t>* bytes = nullptr;
};

struct WindowCache {
  std::array<WindowSlot, kMomentWindowSlots> slots;
  uint64_t tick = 0;

  static void Drop(WindowSlot* s) {
    if (s->bytes != nullptr && s->region.valid()) {
      s->bytes->fetch_sub(s->region.size(), std::memory_order_relaxed);
    }
    s->region = MappedRegion();
    s->counters.reset();
    s->bytes = nullptr;
    s->serial = 0;
    s->tick = 0;
  }

  ~WindowCache() {
    for (auto& s : slots) Drop(&s);
  }
};

WindowCache& LocalWindows() {
  thread_local WindowCache cache;
  return cache;
}

uint64_t NextStoreSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MappedMomentStore::~MappedMomentStore() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
}

common::Result<std::unique_ptr<MappedMomentStore>> MappedMomentStore::Open(
    const std::string& path) {
  auto info = ReadMomentFileInfo(path);
  if (!info.ok()) return info.status();
  std::unique_ptr<MappedMomentStore> store(new MappedMomentStore());
  store->path_ = path;
  store->n_ = info.ValueOrDie().n;
  store->m_ = info.ValueOrDie().m;
  store->chunk_rows_ = info.ValueOrDie().chunk_rows;
  store->source_size_ = info.ValueOrDie().source_size;
  store->source_mtime_ = info.ValueOrDie().source_mtime;
  store->num_chunks_ =
      (store->n_ + store->chunk_rows_ - 1) / store->chunk_rows_;
  store->serial_ = NextStoreSerial();
#if defined(__unix__) || defined(__APPLE__)
  store->fd_ = ::open(path.c_str(), O_RDONLY);
  if (store->fd_ < 0) {
    return common::Status::IOError(path + ": cannot open for mapping");
  }
#endif
  return store;
}

std::size_t MappedMomentStore::RowsInChunk(std::size_t chunk) const {
  const std::size_t begin = chunk * chunk_rows_;
  return std::min(chunk_rows_, n_ - begin);
}

uncertain::MomentChunkPtrs MappedMomentStore::ChunkData(
    std::size_t chunk) const {
  WindowCache& wc = LocalWindows();
  ++wc.tick;
  WindowSlot* victim = &wc.slots[0];
  for (auto& s : wc.slots) {
    if (s.serial == serial_ && s.chunk == chunk && s.region.valid()) {
      s.tick = wc.tick;
      const std::size_t rows = RowsInChunk(chunk);
      const double* base = reinterpret_cast<const double*>(s.region.data());
      return {base, base + rows * m_, base + 2 * rows * m_,
              base + 3 * rows * m_};
    }
    if (s.tick < victim->tick) victim = &s;
  }

  // Fault: evict the thread's least-recently-used window and map the chunk.
  WindowCache::Drop(victim);
  const std::size_t rows = RowsInChunk(chunk);
  const uint64_t offset =
      kMomentHeaderBytes +
      static_cast<uint64_t>(chunk) * MomentChunkBytes(chunk_rows_, m_);
  auto region = MapFileRegion(fd_, path_, offset, MomentChunkBytes(rows, m_));
  if (!region.ok()) {
    // The view API is exception- and status-free by design (it sits inside
    // allocation-free hot loops, possibly on pool threads). A chunk that can
    // neither be mapped nor read back is unrecoverable mid-kernel.
    std::fprintf(stderr, "MappedMomentStore: %s\n",
                 region.status().ToString().c_str());
    std::abort();
  }
  victim->serial = serial_;
  victim->chunk = chunk;
  victim->tick = wc.tick;
  victim->region = std::move(region).ValueOrDie();
  victim->counters = counters_;
  victim->bytes = &counters_->bytes;
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
  const double* base = reinterpret_cast<const double*>(victim->region.data());
  return {base, base + rows * m_, base + 2 * rows * m_, base + 3 * rows * m_};
}

// ------------------------------------------------------------- convenience --

common::Status WriteMomentFile(const uncertain::MomentView& view,
                               const std::string& path,
                               std::size_t chunk_rows, uint64_t source_size) {
  if (view.size() > 0 && view.dims() == 0) {
    return common::Status::InvalidArgument(
        "cannot persist a zero-dimensional moment view");
  }
  MomentFileWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(path, std::max<std::size_t>(view.dims(), 1),
                                   chunk_rows, source_size));
  if (!view.chunked() && view.size() > 0) {
    // Flat views are contiguous: one bulk append (the scalar total-variance
    // column is re-gathered because the view exposes it element-wise).
    std::vector<double> tv(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      tv[i] = view.total_variance(i);
    }
    UCLUST_RETURN_NOT_OK(writer.AppendRows(
        view.size(), view.dims(), view.mean(0).data(),
        view.second_moment(0).data(), view.variance(0).data(), tv.data()));
  } else {
    for (std::size_t i = 0; i < view.size(); ++i) {
      const double tv = view.total_variance(i);
      UCLUST_RETURN_NOT_OK(writer.AppendRows(
          1, view.dims(), view.mean(i).data(), view.second_moment(i).data(),
          view.variance(i).data(), &tv));
    }
  }
  return writer.Finish();
}

}  // namespace uclust::io
