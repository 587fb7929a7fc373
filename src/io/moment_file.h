// Writer and mmap-backed reader of the .umom moment sidecar format (see
// moment_format.h for the layout).
//
// MomentFileWriter takes canonically packed moment rows in batches — from
// BuildMomentSidecar (ingest.h), which decodes a .ubin one batch at a time —
// regroups them into fixed-size chunks in an O(chunk m) buffer and streams
// them to disk, so stream-ingest -> Mapped store never holds more than one
// batch plus one chunk of moment data in memory.
//
// MappedMomentStore is the Mapped MomentStore backend: it validates a .umom
// header (magic, endianness canary, version, exact physical size) and then
// serves chunk windows through io::MapFileRegion, keeping a small per-thread
// LRU of mapped windows (kMomentWindowSlots chunks per thread). Address
// space — and, under memory pressure, resident memory — therefore stays
// bounded by threads x windows x chunk bytes instead of O(n m), while the
// served doubles are bit-identical to the Resident backend's.
#ifndef UCLUST_IO_MOMENT_FILE_H_
#define UCLUST_IO_MOMENT_FILE_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::io {

/// Mapped chunk windows each thread keeps alive at once. Spans served by a
/// chunked MomentView stay valid until the calling thread faults this many
/// OTHER chunks; every kernel in the library holds at most two distinct
/// rows at a time (see the contract in uncertain/moments.h).
inline constexpr std::size_t kMomentWindowSlots = 16;

/// Writes one .umom moment sidecar. Usage: Open() once, AppendRows() any
/// number of times, Finish() (which seals the header; a file without
/// Finish() is invalid).
class MomentFileWriter {
 public:
  MomentFileWriter() = default;
  ~MomentFileWriter();

  MomentFileWriter(const MomentFileWriter&) = delete;
  MomentFileWriter& operator=(const MomentFileWriter&) = delete;

  /// Creates/truncates `path` and writes the provisional header.
  /// `chunk_rows` is normalized via NormalizeMomentChunkRows;
  /// `source_size`/`source_mtime`/`source_probe` describe the dataset file
  /// the moments derive from (byte size, FileMTimeTicks, FileProbeHash;
  /// 0 = standalone/unknown) and form the reuse staleness guard.
  common::Status Open(const std::string& path, std::size_t dims,
                      std::size_t chunk_rows = 0, uint64_t source_size = 0,
                      uint64_t source_mtime = 0, uint64_t source_probe = 0);

  /// Appends `count` rows packed by MomentMatrix::PackRow: mean/mu2/var
  /// are row-major count x m, total_var has length count. `m` must equal
  /// the dims given to Open().
  common::Status AppendRows(std::size_t count, std::size_t m,
                            const double* mean, const double* mu2,
                            const double* var, const double* total_var);

  /// Flushes the partial tail chunk, patches n into the header, and closes
  /// the file.
  common::Status Finish();

  /// Rows appended so far.
  std::size_t written() const { return written_; }

 private:
  common::Status Fail(const std::string& msg);
  common::Status FlushChunk();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t m_ = 0;
  std::size_t chunk_rows_ = 0;
  std::size_t written_ = 0;
  std::size_t buf_rows_ = 0;  // rows accumulated in the pending chunk
  std::vector<double> mean_buf_;
  std::vector<double> mu2_buf_;
  std::vector<double> var_buf_;
  std::vector<double> tv_buf_;
};

/// Header metadata of a .umom file (see moment_format.h).
struct MomentFileInfo {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t chunk_rows = 0;
  uint64_t source_size = 0;
  uint64_t source_mtime = 0;
  uint64_t source_probe = 0;
};

/// Reads and validates a .umom header, including the exact-file-size check.
common::Result<MomentFileInfo> ReadMomentFileInfo(const std::string& path);

/// The Mapped MomentStore backend: serves a validated .umom file through
/// chunk-granular mapped windows. Thread-safe for concurrent view access
/// (each thread owns its window LRU).
class MappedMomentStore final : public uncertain::MomentStore,
                                public uncertain::MomentChunkSource {
 public:
  /// Opens and validates `path`. The returned store owns the descriptor.
  static common::Result<std::unique_ptr<MappedMomentStore>> Open(
      const std::string& path);

  ~MappedMomentStore() override;

  MappedMomentStore(const MappedMomentStore&) = delete;
  MappedMomentStore& operator=(const MappedMomentStore&) = delete;

  uncertain::MomentBackend backend() const override {
    return uncertain::MomentBackend::kMapped;
  }
  uncertain::MomentView view() const override {
    return uncertain::MomentView(n_, m_, chunk_rows_, this);
  }
  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t moment_bytes_resident() const override {
    return counters_->peak.load(std::memory_order_relaxed);
  }
  const std::string& sidecar_path() const override { return path_; }

  /// Rows per chunk (the file's, which may differ from any caller hint).
  std::size_t chunk_rows() const { return chunk_rows_; }
  /// Source-dataset byte size recorded at write time (0 = standalone).
  uint64_t source_size() const { return source_size_; }
  /// Source-dataset last-write ticks recorded at write time (0 = unknown).
  uint64_t source_mtime() const { return source_mtime_; }
  /// True when at least one window came from a real mmap (false means every
  /// window so far used the heap-read fallback).
  bool used_mmap() const {
    return counters_->mmap_windows.load(std::memory_order_relaxed) > 0;
  }

  uncertain::MomentChunkPtrs ChunkData(std::size_t chunk) const override;

 private:
  // Cross-thread accounting, shared with per-thread window slots so evictions
  // that outlive the store still decrement safely.
  struct Counters {
    std::atomic<std::size_t> bytes{0};
    std::atomic<std::size_t> peak{0};
    std::atomic<std::size_t> mmap_windows{0};
  };

  MappedMomentStore() = default;

  std::size_t RowsInChunk(std::size_t chunk) const;

  std::string path_;
  int fd_ = -1;  // POSIX descriptor for mapping; -1 on portable fallback
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t chunk_rows_ = 0;
  std::size_t num_chunks_ = 0;
  uint64_t source_size_ = 0;
  uint64_t source_mtime_ = 0;
  uint64_t serial_ = 0;  // unique per store; keys the thread-local windows
  std::shared_ptr<Counters> counters_ = std::make_shared<Counters>();
};

/// Writes every row of `view` into a .umom sidecar at `path` (convenience
/// for benches/tests that already hold resident moments).
common::Status WriteMomentFile(const uncertain::MomentView& view,
                               const std::string& path,
                               std::size_t chunk_rows = 0,
                               uint64_t source_size = 0);

}  // namespace uclust::io

#endif  // UCLUST_IO_MOMENT_FILE_H_
