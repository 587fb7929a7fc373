// Writer and mmap-backed reader of the .umom moment sidecar format (see
// moment_format.h for the layout), as thin layers over the chunked-sidecar
// core (chunked_sidecar.h) that own the header, the chunk buffer, the
// temp-and-rename commit and the mapped window cache.
//
// MomentFileWriter takes canonically packed moment rows in batches — from
// BuildMomentSidecar (ingest.h), which decodes a .ubin one batch at a time —
// and scatters them into the four per-chunk columns, so stream-ingest ->
// Mapped store never holds more than one batch plus one chunk of moment
// data in memory.
//
// MappedMomentStore is the Mapped MomentStore backend: it serves a validated
// .umom file through the core's per-thread window LRU (kSidecarWindowSlots
// chunks per thread) and splits each chunk into its mean/mu2/var/total_var
// columns. Address space — and, under memory pressure, resident memory —
// therefore stays bounded by threads x windows x chunk bytes instead of
// O(n m), while the served doubles are bit-identical to the Resident
// backend's.
#ifndef UCLUST_IO_MOMENT_FILE_H_
#define UCLUST_IO_MOMENT_FILE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "io/chunked_sidecar.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::io {

/// Writes one .umom moment sidecar. Usage: Open() once, AppendRows() any
/// number of times, Finish() (which seals the header; a file without
/// Finish() is invalid).
class MomentFileWriter {
 public:
  /// Creates/truncates `path` and writes the provisional header.
  /// `chunk_rows` is normalized via NormalizeChunkRows; `source` describes
  /// the dataset file the moments derive from (0 = standalone/unknown) and
  /// forms the reuse staleness guard.
  common::Status Open(const std::string& path, std::size_t dims,
                      std::size_t chunk_rows = 0,
                      const SidecarSource& source = {});

  /// Appends `count` rows packed by MomentMatrix::PackRow: mean/mu2/var
  /// are row-major count x m, total_var has length count. `m` must equal
  /// the dims given to Open().
  common::Status AppendRows(std::size_t count, std::size_t m,
                            const double* mean, const double* mu2,
                            const double* var, const double* total_var);

  /// Flushes the partial tail chunk, patches n into the header, and closes
  /// the file.
  common::Status Finish() { return core_.Finish(); }

 private:
  SidecarWriter core_;
  std::size_t m_ = 0;
};

/// Header metadata of a .umom file (see moment_format.h).
using MomentFileInfo = SidecarInfo;

/// Reads and validates a .umom header, including the exact-file-size check
/// (ReadSidecarInfo with kMomentLayout).
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

  uncertain::MomentBackend backend() const override {
    return uncertain::MomentBackend::kMapped;
  }
  uncertain::MomentView view() const override {
    const SidecarInfo& info = sidecar_.info();
    return uncertain::MomentView(info.n, info.m, info.chunk_rows, this);
  }
  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t moment_bytes_resident() const override {
    return sidecar_.peak_bytes();
  }
  const std::string& sidecar_path() const override { return sidecar_.path(); }

  /// Rows per chunk (the file's, which may differ from any caller hint).
  std::size_t chunk_rows() const { return sidecar_.info().chunk_rows; }
  /// True when at least one window came from a real mmap (false means every
  /// window so far used the heap-read fallback).
  bool used_mmap() const { return sidecar_.used_mmap(); }

  uncertain::MomentChunkPtrs ChunkData(std::size_t chunk) const override;

 private:
  MappedMomentStore() = default;

  MappedSidecar sidecar_;
};

/// Writes every row of `view` into a standalone .umom sidecar at `path`
/// (convenience for benches/tests that already hold resident moments).
common::Status WriteMomentFile(const uncertain::MomentView& view,
                               const std::string& path,
                               std::size_t chunk_rows = 0);

}  // namespace uclust::io

#endif  // UCLUST_IO_MOMENT_FILE_H_
