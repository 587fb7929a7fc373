// Writer, mmap-backed reader, and backend-selecting factory of the .usmp
// sample sidecar format (see sample_format.h for the layout).
//
// SampleFileWriter streams object rows (S * m doubles each) into fixed-size
// chunks through an O(chunk) buffer, so building a sidecar never holds more
// than one chunk of sample data in memory. BuildSampleSidecar drives it from
// a binary dataset file in reader batches (the `dataset_gen --emit-samples`
// path), always through the canonical uncertain::DrawObjectSamples with
// absolute object indices — so a spilled sidecar is byte-for-byte what the
// Resident backend would draw.
//
// MappedSampleStore is the Mapped SampleStore backend: it serves a validated
// .usmp file through the per-thread window LRU of the chunked-sidecar core
// (chunked_sidecar.h, which also owns the header, the chunk buffer and the
// temp-and-rename commit) — the window discipline MappedMomentStore uses,
// but a separate pool — so address space stays bounded by threads x windows
// x chunk bytes instead of O(n S m).
//
// MakeSampleStore is the factory every sampled clusterer calls: it selects
// Resident vs Mapped from EngineConfig::memory_budget_bytes, reuses a valid
// matching sidecar (shape + samples-per-object + seed + source staleness
// guard), and otherwise builds one — next to the dataset's source file when
// the dataset is file-backed, or into a self-deleting temp spill otherwise.
#ifndef UCLUST_IO_SAMPLE_FILE_H_
#define UCLUST_IO_SAMPLE_FILE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "io/chunked_sidecar.h"
#include "uncertain/sample_store.h"

namespace uclust::io {

/// Writes one .usmp sample sidecar. Usage: Open() once, AppendRows() any
/// number of times, Finish() (which seals the header; a file without
/// Finish() is invalid).
class SampleFileWriter {
 public:
  /// Creates/truncates `path` and writes the provisional header.
  /// `chunk_rows` is normalized via NormalizeChunkRows; `seed` is the master
  /// seed the rows were drawn with (part of the reuse guard); `source`
  /// describes the dataset file the samples derive from (0 =
  /// standalone/unknown).
  common::Status Open(const std::string& path, std::size_t dims,
                      int samples_per_object, uint64_t seed,
                      std::size_t chunk_rows = 0,
                      const SidecarSource& source = {});

  /// Appends `count` object rows of samples_per_object * dims doubles each
  /// (the uncertain::DrawObjectSamples packing), back to back in `rows`.
  common::Status AppendRows(std::size_t count, const double* rows) {
    return core_.AppendRows(count, {rows});
  }

  /// Flushes the partial tail chunk, patches n into the header, and closes
  /// the file.
  common::Status Finish() { return core_.Finish(); }

  /// Object rows appended so far.
  std::size_t written() const { return core_.written(); }

 private:
  SidecarWriter core_;
};

/// Header metadata of a .usmp file (see sample_format.h); `fields` holds
/// {samples_per_object, seed}.
using SampleFileInfo = SidecarInfo;

/// Reads and validates a .usmp header, including the exact-file-size check
/// (ReadSidecarInfo with kSampleLayout).
common::Result<SampleFileInfo> ReadSampleFileInfo(const std::string& path);

/// The Mapped SampleStore backend: serves a validated .usmp file through
/// chunk-granular mapped windows. Thread-safe for concurrent view access
/// (each thread owns its window LRU).
class MappedSampleStore final : public uncertain::SampleStore,
                                public uncertain::SampleChunkSource {
 public:
  /// Opens and validates `path`. The returned store owns the descriptor.
  static common::Result<std::unique_ptr<MappedSampleStore>> Open(
      const std::string& path);

  ~MappedSampleStore() override;

  MappedSampleStore(const MappedSampleStore&) = delete;
  MappedSampleStore& operator=(const MappedSampleStore&) = delete;

  uncertain::SampleBackend backend() const override {
    return uncertain::SampleBackend::kMapped;
  }
  uncertain::SampleView view() const override {
    const SidecarInfo& info = sidecar_.info();
    return uncertain::SampleView(info.n, static_cast<int>(info.fields[0]),
                                 info.m, info.chunk_rows, this);
  }
  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t sample_bytes_resident() const override {
    return sidecar_.peak_bytes();
  }
  const std::string& sidecar_path() const override { return sidecar_.path(); }

  /// Objects per chunk (the file's, which may differ from any caller hint).
  std::size_t chunk_rows() const { return sidecar_.info().chunk_rows; }
  /// Master seed the sidecar's rows were drawn with.
  uint64_t seed() const { return sidecar_.info().fields[1]; }
  /// True when at least one window came from a real mmap (false means every
  /// window so far used the heap-read fallback).
  bool used_mmap() const { return sidecar_.used_mmap(); }

  /// Unlinks the sidecar file when the store is destroyed. Set by the
  /// factory on temp spills drawn from in-memory datasets, which have no
  /// durable source to re-derive a path from.
  void set_delete_on_close(bool value) { delete_on_close_ = value; }

  const double* ChunkData(std::size_t chunk) const override {
    return sidecar_.Chunk(chunk);
  }

 private:
  MappedSampleStore() = default;

  MappedSidecar sidecar_;
  bool delete_on_close_ = false;
};

/// Writes every object row of `view` into a standalone .usmp sidecar at
/// `path` (convenience for tests that already hold resident samples).
common::Status WriteSampleFile(const uncertain::SampleView& view,
                               const std::string& path, uint64_t seed,
                               std::size_t chunk_rows = 0);

/// Builds (or rebuilds) the .usmp sample sidecar for a binary dataset file
/// in one bounded-memory pass: reader batches -> DrawObjectSamples (absolute
/// indices) -> SampleFileWriter. Used by `dataset_gen --emit-samples` and by
/// the Mapped path of MakeSampleStore.
common::Status BuildSampleSidecar(
    const std::string& dataset_path, const std::string& sidecar_path,
    int samples_per_object, uint64_t seed,
    const engine::Engine& eng = engine::Engine::Serial(),
    std::size_t chunk_rows = 0, std::size_t batch_size = 1024);

/// Builds a standalone .usmp sidecar (source triple 0) from already-resident
/// objects: the temp-spill path for in-memory datasets.
common::Status BuildSampleSidecarFromObjects(
    std::span<const uncertain::UncertainObject> objects,
    const std::string& sidecar_path, int samples_per_object, uint64_t seed,
    std::size_t chunk_rows = 0);

/// Canonical sidecar path for (dataset, S, seed): sibling of `dataset_path`
/// with the draw parameters encoded in the name, so different algorithms'
/// (S, seed) pairs never churn one shared file.
std::string DefaultSampleSidecarPath(const std::string& dataset_path,
                                     int samples_per_object, uint64_t seed);

/// Creates the SampleStore serving `samples_per_object` realizations of
/// every object in `data`, drawn from `seed`. The engine's memory budget
/// selects the backend: Resident when the n * S * m block fits it (0 =
/// unlimited = Resident, mirroring the moment factory), else a Mapped .usmp
/// sidecar with SidecarChunkRequirement chunks — the dataset's annotated
/// sidecar when its (S, seed) match, then DefaultSampleSidecarPath next to
/// its source file, then a self-deleting temp spill. A valid sidecar that
/// matches the request (n, m, S, seed and, for file-backed datasets, the
/// source triple) with chunks no larger than that is reused
/// (SidecarReusable in chunked_sidecar.h); anything else is rebuilt. Both
/// backends serve bit-identical sample bytes.
common::Result<uncertain::SampleStorePtr> MakeSampleStore(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng = engine::Engine::Serial());

/// MakeSampleStore with the clusterer-facing failure policy: Cluster() has
/// no status channel, so a factory failure (unwritable sidecar location,
/// corrupt file, ...) falls back to the Resident backend with a stderr
/// warning — value-identical, only memory-hungrier.
uncertain::SampleStorePtr MakeSampleStoreOrResident(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng = engine::Engine::Serial());

}  // namespace uclust::io

#endif  // UCLUST_IO_SAMPLE_FILE_H_
