// File-backed moment ingestion: binary dataset file -> moment statistics
// in one bounded-memory pass.
//
// Every entry point decodes records straight into packed moment rows with
// BinaryDatasetReader::ReadMomentRows: no pdf or UncertainObject is built,
// and the rows are bit-identical to MomentMatrix::FromObjects over
// ReadUncertainDataset(path) — the object path is the test oracle
// (tests/test_io.cc) — for any batch size.
//
//   * StreamMomentsFromFile — the classic fully-resident MomentMatrix; peak
//     memory is the O(n m) moment columns.
//   * StreamMomentStoreFromFile — returns a MomentStore whose backend is
//     selected by EngineConfig::memory_budget_bytes: Resident when
//     ResidentMomentsFit holds, Mapped otherwise. On the Mapped path
//     BuildMomentSidecar decodes one batch of rows at a time into a .umom
//     sidecar (see moment_file.h), so peak memory is O(batch + chunk)
//     regardless of n, and a valid matching sidecar from an earlier run is
//     reused instead of rebuilt. Every file-backed centroid run
//     (clustering::OpenMomentStore) and the service's per-dataset cache
//     open their moments here.
#ifndef UCLUST_IO_INGEST_H_
#define UCLUST_IO_INGEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::io {

/// Default rows per decode call on the streaming ingest paths.
inline constexpr std::size_t kDefaultIngestBatch = 4096;

/// Decodes `path` into a fully-resident MomentMatrix, `batch_size` rows per
/// decode call. `labels`/`dataset_name` (optional) receive the file's labels
/// column and stored name.
common::Result<uncertain::MomentMatrix> StreamMomentsFromFile(
    const std::string& path, std::size_t batch_size = kDefaultIngestBatch,
    std::vector<int>* labels = nullptr, std::string* dataset_name = nullptr);

/// Whether the resident moment columns of an n x m dataset, (3m + 1) * n
/// doubles, fit eng's memory budget (0 = unlimited, mirroring
/// PairwiseStore): the one resident-or-mapped rule of every moment
/// consumer.
bool ResidentMomentsFit(std::size_t n, std::size_t m,
                        const engine::Engine& eng);

/// Streams `path` into a MomentStore whose backend is selected by the
/// engine's memory budget: Resident when ResidentMomentsFit holds, else a
/// Mapped .umom sidecar at `sidecar_path` ("" = dataset path + ".umom")
/// with SidecarChunkRequirement chunks. A valid sidecar matching the
/// dataset (n, m, source triple) with chunks no larger than that is reused
/// (SidecarReusable in chunked_sidecar.h); anything else is rebuilt.
/// `labels`/`dataset_name` (optional) receive the file's labels column and
/// stored name. Both backends serve bit-identical moment statistics.
common::Result<uncertain::MomentStorePtr> StreamMomentStoreFromFile(
    const std::string& path,
    const engine::Engine& eng = engine::Engine::Serial(),
    const std::string& sidecar_path = "", std::vector<int>* labels = nullptr,
    std::string* dataset_name = nullptr);

/// Builds (or rebuilds) the .umom moment sidecar for a binary dataset file
/// in one bounded-memory pass: ReadMomentRows batches of `batch_size` rows
/// -> MomentFileWriter. Used by `dataset_gen --emit-moments` and by the
/// Mapped path of StreamMomentStoreFromFile.
common::Status BuildMomentSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  std::size_t chunk_rows = 0,
                                  std::size_t batch_size = kDefaultIngestBatch);

}  // namespace uclust::io

#endif  // UCLUST_IO_INGEST_H_
