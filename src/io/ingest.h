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
//     selected by EngineConfig::memory_budget_bytes: Resident when the
//     columns fit the budget (or it is unlimited), Mapped otherwise. On the
//     Mapped path BuildMomentSidecar decodes one batch of rows at a time
//     into a .umom sidecar (see moment_file.h), so peak memory is
//     O(batch + chunk) regardless of n, and a valid matching sidecar from
//     an earlier run is reused instead of rebuilt.
//   * ReadReducedMoments — only what the CK-means Lloyd loop reads: the
//     expected centroids and the ED^ constants, (m+1)*n doubles, tagged
//     with the source triple they were decoded from. CkMeans::ClusterFile
//     decodes through it, and the service keeps one per registered dataset.
#ifndef UCLUST_IO_INGEST_H_
#define UCLUST_IO_INGEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "io/chunked_sidecar.h"
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

/// How StreamMomentStoreFromFile picks the MomentStore backend.
enum class MomentBackendChoice {
  kAuto,      ///< Resident iff the columns fit eng.memory_budget_bytes()
              ///< (0 = unlimited = Resident, mirroring PairwiseStore).
  kResident,  ///< Force the flat in-memory columns.
  kMapped,    ///< Force the mmap-backed .umom sidecar.
};

/// Tuning of a StreamMomentStoreFromFile call.
struct MomentStoreOptions {
  MomentBackendChoice backend = MomentBackendChoice::kAuto;
  /// Rows per sidecar chunk; 0 = the engine's moment_chunk_rows hint, then
  /// the format default. Rounded up to a power of two.
  std::size_t chunk_rows = 0;
  /// Sidecar location; "" = dataset path + ".umom".
  std::string sidecar_path;
  /// Reuse an existing sidecar that matches the dataset (n, m and source
  /// triple) under the effective chunk requirement — SidecarReusable in
  /// chunked_sidecar.h. Anything else is silently rebuilt; set false to
  /// force a rebuild regardless.
  bool reuse_sidecar = true;
  /// Rows per decode call of the ingestion pass (the sidecar build's
  /// scratch size).
  std::size_t batch_size = kDefaultIngestBatch;
};

/// Streams `path` into a MomentStore whose backend is selected by the
/// engine's memory budget (see MomentStoreOptions to force one).
/// `labels`/`dataset_name` (optional) receive the file's labels column and
/// stored name. Both backends serve bit-identical moment statistics.
common::Result<uncertain::MomentStorePtr> StreamMomentStoreFromFile(
    const std::string& path,
    const engine::Engine& eng = engine::Engine::Serial(),
    const MomentStoreOptions& options = {},
    std::vector<int>* labels = nullptr, std::string* dataset_name = nullptr);

/// The reduced moment form of a dataset file: per object the expected
/// centroid mu(o) and the ED^ constant sigma^2(o) (the total variance), all
/// the CK-means Lloyd loop reads.
struct ReducedMoments {
  std::string path;  ///< the dataset file it was decoded from
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<double> means;      ///< row-major n x m
  std::vector<double> constants;  ///< n ED^ constants
  /// `path`'s source triple, taken before the decode: a file rewritten
  /// while it ran compares unequal to DescribeSource(path) afterwards.
  SidecarSource source;

  /// A view backing only mean() and total_variance().
  uncertain::MomentView view() const {
    return uncertain::MomentView(n, m, means.data(), /*mu2=*/nullptr,
                                 /*var=*/nullptr, constants.data());
  }
  /// Payload bytes: (m + 1) * n doubles.
  std::size_t bytes() const {
    return (means.size() + constants.size()) * sizeof(double);
  }
};

/// Decodes `path` into its reduced moment form, `batch_size` rows per decode
/// call; the mu2/var columns only pass through one batch of scratch. The
/// values are bit-identical to the mean()/total_variance() columns of
/// StreamMomentsFromFile.
common::Result<ReducedMoments> ReadReducedMoments(
    const std::string& path, std::size_t batch_size = kDefaultIngestBatch);

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
