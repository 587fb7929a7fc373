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
//   * MomentBatchStream — re-streamable batches of moment rows, the input
//     side of the mini-batch CK-means driver.
#ifndef UCLUST_IO_INGEST_H_
#define UCLUST_IO_INGEST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "io/chunked_sidecar.h"
#include "io/dataset_reader.h"
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

/// Builds (or rebuilds) the .umom moment sidecar for a binary dataset file
/// in one bounded-memory pass: ReadMomentRows batches of `batch_size` rows
/// -> MomentFileWriter. Used by `dataset_gen --emit-moments` and by the
/// Mapped path of StreamMomentStoreFromFile.
common::Status BuildMomentSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  std::size_t chunk_rows = 0,
                                  std::size_t batch_size = kDefaultIngestBatch);

/// Re-streamable batch-at-a-time moment statistics over a binary dataset
/// file — the input side of the mini-batch CK-means driver (and any other
/// consumer that wants moment rows in bounded memory without materializing
/// a MomentStore). Each NextBatch() decodes one batch of records into a
/// reused flat scratch block through ReadMomentRows, so the served values
/// are bit-identical to a full ingestion for any batch size. Rewind()
/// restarts the record cursor for multi-pass consumers (the underlying
/// reader is forward-only, so a rewind reopens the file).
///
/// Source guard: Open() records the file's byte size, last-write tick and
/// content probe (FileMTimeTicks / FileProbeHash); Rewind() and ReadMeanAt()
/// re-check them and fail with a Status when the file was rewritten since,
/// so a multi-pass consumer never mixes two versions of a dataset.
class MomentBatchStream {
 public:
  /// Opens `path` and validates the header.
  common::Status Open(const std::string& path);

  /// Number of objects in the file.
  std::size_t size() const { return n_; }
  /// Dimensionality of every object.
  std::size_t dims() const { return m_; }
  /// Dataset name stored in the file.
  const std::string& name() const { return name_; }

  /// Restarts the stream at object 0 (reopens the record cursor). Fails
  /// when the file changed since Open().
  common::Status Rewind();

  /// Packs the next min(max_rows, remaining) objects' moments into the
  /// internal scratch block and returns the row count (0 at end of stream).
  /// `max_rows` must be > 0.
  common::Result<std::size_t> NextBatch(std::size_t max_rows);

  /// Absolute object index of row 0 of the current batch.
  std::size_t base_index() const { return base_index_; }
  /// Flat view over the current batch's moment rows (batch-local indices;
  /// valid until the next NextBatch/Rewind call).
  uncertain::MomentView batch_view() const {
    return uncertain::MomentView(batch_rows_, m_, mean_.data(), mu2_.data(),
                                 var_.data(), total_var_.data());
  }

  /// Reads the mean vector of one object by absolute index through a fresh
  /// forward scan (the format has no random access) that decodes — and so
  /// validates — every record before it into a fixed-size scratch; `out`
  /// must have dims() elements. O(index) — intended for rare lookups such as
  /// the CK-means empty-cluster reseed, not for bulk access. Fails when the
  /// file changed since Open().
  common::Status ReadMeanAt(std::size_t index, std::span<double> out) const;

  /// Reads the labels column (empty when the file is unlabeled).
  common::Status ReadLabels(std::vector<int>* labels);

 private:
  common::Status CheckSource(const BinaryDatasetReader& reader) const;

  std::string path_;
  std::string name_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  SidecarSource source_;  // what Open() saw; Rewind/ReadMeanAt compare
  std::size_t base_index_ = 0;
  std::size_t next_index_ = 0;
  std::size_t batch_rows_ = 0;
  std::unique_ptr<BinaryDatasetReader> reader_;
  std::vector<double> mean_, mu2_, var_, total_var_;
};

}  // namespace uclust::io

#endif  // UCLUST_IO_INGEST_H_
