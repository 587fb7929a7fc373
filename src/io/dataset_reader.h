// Streaming reader for the binary dataset format (see binary_format.h).
//
// After Open() validates the header (magic, endianness canary, version), the
// object records are consumed strictly forward in batches, in one of two
// shapes:
//
//   * ReadMomentRows() decodes each record's pdf parameters straight into
//     packed moment rows — no pdf, object or box is built. Every moment
//     consumer of a .ubin file (ingest.h) reads through it.
//   * ReadBatch() builds UncertainObjects, for consumers that need the pdfs
//     themselves (sampling, ReadUncertainDataset).
//
// Both run every record through one validator, so they accept and reject
// exactly the same files, with the same Status, and the moment rows are
// bit-identical to MomentMatrix::FromObjects over ReadBatch's objects.
#ifndef UCLUST_IO_DATASET_READER_H_
#define UCLUST_IO_DATASET_READER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "uncertain/uncertain_object.h"

namespace uclust::io {

/// Reads one dataset file. Usage: Open(), then ReadBatch() until it returns
/// an empty batch (and optionally ReadLabels() at any point after Open()).
class BinaryDatasetReader {
 public:
  BinaryDatasetReader() = default;
  ~BinaryDatasetReader();

  BinaryDatasetReader(const BinaryDatasetReader&) = delete;
  BinaryDatasetReader& operator=(const BinaryDatasetReader&) = delete;

  /// Opens `path` and validates the header. Rejects foreign-endian files,
  /// versions newer than kFormatVersion, and malformed headers.
  common::Status Open(const std::string& path);

  /// Number of objects in the file.
  std::size_t size() const { return n_; }
  /// Dimensionality of every object.
  std::size_t dims() const { return dims_; }
  /// Dataset name stored in the file.
  const std::string& name() const { return name_; }
  /// Number of reference classes (0 when unlabeled).
  int num_classes() const { return num_classes_; }
  /// True when the file carries a labels column.
  bool has_labels() const { return has_labels_; }
  /// Objects not yet handed out by ReadBatch() / ReadMomentRows().
  std::size_t remaining() const { return n_ - cursor_; }
  /// Physical byte size of the open file — recorded into derived .umom
  /// moment sidecars as a cheap staleness guard for reuse.
  uint64_t file_bytes() const { return file_size_; }

  /// Deserializes the next min(max, remaining()) objects into `*out`
  /// (cleared first; empty at end of stream). `max` must be > 0.
  common::Status ReadBatch(std::size_t max,
                           std::vector<uncertain::UncertainObject>* out);

  /// Decodes the next min(max, remaining()) records into packed moment
  /// rows: row r's mean / mu2 / var land at [r*dims(), (r+1)*dims()) of the
  /// three arrays and its total variance at total_var[r], packed through
  /// MomentMatrix::PackRow. `*rows` receives the row count (0 at end of
  /// stream). The arrays must hold min(max, remaining()) rows: that many
  /// times dims() doubles (total_var: one per row). `max` must be > 0.
  common::Status ReadMomentRows(std::size_t max, std::size_t* rows,
                                double* mean, double* mu2, double* var,
                                double* total_var);

  /// Reads the labels column (empty when the file is unlabeled). Seeks to
  /// the column and back, so batch streaming is unaffected.
  common::Status ReadLabels(std::vector<int>* labels);

 private:
  common::Status Corrupt(const std::string& msg) const;
  // The one record validator behind ReadBatch and ReadMomentRows: reads and
  // checks `count` records, calling on_pdf(dim, PdfParams&) for every
  // decoded pdf and on_record(row) after each complete record (row is
  // batch-local).
  template <typename OnPdf, typename OnRecord>
  common::Status DecodeRecords(std::size_t count, OnPdf&& on_pdf,
                               OnRecord&& on_record);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string name_;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  int num_classes_ = 0;
  bool has_labels_ = false;
  uint64_t labels_offset_ = 0;
  uint64_t file_size_ = 0;  // bounds-checks untrusted header/record sizes
  std::size_t cursor_ = 0;                 // objects consumed so far
  std::vector<unsigned char> record_buf_;  // reused per-object scratch
};

/// Convenience: reads the whole file into a fully-resident UncertainDataset
/// (labels included). Memory is O(n m) pdf objects — for large files prefer
/// the streaming ingestion in ingest.h.
common::Result<data::UncertainDataset> ReadUncertainDataset(
    const std::string& path);

}  // namespace uclust::io

#endif  // UCLUST_IO_DATASET_READER_H_
