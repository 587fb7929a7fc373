#include "io/ingest.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "io/chunked_sidecar.h"
#include "io/dataset_reader.h"
#include "io/moment_file.h"
#include "io/moment_format.h"

namespace uclust::io {

namespace {

// Decodes every remaining record of `reader` into flat columns, `batch_size`
// rows per decode call.
common::Result<uncertain::MomentMatrix> ReadAllMoments(
    BinaryDatasetReader* reader, std::size_t batch_size) {
  const std::size_t n = reader->size();
  const std::size_t m = reader->dims();
  std::vector<double> mean(n * m), mu2(n * m), var(n * m), total_var(n);
  for (std::size_t done = 0; done < n;) {
    std::size_t rows = 0;
    UCLUST_RETURN_NOT_OK(reader->ReadMomentRows(
        batch_size, &rows, mean.data() + done * m, mu2.data() + done * m,
        var.data() + done * m, total_var.data() + done));
    done += rows;
  }
  return uncertain::MomentMatrix::FromColumns(n, m, std::move(mean),
                                              std::move(mu2), std::move(var),
                                              std::move(total_var));
}

}  // namespace

common::Result<uncertain::MomentMatrix> StreamMomentsFromFile(
    const std::string& path, std::size_t batch_size, std::vector<int>* labels,
    std::string* dataset_name) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  auto mm = ReadAllMoments(&reader, batch_size);
  UCLUST_RETURN_NOT_OK(mm.status());
  if (labels != nullptr) UCLUST_RETURN_NOT_OK(reader.ReadLabels(labels));
  if (dataset_name != nullptr) *dataset_name = reader.name();
  return mm;
}

bool ResidentMomentsFit(std::size_t n, std::size_t m,
                        const engine::Engine& eng) {
  const std::size_t budget = eng.memory_budget_bytes();
  return budget == 0 || (3 * m + 1) * n * sizeof(double) <= budget;
}

common::Status BuildMomentSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  std::size_t chunk_rows,
                                  std::size_t batch_size) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(dataset_path));
  auto source = DescribeSource(dataset_path);
  UCLUST_RETURN_NOT_OK(source.status());
  return CommitSidecarBuild(sidecar_path, [&](const std::string& tmp_path) {
    MomentFileWriter writer;
    UCLUST_RETURN_NOT_OK(writer.Open(tmp_path, reader.dims(), chunk_rows,
                                     source.ValueOrDie()));
    // O(batch m) scratch, decoded into and handed to the writer per batch.
    const std::size_t m = reader.dims();
    const std::size_t scratch = std::min(batch_size, reader.size());
    std::vector<double> mean(scratch * m), mu2(scratch * m), var(scratch * m),
        total_var(scratch);
    while (reader.remaining() > 0) {
      std::size_t rows = 0;
      UCLUST_RETURN_NOT_OK(reader.ReadMomentRows(batch_size, &rows,
                                                 mean.data(), mu2.data(),
                                                 var.data(), total_var.data()));
      UCLUST_RETURN_NOT_OK(writer.AppendRows(rows, m, mean.data(), mu2.data(),
                                             var.data(), total_var.data()));
    }
    return writer.Finish();
  });
}

common::Result<uncertain::MomentStorePtr> StreamMomentStoreFromFile(
    const std::string& path, const engine::Engine& eng,
    const std::string& sidecar_path, std::vector<int>* labels,
    std::string* dataset_name) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  const std::size_t n = reader.size();
  const std::size_t m = reader.dims();

  // Backend policy (mirrors the PairwiseStore budget rule): unlimited
  // budget, or columns that fit it, stay resident; anything larger spills to
  // the mmap-backed sidecar. The header gives n and m before ingestion, so
  // the decision never requires materializing anything.
  if (ResidentMomentsFit(n, m, eng)) {
    auto mm = ReadAllMoments(&reader, kDefaultIngestBatch);
    UCLUST_RETURN_NOT_OK(mm.status());
    if (labels != nullptr) UCLUST_RETURN_NOT_OK(reader.ReadLabels(labels));
    if (dataset_name != nullptr) *dataset_name = reader.name();
    return uncertain::MomentStorePtr(
        new uncertain::ResidentMomentStore(std::move(mm).ValueOrDie()));
  }

  const std::string sidecar =
      sidecar_path.empty() ? path + ".umom" : sidecar_path;
  auto source = DescribeSource(path);
  UCLUST_RETURN_NOT_OK(source.status());
  SidecarInfo want;
  want.n = n;
  want.m = m;
  want.source = source.ValueOrDie();
  const std::size_t chunk_rows = SidecarChunkRequirement(
      kMomentLayout, eng.memory_budget_bytes(), eng.num_threads(),
      SidecarRowBytes(kMomentLayout, want));
  if (!SidecarReusable(kMomentLayout, sidecar, want, chunk_rows)) {
    UCLUST_RETURN_NOT_OK(BuildMomentSidecar(path, sidecar, chunk_rows));
  }
  auto store = MappedMomentStore::Open(sidecar);
  UCLUST_RETURN_NOT_OK(store.status());
  if (store.ValueOrDie()->size() != n || store.ValueOrDie()->dims() != m) {
    return common::Status::Internal(sidecar +
                                    ": sidecar shape does not match " + path);
  }
  if (labels != nullptr) UCLUST_RETURN_NOT_OK(reader.ReadLabels(labels));
  if (dataset_name != nullptr) *dataset_name = reader.name();
  return uncertain::MomentStorePtr(std::move(store).ValueOrDie());
}

}  // namespace uclust::io
