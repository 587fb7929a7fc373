#include "io/moment_file.h"

#include <algorithm>

#include "io/moment_format.h"

namespace uclust::io {

// ------------------------------------------------------------------ writer --

common::Status MomentFileWriter::Open(const std::string& path,
                                      std::size_t dims,
                                      std::size_t chunk_rows,
                                      const SidecarSource& source) {
  SidecarInfo header;
  header.m = dims;
  header.chunk_rows = chunk_rows;
  header.source = source;
  // A chunk of r rows stores four columns back to back: mean, mu2 and var
  // (r x m each, row-major), then total_var (r).
  UCLUST_RETURN_NOT_OK(
      core_.Open(kMomentLayout, path, header, {dims, dims, dims, 1}));
  m_ = dims;
  return common::Status::Ok();
}

common::Status MomentFileWriter::AppendRows(std::size_t count, std::size_t m,
                                            const double* mean,
                                            const double* mu2,
                                            const double* var,
                                            const double* total_var) {
  if (m != m_) {
    return common::Status::InvalidArgument(
        "moment rows have " + std::to_string(m) + " dims, file has " +
        std::to_string(m_));
  }
  return core_.AppendRows(count, {mean, mu2, var, total_var});
}

// ------------------------------------------------------------------ header --

common::Result<MomentFileInfo> ReadMomentFileInfo(const std::string& path) {
  return ReadSidecarInfo(kMomentLayout, path);
}

// ------------------------------------------------------------ mapped store --

common::Result<std::unique_ptr<MappedMomentStore>> MappedMomentStore::Open(
    const std::string& path) {
  std::unique_ptr<MappedMomentStore> store(new MappedMomentStore());
  UCLUST_RETURN_NOT_OK(store->sidecar_.Open(kMomentLayout, path));
  return store;
}

uncertain::MomentChunkPtrs MappedMomentStore::ChunkData(
    std::size_t chunk) const {
  const double* base = sidecar_.Chunk(chunk);
  const std::size_t column = sidecar_.RowsInChunk(chunk) * sidecar_.info().m;
  return {base, base + column, base + 2 * column, base + 3 * column};
}

// ------------------------------------------------------------- convenience --

common::Status WriteMomentFile(const uncertain::MomentView& view,
                               const std::string& path,
                               std::size_t chunk_rows) {
  if (view.size() > 0 && view.dims() == 0) {
    return common::Status::InvalidArgument(
        "cannot persist a zero-dimensional moment view");
  }
  MomentFileWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(path, std::max<std::size_t>(view.dims(), 1),
                                   chunk_rows));
  for (std::size_t i = 0; i < view.size(); ++i) {
    const double tv = view.total_variance(i);
    UCLUST_RETURN_NOT_OK(writer.AppendRows(
        1, view.dims(), view.mean(i).data(), view.second_moment(i).data(),
        view.variance(i).data(), &tv));
  }
  return writer.Finish();
}

}  // namespace uclust::io
