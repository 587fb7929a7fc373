#include "io/sample_file.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>

#include "engine/parallel_for.h"
#include "io/dataset_reader.h"
#include "io/sample_format.h"

namespace uclust::io {

// ------------------------------------------------------------------ writer --

common::Status SampleFileWriter::Open(const std::string& path,
                                      std::size_t dims, int samples_per_object,
                                      uint64_t seed, std::size_t chunk_rows,
                                      const SidecarSource& source) {
  if (samples_per_object <= 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  SidecarInfo header;
  header.m = dims;
  header.chunk_rows = chunk_rows;
  header.fields = {static_cast<uint64_t>(samples_per_object), seed};
  header.source = source;
  // One column: a chunk's object rows of S * m doubles back to back.
  return core_.Open(kSampleLayout, path, header,
                    {static_cast<std::size_t>(samples_per_object) * dims});
}

// ------------------------------------------------------------------ header --

common::Result<SampleFileInfo> ReadSampleFileInfo(const std::string& path) {
  return ReadSidecarInfo(kSampleLayout, path);
}

// ------------------------------------------------------------ mapped store --

MappedSampleStore::~MappedSampleStore() {
  if (delete_on_close_) std::remove(sidecar_.path().c_str());
}

common::Result<std::unique_ptr<MappedSampleStore>> MappedSampleStore::Open(
    const std::string& path) {
  std::unique_ptr<MappedSampleStore> store(new MappedSampleStore());
  UCLUST_RETURN_NOT_OK(store->sidecar_.Open(kSampleLayout, path));
  return store;
}

// ----------------------------------------------------------------- builders --

common::Status WriteSampleFile(const uncertain::SampleView& view,
                               const std::string& path, uint64_t seed,
                               std::size_t chunk_rows) {
  if (view.size() > 0 && view.dims() == 0) {
    return common::Status::InvalidArgument(
        "cannot persist a zero-dimensional sample view");
  }
  SampleFileWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(
      path, std::max<std::size_t>(view.dims(), 1),
      std::max(view.samples_per_object(), 1), seed, chunk_rows));
  for (std::size_t i = 0; i < view.size(); ++i) {
    UCLUST_RETURN_NOT_OK(writer.AppendRows(1, view.ObjectSamples(i).data()));
  }
  return writer.Finish();
}

common::Status BuildSampleSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  int samples_per_object, uint64_t seed,
                                  const engine::Engine& eng,
                                  std::size_t chunk_rows,
                                  std::size_t batch_size) {
  if (batch_size == 0) {
    return common::Status::InvalidArgument("batch_size must be > 0");
  }
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(dataset_path));
  auto source = DescribeSource(dataset_path);
  UCLUST_RETURN_NOT_OK(source.status());
  return CommitSidecarBuild(sidecar_path, [&](const std::string& tmp_path) {
    SampleFileWriter writer;
    UCLUST_RETURN_NOT_OK(writer.Open(tmp_path, reader.dims(),
                                     samples_per_object, seed, chunk_rows,
                                     source.ValueOrDie()));
    const std::size_t row =
        static_cast<std::size_t>(samples_per_object) * reader.dims();
    std::vector<uncertain::UncertainObject> batch;
    std::vector<double> scratch;
    std::size_t base = 0;
    while (reader.remaining() > 0) {
      UCLUST_RETURN_NOT_OK(reader.ReadBatch(batch_size, &batch));
      if (batch.empty()) break;
      scratch.resize(batch.size() * row);
      // Absolute object indices seed the sub-streams, so the bytes are
      // independent of the batch partition (and identical to the Resident
      // backend's draws).
      engine::ParallelFor(eng, batch.size(),
                          [&](const engine::BlockedRange& r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          uncertain::DrawObjectSamples(
              batch[i], seed, base + i, samples_per_object,
              std::span<double>(scratch.data() + i * row, row));
        }
      });
      UCLUST_RETURN_NOT_OK(writer.AppendRows(batch.size(), scratch.data()));
      base += batch.size();
    }
    if (writer.written() != reader.size()) {
      return common::Status::Internal(
          dataset_path + ": sampled " + std::to_string(writer.written()) +
          " of " + std::to_string(reader.size()) + " objects");
    }
    return writer.Finish();
  });
}

common::Status BuildSampleSidecarFromObjects(
    std::span<const uncertain::UncertainObject> objects,
    const std::string& sidecar_path, int samples_per_object, uint64_t seed,
    std::size_t chunk_rows) {
  const std::size_t m = objects.empty() ? 1 : objects[0].dims();
  return CommitSidecarBuild(sidecar_path, [&](const std::string& tmp_path) {
    SampleFileWriter writer;
    UCLUST_RETURN_NOT_OK(
        writer.Open(tmp_path, m, samples_per_object, seed, chunk_rows));
    const std::size_t row = static_cast<std::size_t>(samples_per_object) * m;
    std::vector<double> scratch(row);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      uncertain::DrawObjectSamples(objects[i], seed, i, samples_per_object,
                                   scratch);
      UCLUST_RETURN_NOT_OK(writer.AppendRows(1, scratch.data()));
    }
    return writer.Finish();
  });
}

// ------------------------------------------------------------------ factory --

std::string DefaultSampleSidecarPath(const std::string& dataset_path,
                                     int samples_per_object, uint64_t seed) {
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".s%d-%016llx.usmp",
                samples_per_object,
                static_cast<unsigned long long>(seed));
  return dataset_path + suffix;
}

namespace {

// Temp spill location for in-memory datasets: unique per (process, call) so
// concurrent stores never collide — two stores sharing a spill name would
// each unlink it on close, deleting the other's live file; the store unlinks
// it on destruction.
std::string TempSpillPath() {
  static std::atomic<uint64_t> next{1};
  const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) dir = ".";
  char name[96];
  std::snprintf(name, sizeof(name), "uclust-samples-%llx-%llu.usmp",
                static_cast<unsigned long long>(ProcessUniqueToken()),
                static_cast<unsigned long long>(id));
  return (dir / name).string();
}

}  // namespace

common::Result<uncertain::SampleStorePtr> MakeSampleStore(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng) {
  if (samples_per_object <= 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  const std::size_t n = data.size();
  const std::size_t m = data.dims();
  const std::size_t s_count = static_cast<std::size_t>(samples_per_object);

  // Backend policy (mirrors StreamMomentStoreFromFile): unlimited budget, or
  // a sample block that fits it, stays resident; anything larger spills to
  // the mmap-backed sidecar.
  const std::size_t budget = eng.memory_budget_bytes();
  if (budget == 0 || n * s_count * m * sizeof(double) <= budget) {
    return uncertain::SampleStorePtr(new uncertain::ResidentSampleStore(
        data.objects(), samples_per_object, seed, eng));
  }

  // Sidecar location: the dataset's annotated sidecar (service registry),
  // then a param-encoded sibling of the source file, then a self-deleting
  // temp spill (in-memory dataset, nothing durable to key a reusable file
  // off). The annotated sidecar is one pinned artifact drawn with one
  // (S, seed); every sampled algorithm carries a distinct default seed, so
  // honoring the pin for a mismatched request would rebuild-overwrite the
  // shared file on every alternating job — exactly the churn the
  // param-encoded default path exists to avoid. Use the pin only when its
  // header matches the request; otherwise fall through to the default
  // location.
  const std::string& source = data.source_path();
  std::string sidecar;
  const std::string& annotated = data.samples_sidecar_path();
  if (!annotated.empty()) {
    auto pinned = ReadSampleFileInfo(annotated);
    if (pinned.ok() && pinned.ValueOrDie().fields[0] == s_count &&
        pinned.ValueOrDie().fields[1] == seed) {
      sidecar = annotated;
    }
  }
  if (sidecar.empty() && !source.empty()) {
    sidecar = DefaultSampleSidecarPath(source, samples_per_object, seed);
  }
  const bool temp_spill = sidecar.empty();
  if (temp_spill) sidecar = TempSpillPath();

  // The reuse guard extends the moment store's with the draw parameters: a
  // sidecar over the right dataset but drawn with a different seed or S is
  // not the artifact the caller asked for. In-memory datasets keep the
  // source triple at 0 (standalone).
  SidecarInfo want;
  want.n = n;
  want.m = m;
  want.fields = {s_count, seed};
  if (!source.empty()) {
    auto described = DescribeSource(source);
    UCLUST_RETURN_NOT_OK(described.status());
    want.source = described.ValueOrDie();
  }
  const std::size_t chunk_rows =
      SidecarChunkRequirement(kSampleLayout, budget, eng.num_threads(),
                              SidecarRowBytes(kSampleLayout, want));
  if (temp_spill ||
      !SidecarReusable(kSampleLayout, sidecar, want, chunk_rows)) {
    if (!source.empty()) {
      UCLUST_RETURN_NOT_OK(BuildSampleSidecar(
          source, sidecar, samples_per_object, seed, eng, chunk_rows));
    } else {
      UCLUST_RETURN_NOT_OK(BuildSampleSidecarFromObjects(
          data.objects(), sidecar, samples_per_object, seed, chunk_rows));
    }
  }
  auto store = MappedSampleStore::Open(sidecar);
  UCLUST_RETURN_NOT_OK(store.status());
  if (store.ValueOrDie()->size() != n || store.ValueOrDie()->dims() != m ||
      store.ValueOrDie()->samples_per_object() != samples_per_object) {
    return common::Status::Internal(
        sidecar + ": sidecar shape does not match the dataset");
  }
  if (temp_spill) store.ValueOrDie()->set_delete_on_close(true);
  return uncertain::SampleStorePtr(std::move(store).ValueOrDie());
}

uncertain::SampleStorePtr MakeSampleStoreOrResident(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng) {
  auto store = MakeSampleStore(data, samples_per_object, seed, eng);
  if (store.ok()) return std::move(store).ValueOrDie();
  std::fprintf(stderr,
               "sample store: %s; falling back to the resident backend\n",
               store.status().ToString().c_str());
  return uncertain::SampleStorePtr(new uncertain::ResidentSampleStore(
      data.objects(), samples_per_object, seed, eng));
}

}  // namespace uclust::io
