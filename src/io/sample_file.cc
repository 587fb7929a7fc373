#include "io/sample_file.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "engine/parallel_for.h"
#include "io/binary_format.h"  // kEndianTag / kEndianTagSwapped
#include "io/dataset_reader.h"
#include "io/mmap_file.h"
#include "io/sample_format.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace uclust::io {

// ------------------------------------------------------------------ writer --

SampleFileWriter::~SampleFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status SampleFileWriter::Fail(const std::string& msg) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return common::Status::IOError(path_ + ": " + msg);
}

common::Status SampleFileWriter::Open(const std::string& path,
                                      std::size_t dims, int samples_per_object,
                                      uint64_t seed, std::size_t chunk_rows,
                                      uint64_t source_size,
                                      uint64_t source_mtime,
                                      uint64_t source_probe) {
  if (file_ != nullptr) {
    return common::Status::InvalidArgument("sample writer is already open");
  }
  if (dims == 0) return common::Status::InvalidArgument("dims must be > 0");
  if (samples_per_object <= 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  path_ = path;
  m_ = dims;
  samples_ = samples_per_object;
  row_doubles_ = static_cast<std::size_t>(samples_) * m_;
  chunk_rows_ = NormalizeSampleChunkRows(chunk_rows);
  written_ = 0;
  buf_rows_ = 0;
  buf_.resize(chunk_rows_ * row_doubles_);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return common::Status::IOError("cannot create " + path);

  unsigned char header[kSampleHeaderBytes] = {};
  std::memcpy(header, kSampleMagic, sizeof(kSampleMagic));
  const uint32_t endian = kEndianTag;
  const uint32_t version = kSampleFormatVersion;
  const uint64_t n = 0;  // patched by Finish()
  const uint64_t m = m_;
  const uint64_t samples = static_cast<uint64_t>(samples_);
  const uint64_t rows = chunk_rows_;
  std::memcpy(header + 8, &endian, sizeof(endian));
  std::memcpy(header + 12, &version, sizeof(version));
  std::memcpy(header + 16, &n, sizeof(n));
  std::memcpy(header + 24, &m, sizeof(m));
  std::memcpy(header + 32, &samples, sizeof(samples));
  std::memcpy(header + 40, &rows, sizeof(rows));
  std::memcpy(header + 48, &seed, sizeof(seed));
  std::memcpy(header + 56, &source_size, sizeof(source_size));
  std::memcpy(header + 64, &source_mtime, sizeof(source_mtime));
  std::memcpy(header + 72, &source_probe, sizeof(source_probe));
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
    return Fail("short write on header");
  }
  return common::Status::Ok();
}

common::Status SampleFileWriter::FlushChunk() {
  const std::size_t rows = buf_rows_;
  if (rows == 0) return common::Status::Ok();
  if (std::fwrite(buf_.data(), sizeof(double), rows * row_doubles_, file_) !=
      rows * row_doubles_) {
    return Fail("short write on sample chunk");
  }
  buf_rows_ = 0;
  return common::Status::Ok();
}

common::Status SampleFileWriter::AppendRows(std::size_t count,
                                            const double* rows) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("sample writer is not open");
  }
  std::size_t done = 0;
  while (done < count) {
    const std::size_t take = std::min(count - done, chunk_rows_ - buf_rows_);
    std::memcpy(buf_.data() + buf_rows_ * row_doubles_,
                rows + done * row_doubles_,
                take * row_doubles_ * sizeof(double));
    buf_rows_ += take;
    done += take;
    written_ += take;
    if (buf_rows_ == chunk_rows_) UCLUST_RETURN_NOT_OK(FlushChunk());
  }
  return common::Status::Ok();
}

common::Status SampleFileWriter::Finish() {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("sample writer is not open");
  }
  UCLUST_RETURN_NOT_OK(FlushChunk());
  const uint64_t n = written_;
  if (std::fseek(file_, 16, SEEK_SET) != 0 ||
      std::fwrite(&n, sizeof(n), 1, file_) != 1) {
    return Fail("failed to patch header");
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return common::Status::IOError(path_ + ": close failed");
  return common::Status::Ok();
}

// ------------------------------------------------------------------ header --

common::Result<SampleFileInfo> ReadSampleFileInfo(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return common::Status::NotFound("cannot open " + path);
  }
  auto corrupt = [&](const std::string& msg) {
    std::fclose(f);
    return common::Status::IOError(path + ": " + msg);
  };
  // std::filesystem reports 64-bit sizes everywhere; a long-based ftell
  // would cap validatable sidecars at 2 GB on LLP64 platforms.
  std::error_code size_ec;
  const uint64_t file_size =
      static_cast<uint64_t>(std::filesystem::file_size(path, size_ec));
  if (size_ec) return corrupt("cannot determine file size");
  unsigned char header[kSampleHeaderBytes];
  if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
    return corrupt("file too short for a sample-sidecar header");
  }
  std::fclose(f);
  f = nullptr;
  if (std::memcmp(header, kSampleMagic, sizeof(kSampleMagic)) != 0) {
    return common::Status::IOError(
        path + ": bad magic (not a uclust sample sidecar)");
  }
  uint32_t endian = 0, version = 0;
  uint64_t n = 0, m = 0, samples = 0, chunk_rows = 0, seed = 0,
           source_size = 0, source_mtime = 0, source_probe = 0;
  std::memcpy(&endian, header + 8, sizeof(endian));
  std::memcpy(&version, header + 12, sizeof(version));
  std::memcpy(&n, header + 16, sizeof(n));
  std::memcpy(&m, header + 24, sizeof(m));
  std::memcpy(&samples, header + 32, sizeof(samples));
  std::memcpy(&chunk_rows, header + 40, sizeof(chunk_rows));
  std::memcpy(&seed, header + 48, sizeof(seed));
  std::memcpy(&source_size, header + 56, sizeof(source_size));
  std::memcpy(&source_mtime, header + 64, sizeof(source_mtime));
  std::memcpy(&source_probe, header + 72, sizeof(source_probe));
  if (endian == kEndianTagSwapped) {
    return common::Status::IOError(
        path + ": sidecar was written on an opposite-endian machine");
  }
  if (endian != kEndianTag) {
    return common::Status::IOError(
        path + ": bad endianness canary (corrupt header)");
  }
  if (version == 0 || version > kSampleFormatVersion) {
    return common::Status::IOError(
        path + ": unsupported sample-format version " +
        std::to_string(version) + " (reader supports up to " +
        std::to_string(kSampleFormatVersion) + ")");
  }
  if (m == 0) {
    return common::Status::IOError(path + ": header declares zero dimensions");
  }
  if (samples == 0 ||
      samples > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return common::Status::IOError(
        path + ": header samples_per_object out of range");
  }
  if (chunk_rows == 0 || (chunk_rows & (chunk_rows - 1)) != 0) {
    return common::Status::IOError(
        path + ": chunk_rows must be a power of two");
  }
  // The payload size is fully determined by n, S, and m (n rows of S*m
  // doubles); an exact check rejects truncated and padded files alike.
  // Overflow-safe in plain uint64: headers whose n/S/m would wrap the
  // multiplication are rejected before it happens.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (m > kMax / sizeof(double) / samples) {
    return common::Status::IOError(
        path + ": header row shape overflows the size check");
  }
  const uint64_t row_bytes = samples * m * sizeof(double);
  if (n != 0 && row_bytes > (kMax - kSampleHeaderBytes) / n) {
    return common::Status::IOError(
        path + ": header object count overflows the size check");
  }
  if (kSampleHeaderBytes + n * row_bytes != file_size) {
    return common::Status::IOError(
        path + ": physical size does not match header (truncated or padded "
               "sidecar)");
  }
  SampleFileInfo info;
  info.n = static_cast<std::size_t>(n);
  info.m = static_cast<std::size_t>(m);
  info.samples_per_object = static_cast<int>(samples);
  info.chunk_rows = static_cast<std::size_t>(chunk_rows);
  info.seed = seed;
  info.source_size = source_size;
  info.source_mtime = source_mtime;
  info.source_probe = source_probe;
  return info;
}

// ------------------------------------------------------------ mapped store --

namespace {

// Per-thread LRU of mapped chunk windows, shared across every live sample
// store (keyed by store serial + chunk index) — the same discipline as the
// moment-store windows, but a separate pool: sample chunks and moment chunks
// have very different sizes, and one workload faulting both must not let the
// wider rows evict the other store's whole working set.
struct WindowSlot {
  uint64_t serial = 0;  // 0 = empty
  std::size_t chunk = 0;
  uint64_t tick = 0;
  MappedRegion region;
  std::shared_ptr<void> counters;  // type-erased; see Drop()
  std::atomic<std::size_t>* bytes = nullptr;
};

struct WindowCache {
  std::array<WindowSlot, kSampleWindowSlots> slots;
  uint64_t tick = 0;

  static void Drop(WindowSlot* s) {
    if (s->bytes != nullptr && s->region.valid()) {
      s->bytes->fetch_sub(s->region.size(), std::memory_order_relaxed);
    }
    s->region = MappedRegion();
    s->counters.reset();
    s->bytes = nullptr;
    s->serial = 0;
    s->tick = 0;
  }

  ~WindowCache() {
    for (auto& s : slots) Drop(&s);
  }
};

WindowCache& LocalWindows() {
  thread_local WindowCache cache;
  return cache;
}

uint64_t NextStoreSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MappedSampleStore::~MappedSampleStore() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
  if (delete_on_close_) std::remove(path_.c_str());
}

common::Result<std::unique_ptr<MappedSampleStore>> MappedSampleStore::Open(
    const std::string& path) {
  auto info = ReadSampleFileInfo(path);
  if (!info.ok()) return info.status();
  std::unique_ptr<MappedSampleStore> store(new MappedSampleStore());
  store->path_ = path;
  store->n_ = info.ValueOrDie().n;
  store->m_ = info.ValueOrDie().m;
  store->samples_ = info.ValueOrDie().samples_per_object;
  store->chunk_rows_ = info.ValueOrDie().chunk_rows;
  store->seed_ = info.ValueOrDie().seed;
  store->source_size_ = info.ValueOrDie().source_size;
  store->num_chunks_ =
      (store->n_ + store->chunk_rows_ - 1) / store->chunk_rows_;
  store->serial_ = NextStoreSerial();
#if defined(__unix__) || defined(__APPLE__)
  store->fd_ = ::open(path.c_str(), O_RDONLY);
  if (store->fd_ < 0) {
    return common::Status::IOError(path + ": cannot open for mapping");
  }
#endif
  return store;
}

std::size_t MappedSampleStore::RowsInChunk(std::size_t chunk) const {
  const std::size_t begin = chunk * chunk_rows_;
  return std::min(chunk_rows_, n_ - begin);
}

const double* MappedSampleStore::ChunkData(std::size_t chunk) const {
  WindowCache& wc = LocalWindows();
  ++wc.tick;
  WindowSlot* victim = &wc.slots[0];
  for (auto& s : wc.slots) {
    if (s.serial == serial_ && s.chunk == chunk && s.region.valid()) {
      s.tick = wc.tick;
      return reinterpret_cast<const double*>(s.region.data());
    }
    if (s.tick < victim->tick) victim = &s;
  }

  // Fault: evict the thread's least-recently-used window and map the chunk.
  WindowCache::Drop(victim);
  const std::size_t rows = RowsInChunk(chunk);
  const std::size_t s_count = static_cast<std::size_t>(samples_);
  const uint64_t offset =
      kSampleHeaderBytes +
      static_cast<uint64_t>(chunk) * SampleChunkBytes(chunk_rows_, s_count, m_);
  auto region =
      MapFileRegion(fd_, path_, offset, SampleChunkBytes(rows, s_count, m_));
  if (!region.ok()) {
    // The view API is exception- and status-free by design (it sits inside
    // allocation-free hot loops, possibly on pool threads). A chunk that can
    // neither be mapped nor read back is unrecoverable mid-kernel.
    std::fprintf(stderr, "MappedSampleStore: %s\n",
                 region.status().ToString().c_str());
    std::abort();
  }
  victim->serial = serial_;
  victim->chunk = chunk;
  victim->tick = wc.tick;
  victim->region = std::move(region).ValueOrDie();
  victim->counters = counters_;
  victim->bytes = &counters_->bytes;
  if (victim->region.mapped()) {
    counters_->mmap_windows.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t live =
      counters_->bytes.fetch_add(victim->region.size(),
                                 std::memory_order_relaxed) +
      victim->region.size();
  std::size_t peak = counters_->peak.load(std::memory_order_relaxed);
  while (live > peak && !counters_->peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return reinterpret_cast<const double*>(victim->region.data());
}

// ----------------------------------------------------------------- builders --

common::Status WriteSampleFile(const uncertain::SampleView& view,
                               const std::string& path, uint64_t seed,
                               std::size_t chunk_rows, uint64_t source_size) {
  if (view.size() > 0 && view.dims() == 0) {
    return common::Status::InvalidArgument(
        "cannot persist a zero-dimensional sample view");
  }
  SampleFileWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(
      path, std::max<std::size_t>(view.dims(), 1),
      std::max(view.samples_per_object(), 1), seed, chunk_rows, source_size));
  for (std::size_t i = 0; i < view.size(); ++i) {
    UCLUST_RETURN_NOT_OK(writer.AppendRows(1, view.ObjectSamples(i).data()));
  }
  return writer.Finish();
}

namespace {

// Shared tail of the two sidecar builders: unique temp sibling
// (UniqueScratchSiblingPath — concurrent rebuilds must never interleave
// into one tmp inode) + rename into place only on success, so a failed
// rebuild never destroys a previously valid sidecar (and a concurrent
// reader keeps its consistent view of the old inode).
common::Status CommitSidecar(const std::string& tmp_path,
                             const std::string& sidecar_path,
                             const common::Status& built) {
  if (!built.ok()) {
    std::remove(tmp_path.c_str());
    return built;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, sidecar_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return common::Status::IOError(sidecar_path +
                                   ": cannot move rebuilt sidecar into "
                                   "place: " + ec.message());
  }
  return common::Status::Ok();
}

}  // namespace

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
  const std::string tmp_path = UniqueScratchSiblingPath(sidecar_path);
  auto build = [&]() -> common::Status {
    SampleFileWriter writer;
    UCLUST_RETURN_NOT_OK(writer.Open(tmp_path, reader.dims(),
                                     samples_per_object, seed, chunk_rows,
                                     reader.file_bytes(),
                                     FileMTimeTicks(dataset_path),
                                     FileProbeHash(dataset_path)));
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
  };
  return CommitSidecar(tmp_path, sidecar_path, build());
}

common::Status BuildSampleSidecarFromObjects(
    std::span<const uncertain::UncertainObject> objects,
    const std::string& sidecar_path, int samples_per_object, uint64_t seed,
    std::size_t chunk_rows, uint64_t source_size, uint64_t source_mtime,
    uint64_t source_probe) {
  const std::size_t m = objects.empty() ? 1 : objects[0].dims();
  const std::string tmp_path = UniqueScratchSiblingPath(sidecar_path);
  auto build = [&]() -> common::Status {
    SampleFileWriter writer;
    UCLUST_RETURN_NOT_OK(writer.Open(tmp_path, m, samples_per_object, seed,
                                     chunk_rows, source_size, source_mtime,
                                     source_probe));
    const std::size_t row = static_cast<std::size_t>(samples_per_object) * m;
    std::vector<double> scratch(row);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      uncertain::DrawObjectSamples(objects[i], seed, i, samples_per_object,
                                   scratch);
      UCLUST_RETURN_NOT_OK(writer.AppendRows(1, scratch.data()));
    }
    return writer.Finish();
  };
  return CommitSidecar(tmp_path, sidecar_path, build());
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
    const engine::Engine& eng, const SampleStoreOptions& options) {
  if (samples_per_object <= 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  const std::size_t n = data.size();
  const std::size_t m = data.dims();
  const std::size_t s_count = static_cast<std::size_t>(samples_per_object);

  // Backend policy (mirrors StreamMomentStoreFromFile): unlimited budget, or
  // a sample block that fits it, stays resident; anything larger spills to
  // the mmap-backed sidecar.
  SampleBackendChoice choice = options.backend;
  if (choice == SampleBackendChoice::kAuto) {
    const std::size_t budget = eng.memory_budget_bytes();
    const std::size_t resident_bytes = n * s_count * m * sizeof(double);
    choice = (budget == 0 || resident_bytes <= budget)
                 ? SampleBackendChoice::kResident
                 : SampleBackendChoice::kMapped;
  }
  if (choice == SampleBackendChoice::kResident || n == 0) {
    return uncertain::SampleStorePtr(new uncertain::ResidentSampleStore(
        data.objects(), samples_per_object, seed, eng));
  }

  // Sidecar location: an explicit option wins, then the dataset's annotated
  // sidecar (service registry), then a param-encoded sibling of the source
  // file, then a self-deleting temp spill (in-memory dataset, nothing
  // durable to key a reusable file off).
  const std::string& source = data.source_path();
  std::string sidecar = options.sidecar_path;
  if (sidecar.empty()) {
    // The annotated sidecar is one pinned artifact drawn with one (S, seed);
    // every sampled algorithm carries a distinct default seed, so honoring
    // the pin for a mismatched request would rebuild-overwrite the shared
    // file on every alternating job — exactly the churn the param-encoded
    // default path exists to avoid. Use the pin only when its header matches
    // the request; otherwise fall through to the default location.
    const std::string& annotated = data.samples_sidecar_path();
    if (!annotated.empty()) {
      auto pinned = ReadSampleFileInfo(annotated);
      if (pinned.ok() &&
          pinned.ValueOrDie().samples_per_object == samples_per_object &&
          pinned.ValueOrDie().seed == seed) {
        sidecar = annotated;
      }
    }
  }
  if (sidecar.empty() && !source.empty()) {
    sidecar = DefaultSampleSidecarPath(source, samples_per_object, seed);
  }
  const bool temp_spill = sidecar.empty();
  if (temp_spill) sidecar = TempSpillPath();

  // Effective chunk requirement: an explicit hint wins; otherwise, when a
  // budget is set, size chunks so the mapped window caches themselves
  // respect the budget that forced the Mapped backend — every thread keeps
  // up to kSampleWindowSlots windows alive, so threads x slots x chunk
  // bytes must fit. Floor to a power of two, clamped to [16, default] rows
  // (the floor is 4x smaller than the moment store's 64 because a sample
  // row is S times wider than a moment row). 0 = no requirement.
  std::size_t chunk_rows = options.chunk_rows != 0 ? options.chunk_rows
                                                   : eng.sample_chunk_rows();
  if (chunk_rows == 0 && eng.memory_budget_bytes() > 0) {
    const std::size_t window_budget =
        eng.memory_budget_bytes() /
        (static_cast<std::size_t>(eng.num_threads()) * kSampleWindowSlots);
    const std::size_t row_bytes = SampleRowBytes(s_count, m);
    const std::size_t want = window_budget / row_bytes;
    std::size_t pow2 = 1;
    while (pow2 * 2 <= want && pow2 < kDefaultSampleChunkRows) pow2 *= 2;
    chunk_rows = std::max<std::size_t>(pow2, 16);
  }

  // Source staleness guard fields (0 = standalone, in-memory dataset).
  uint64_t source_size = 0, source_mtime = 0, source_probe = 0;
  if (!source.empty()) {
    std::error_code ec;
    source_size =
        static_cast<uint64_t>(std::filesystem::file_size(source, ec));
    if (ec) {
      return common::Status::IOError(source +
                                     ": cannot stat sample-store source");
    }
    source_mtime = FileMTimeTicks(source);
    source_probe = FileProbeHash(source);
  }

  bool reuse = false;
  if (options.reuse_sidecar && !temp_spill) {
    // The guard extends the moment-store staleness check with the draw
    // parameters: a sidecar over the right dataset but drawn with a
    // different seed or S is not the artifact the caller asked for. The
    // chunk requirement mirrors the moment factory: larger chunks would
    // blow the window-memory bound; smaller ones only cost extra faults.
    auto info = ReadSampleFileInfo(sidecar);
    reuse = info.ok() && info.ValueOrDie().n == n &&
            info.ValueOrDie().m == m &&
            info.ValueOrDie().samples_per_object == samples_per_object &&
            info.ValueOrDie().seed == seed &&
            info.ValueOrDie().source_size == source_size &&
            info.ValueOrDie().source_mtime == source_mtime &&
            info.ValueOrDie().source_probe == source_probe &&
            (chunk_rows == 0 ||
             info.ValueOrDie().chunk_rows <=
                 NormalizeSampleChunkRows(chunk_rows));
  }
  if (!reuse) {
    if (!source.empty()) {
      UCLUST_RETURN_NOT_OK(BuildSampleSidecar(source, sidecar,
                                              samples_per_object, seed, eng,
                                              chunk_rows,
                                              options.batch_size));
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
