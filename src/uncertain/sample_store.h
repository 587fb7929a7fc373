// The SampleStore abstraction: Monte-Carlo realizations behind the
// SampleView span interface.
//
// The sample-based algorithms (UK-medoids fuzzy distance, basic UK-means,
// FDBSCAN, FOPTICS) integrate numerically over a fixed set of S realizations
// per object. Historically those draws lived in one resident O(n S m) block
// (SampleCache) — after moments and pairwise tables became budget-governed,
// the last artifact forcing sampled workloads to fit in RAM. A SampleStore
// decouples how the draws are OWNED from how kernels READ them (always
// through SampleView):
//
//   kResident — one flat std::vector block (the historical layout); the
//               default, zero-copy spans, no per-access indirection;
//   kMapped   — draws persisted to a versioned, endianness-checked .usmp
//               sidecar file and served chunk-by-chunk through mmap windows
//               (io::MappedSampleStore), so datasets whose sample block
//               exceeds RAM — or the configured
//               EngineConfig::memory_budget_bytes — still cluster.
//
// Invariant: both backends serve bit-identical doubles. The bytes come from
// one canonical draw function, DrawObjectSamples, which seeds object i's
// sub-stream from common::DeriveSeed(seed, i) — so the draws never depend on
// which objects were materialized first, in what order, or by which backend.
// Every sampled clustering built on a store is therefore identical across
// backends, chunk sizes, thread counts, and regenerate-vs-reuse sidecar
// paths (tests/test_sample_store.cc, tests/test_parallel_determinism.cc).
//
// Span-validity contract (chunked views only): a span returned by a chunked
// view stays valid on the calling thread until that thread accesses objects
// from several (>= 8) OTHER chunks. Consumers must not cache sample spans
// across object iterations — every sampled kernel holds at most one row
// object plus one four-partner group at once (SampleView::RowCursor below):
// five rows from at most five chunks, within the window every chunk source
// keeps mapped. Flat views have no such limit.
//
// Layering: this header owns the interface, the canonical draw, and the
// Resident backend; the Mapped backend and the backend-selecting factory
// live in src/io (sample_file.h) because they need the file format and mmap.
#ifndef UCLUST_UNCERTAIN_SAMPLE_STORE_H_
#define UCLUST_UNCERTAIN_SAMPLE_STORE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "uncertain/uncertain_object.h"

namespace uclust::uncertain {

/// Storage policy of a SampleStore.
enum class SampleBackend { kResident, kMapped };

/// Lower-case display name ("resident", "mapped").
std::string SampleBackendName(SampleBackend backend);

/// The canonical draw: fills `out` (size S * m) with the S realizations of
/// `object`, which is object number `index` of its dataset, drawn from the
/// sub-stream common::DeriveSeed(seed, index). Every producer of sample
/// bytes — the Resident fill, the .usmp sidecar writer, dataset_gen
/// --emit-samples — runs through this function, so the bytes for object i
/// are a pure function of (pdf records, seed, i, S) and never of visitation
/// or materialization order.
void DrawObjectSamples(const UncertainObject& object, uint64_t seed,
                       std::size_t index, int samples_per_object,
                       std::span<double> out);

/// Provider of chunk data for chunked SampleViews. Implementations may fault
/// chunks in lazily (the mmap-backed store does); ChunkData must be safe to
/// call concurrently from different threads and the returned pointer must
/// honor the span-validity contract documented at the top of this file.
class SampleChunkSource {
 public:
  virtual ~SampleChunkSource();

  /// Base pointer of chunk `chunk` (0-based): rows_in_chunk back-to-back
  /// object rows of S * m doubles. May block on I/O.
  virtual const double* ChunkData(std::size_t chunk) const = 0;
};

/// Non-owning view over n objects' samples (S realizations of dimension m
/// each, object-major then sample then dimension). Cheap to copy; the
/// backing storage must outlive it.
class SampleView {
 public:
  SampleView() = default;

  /// Flat view over one contiguous n * S * m block.
  SampleView(std::size_t n, int samples_per_object, std::size_t m,
             const double* data)
      : n_(n), samples_(samples_per_object), m_(m), flat_(data) {}

  /// Chunked view: objects [c*chunk_rows, min(n, (c+1)*chunk_rows)) live in
  /// chunk c of `source`. `chunk_rows` must be a power of two.
  SampleView(std::size_t n, int samples_per_object, std::size_t m,
             std::size_t chunk_rows, const SampleChunkSource* source)
      : n_(n), samples_(samples_per_object), m_(m), mask_(chunk_rows - 1),
        source_(source) {
    assert(chunk_rows > 0 && (chunk_rows & (chunk_rows - 1)) == 0);
    while ((std::size_t{1} << shift_) < chunk_rows) ++shift_;
  }

  /// Number of objects n.
  std::size_t size() const { return n_; }
  /// Realizations per object S.
  int samples_per_object() const { return samples_; }
  /// Dimensionality m of each realization.
  std::size_t dims() const { return m_; }
  /// True when rows are served chunk-by-chunk (the out-of-core shape).
  bool chunked() const { return source_ != nullptr; }
  /// Objects per chunk (meaningful only when chunked()).
  std::size_t chunk_rows() const { return mask_ + 1; }

  /// All S realizations of object i as one contiguous S * m span.
  std::span<const double> ObjectSamples(std::size_t i) const {
    const std::size_t row = row_size();
    if (source_ == nullptr) return {flat_ + i * row, row};
    return {source_->ChunkData(i >> shift_) + (i & mask_) * row, row};
  }

  /// Resolves one row object and a walk of partners (defined below).
  class RowCursor;

  /// The s-th realization of object i, as a length-m span.
  std::span<const double> SampleOf(std::size_t i, int s) const {
    assert(s >= 0 && s < samples_);
    return ObjectSamples(i).subspan(static_cast<std::size_t>(s) * m_, m_);
  }

  /// Sample-average of ||x - y||^2 over the realizations of object i (the
  /// basic UK-means expected-distance estimator). O(S * m).
  double ExpectedSquaredDistanceToPoint(std::size_t i,
                                        std::span<const double> y) const;

 private:
  std::size_t row_size() const {
    return static_cast<std::size_t>(samples_) * m_;
  }

  std::size_t n_ = 0;
  int samples_ = 0;
  std::size_t m_ = 0;
  unsigned shift_ = 0;
  std::size_t mask_ = 0;
  const double* flat_ = nullptr;
  const SampleChunkSource* source_ = nullptr;
};

/// One thread's walk from a pinned object (the row) over many partner
/// objects, as PairwiseKernel::EvalRow pairs them. Partners go through a
/// chunk-run cursor that reuses the chunk base pointer while consecutive
/// partners share a chunk, so a chunked view pays one ChunkData call per
/// chunk run instead of one per partner. On a chunked view the row is
/// looked up with each partner run, never before the first: from the run's
/// own base when the run lies in the row's chunk, else by one more lookup
/// (a window hit). So the row stays among the thread's most recent chunks
/// and its pointer valid, however many chunks the partners cross, and a
/// walk whose partners all share the row's chunk makes one lookup. Read
/// row() only after resolving the partners it is paired with. Spans obey
/// the span-validity contract above: the row plus up to four partners
/// resolved since stay valid together.
class SampleView::RowCursor {
 public:
  RowCursor(const SampleView& view, std::size_t row)
      : view_(view),
        row_index_(row),
        row_(view.chunked() ? nullptr : view.flat_ + row * view.row_size()) {}

  /// The row object's S * m realizations (after the first Partner call on
  /// a chunked view).
  const double* row() const { return row_; }

  /// Partner object j's S * m realizations.
  const double* Partner(std::size_t j) {
    if (view_.source_ == nullptr) return view_.flat_ + j * view_.row_size();
    const std::size_t chunk = j >> view_.shift_;
    if (chunk != chunk_) StartRun(chunk);
    return base_ + (j & view_.mask_) * view_.row_size();
  }

 private:
  void StartRun(std::size_t chunk) {
    chunk_ = chunk;
    base_ = view_.source_->ChunkData(chunk);
    const std::size_t row_chunk = row_index_ >> view_.shift_;
    const double* row_base = chunk == row_chunk
                                 ? base_
                                 : view_.source_->ChunkData(row_chunk);
    row_ = row_base + (row_index_ & view_.mask_) * view_.row_size();
  }

  const SampleView& view_;
  std::size_t row_index_;
  const double* row_;
  // Chunk of the current partner run; none before the first partner.
  std::size_t chunk_ = static_cast<std::size_t>(-1);
  const double* base_ = nullptr;  // its base pointer
};

/// One dataset's sample set behind an ownership backend.
class SampleStore {
 public:
  virtual ~SampleStore();

  /// The storage policy in effect.
  virtual SampleBackend backend() const = 0;
  /// Span-returning view every sampled kernel consumes. Cheap; valid while
  /// the store is alive.
  virtual SampleView view() const = 0;
  /// Bytes of sample storage pinned in process memory: the full block for
  /// the Resident backend, the peak bytes of simultaneously mapped chunk
  /// windows for the Mapped backend.
  virtual std::size_t sample_bytes_resident() const = 0;
  /// Path of the .usmp sidecar backing the store ("" for Resident).
  virtual const std::string& sidecar_path() const;

  /// Number of objects n.
  std::size_t size() const { return view().size(); }
  /// Realizations per object S.
  int samples_per_object() const { return view().samples_per_object(); }
  /// Dimensionality m.
  std::size_t dims() const { return view().dims(); }
};

using SampleStorePtr = std::unique_ptr<SampleStore>;

/// The Resident backend: owns one flat block, filled in parallel through the
/// canonical per-object draw (bit-identical for any thread count).
class ResidentSampleStore final : public SampleStore {
 public:
  ResidentSampleStore(std::span<const UncertainObject> objects,
                      int samples_per_object, uint64_t seed,
                      const engine::Engine& eng = engine::Engine::Serial());

  SampleBackend backend() const override { return SampleBackend::kResident; }
  SampleView view() const override {
    return SampleView(count_, samples_, dims_, data_.data());
  }
  std::size_t sample_bytes_resident() const override {
    return data_.size() * sizeof(double);
  }

 private:
  std::size_t count_;
  int samples_;
  std::size_t dims_;
  std::vector<double> data_;  // count * samples * dims
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_SAMPLE_STORE_H_
