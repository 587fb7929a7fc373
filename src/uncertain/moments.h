// Packed per-object moment statistics and the view interface every
// moment-consuming kernel is written against.
//
// Every "fast" algorithm in the paper (UK-means, MMVar, UCPC) consumes only
// the per-dimension expected values, second-order moments, and variances of
// the objects (Theorem 3 / Lemma 3 / Eq. 8). Those sufficient statistics are
// served through MomentView, a non-owning span-returning accessor with two
// storage shapes behind one hot-loop-friendly API:
//
//   * flat    — four contiguous columns (the Resident MomentStore backend and
//               the classic MomentMatrix); accessors are branch-predictable
//               pointer arithmetic, identical to the historical layout;
//   * chunked — rows grouped into fixed-size chunks (a power of two) served
//               by a MomentChunkSource, which is how the Mapped (out-of-core
//               .umom) backend pages moment columns in and out on demand.
//
// Span-validity contract (chunked views only): a span returned by a chunked
// view stays valid on the calling thread until that thread accesses rows
// from several (>= 8) OTHER chunks. Consumers must therefore not cache row
// spans across object iterations — every kernel in src/clustering and
// src/eval holds at most two distinct rows at once, which is well within the
// window every chunk source keeps mapped. Flat views have no such limit.
#ifndef UCLUST_UNCERTAIN_MOMENTS_H_
#define UCLUST_UNCERTAIN_MOMENTS_H_

#include <cassert>
#include <span>
#include <vector>

#include "uncertain/uncertain_object.h"

namespace uclust::uncertain {

/// Column base pointers of one chunk of moment rows (each column row-major
/// rows_in_chunk x m; total_var of length rows_in_chunk).
struct MomentChunkPtrs {
  const double* mean = nullptr;
  const double* mu2 = nullptr;
  const double* var = nullptr;
  const double* total_var = nullptr;
};

/// Provider of chunk data for chunked MomentViews. Implementations may fault
/// chunks in lazily (the mmap-backed store does); ChunkData must be safe to
/// call concurrently from different threads and the returned pointers must
/// honor the span-validity contract documented at the top of this file.
class MomentChunkSource {
 public:
  virtual ~MomentChunkSource();

  /// Base pointers of chunk `chunk` (0-based). May block on I/O.
  virtual MomentChunkPtrs ChunkData(std::size_t chunk) const = 0;
};

/// Non-owning view over n x m moment statistics. Cheap to copy; the backing
/// storage (MomentMatrix, MomentStore, chunk source) must outlive it.
class MomentView {
 public:
  MomentView() = default;

  /// Flat view over four contiguous columns (row-major n x m; total_var of
  /// length n).
  MomentView(std::size_t n, std::size_t m, const double* mean,
             const double* mu2, const double* var, const double* total_var)
      : n_(n), m_(m), flat_{mean, mu2, var, total_var} {}

  /// Chunked view: rows [c*chunk_rows, min(n, (c+1)*chunk_rows)) live in
  /// chunk c of `source`. `chunk_rows` must be a power of two.
  MomentView(std::size_t n, std::size_t m, std::size_t chunk_rows,
             const MomentChunkSource* source)
      : n_(n), m_(m), mask_(chunk_rows - 1), source_(source) {
    assert(chunk_rows > 0 && (chunk_rows & (chunk_rows - 1)) == 0);
    while ((std::size_t{1} << shift_) < chunk_rows) ++shift_;
  }

  /// Number of objects n.
  std::size_t size() const { return n_; }
  /// Dimensionality m.
  std::size_t dims() const { return m_; }
  /// True when rows are served chunk-by-chunk (the out-of-core shape).
  bool chunked() const { return source_ != nullptr; }
  /// Rows per chunk (meaningful only when chunked()).
  std::size_t chunk_rows() const { return mask_ + 1; }

  /// mu(o_i) as a length-m span.
  std::span<const double> mean(std::size_t i) const {
    if (source_ == nullptr) return {flat_.mean + i * m_, m_};
    return {source_->ChunkData(i >> shift_).mean + (i & mask_) * m_, m_};
  }
  /// mu2(o_i) as a length-m span.
  std::span<const double> second_moment(std::size_t i) const {
    if (source_ == nullptr) return {flat_.mu2 + i * m_, m_};
    return {source_->ChunkData(i >> shift_).mu2 + (i & mask_) * m_, m_};
  }
  /// sigma^2(o_i) per-dimension, as a length-m span.
  std::span<const double> variance(std::size_t i) const {
    if (source_ == nullptr) return {flat_.var + i * m_, m_};
    return {source_->ChunkData(i >> shift_).var + (i & mask_) * m_, m_};
  }
  /// Scalar total variance sigma^2(o_i) (Eq. 6).
  double total_variance(std::size_t i) const {
    if (source_ == nullptr) return flat_.total_var[i];
    return source_->ChunkData(i >> shift_).total_var[i & mask_];
  }

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  unsigned shift_ = 0;
  std::size_t mask_ = 0;
  MomentChunkPtrs flat_{};
  const MomentChunkSource* source_ = nullptr;
};

/// Row-major (n x m) matrices of mean, second moment, and variance, plus the
/// per-object scalar total variance — the flat in-memory packing behind the
/// Resident MomentStore backend and every synthetic moment producer.
class MomentMatrix {
 public:
  MomentMatrix() = default;

  /// Creates an empty matrix with reserved capacity.
  MomentMatrix(std::size_t n, std::size_t m);

  /// Packs the moments of existing uncertain objects.
  static MomentMatrix FromObjects(std::span<const UncertainObject> objects);

  /// Adopts pre-packed flat columns (row-major n x m; total_var of length n).
  /// Used by file ingestion, which decodes the columns batch-by-batch.
  static MomentMatrix FromColumns(std::size_t n, std::size_t m,
                                  std::vector<double> mean,
                                  std::vector<double> mu2,
                                  std::vector<double> var,
                                  std::vector<double> total_var);

  /// The canonical row packing every ingestion path runs through (AppendRow,
  /// the .ubin moment decoder io::BinaryDatasetReader::ReadMomentRows):
  /// copies the three length-m vectors to their destinations and writes the
  /// total-variance sum accumulated in dimension order. Centralizing it here
  /// means the packed layout and the floating-point summation order can
  /// never diverge between in-memory and streamed ingestion.
  static void PackRow(std::span<const double> mean,
                      std::span<const double> mu2, std::span<const double> var,
                      double* mean_dst, double* mu2_dst, double* var_dst,
                      double* total_var_dst);

  /// Appends one object row given its mean/second-moment/variance vectors.
  void AppendRow(std::span<const double> mean, std::span<const double> mu2,
                 std::span<const double> var);

  /// Number of objects n.
  std::size_t size() const { return n_; }
  /// Dimensionality m.
  std::size_t dims() const { return m_; }

  /// Flat view over the packed columns (valid while the matrix is alive and
  /// not reallocated by further AppendRow calls).
  MomentView view() const {
    return MomentView(n_, m_, mean_.data(), mu2_.data(), var_.data(),
                      total_var_.data());
  }
  /// Implicit conversion so every span-view consumer accepts a MomentMatrix
  /// directly (the matrix is just the flat storage behind the view API).
  operator MomentView() const { return view(); }  // NOLINT(runtime/explicit)

  /// mu(o_i) as a length-m span.
  std::span<const double> mean(std::size_t i) const {
    return {mean_.data() + i * m_, m_};
  }
  /// mu2(o_i) as a length-m span.
  std::span<const double> second_moment(std::size_t i) const {
    return {mu2_.data() + i * m_, m_};
  }
  /// sigma^2(o_i) per-dimension, as a length-m span.
  std::span<const double> variance(std::size_t i) const {
    return {var_.data() + i * m_, m_};
  }
  /// Scalar total variance sigma^2(o_i) (Eq. 6).
  double total_variance(std::size_t i) const { return total_var_[i]; }

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::vector<double> mean_;
  std::vector<double> mu2_;
  std::vector<double> var_;
  std::vector<double> total_var_;
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_MOMENTS_H_
