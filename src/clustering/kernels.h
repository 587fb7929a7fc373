// Shared blocked compute kernels of the clustering stack.
//
// The blocked inner loops shared by the clustering algorithms, formulated
// over MomentView / SampleView blocks and dispatched through the execution
// engine. Every kernel is bit-identical for any Engine thread count (fixed
// block partition + ordered reduction; see engine/parallel_for.h).
//
// CK-means (clustering/ckmeans.h) sums and scores through SumMeansByLabel
// (re-summing only the clusters whose membership changed) and
// AssignmentObjective, so their blocked fold order lives here only; its
// assignment sweep is its own bound-pruned scan (the center-lane kernel
// simd::NearestTwo over a per-iteration copy of the centers).
//
// The pairwise kernels are tile producers: they fill gather tiles (full rows
// for a list of row indices) or the ragged upper-triangle rows of a
// symmetric pairwise table for a PairwiseKernel, so the PairwiseStore
// backends can materialize the table fully or stream it in bounded blocks.
// Every producer scores a row at a time through PairwiseKernel::EvalRow and
// evaluates a pair as (min(i, j), max(i, j)), which makes a given entry
// bit-identical no matter which producer (or backend) computed it.
#ifndef UCLUST_CLUSTERING_KERNELS_H_
#define UCLUST_CLUSTERING_KERNELS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "clustering/simd/simd.h"
#include "engine/parallel_for.h"
#include "uncertain/moments.h"
#include "uncertain/sample_store.h"
#include "uncertain/uncertain_object.h"

namespace uclust::clustering::kernels {

/// Accumulates per-cluster sums of member means and member counts
/// (the centroid-update numerators of Eq. 7). sums is resized to k*m and
/// counts to k. Deterministic for any thread count.
void SumMeansByLabel(const engine::Engine& eng,
                     const uncertain::MomentView& mm,
                     std::span<const int> labels, int k,
                     std::vector<double>* sums,
                     std::vector<std::size_t>* counts);

/// SumMeansByLabel for the clusters c with resum[c] != 0 only: their rows
/// of sums and their counts get the bits the full call gives them (same
/// block partition, in-block order and block-order combine), and every
/// other row is left as it is. sums and counts must already hold k*m and k
/// entries; resum holds k flags. Only the members of re-summed clusters
/// are read.
void SumMeansByLabel(const engine::Engine& eng,
                     const uncertain::MomentView& mm,
                     std::span<const int> labels, int k,
                     std::span<const uint8_t> resum,
                     std::vector<double>* sums,
                     std::vector<std::size_t>* counts);

/// Closed-form UK-means objective of a labeling:
/// sum_i [ sigma^2(o_i) + ||mu(o_i) - c_{label(i)}||^2 ].
double AssignmentObjective(const engine::Engine& eng,
                           const uncertain::MomentView& mm,
                           std::span<const int> labels,
                           std::span<const double> centroids);

/// A pure symmetric pairwise function over an indexed object set — the
/// numeric basis every PairwiseStore backend materializes. Variants:
/// the closed-form expected squared distance ED^ (Lemma 3), the matched-pair
/// sample estimate of ED^ (optionally under a square root, the FOPTICS fuzzy
/// distance), and the FDBSCAN distance probability Pr[dist <= eps].
/// The referenced objects / sample-view backing store must outlive the
/// kernel. The sampled kinds read through uncertain::SampleView, so both
/// the Resident and the Mapped (out-of-core .usmp) SampleStore backends
/// serve them — with bit-identical values, since the bytes behind the view
/// are identical by the sample-store contract. A sampled EvalRow call holds
/// the row plus one four-partner group (fewer than 8 chunks), within the
/// chunked view's span-validity window.
struct PairwiseKernel {
  enum class Kind {
    kClosedFormED2,        ///< ED^ from moments (Lemma 3); no integration.
    kSampleED2,            ///< Matched-pair sampled ED^.
    kSampleED,             ///< sqrt of the sampled ED^ (fuzzy distance).
    kDistanceProbability,  ///< Pr[dist(o_i, o_j) <= eps] over sample pairs.
  };

  /// Closed-form ED^ over uncertain objects.
  static PairwiseKernel ClosedFormED2(
      std::span<const uncertain::UncertainObject> objects) {
    PairwiseKernel k;
    k.kind = Kind::kClosedFormED2;
    k.objects = objects;
    return k;
  }
  /// Matched-pair sample estimate of ED^ over a sample view.
  static PairwiseKernel SampleED2(const uncertain::SampleView& view) {
    PairwiseKernel k;
    k.kind = Kind::kSampleED2;
    k.samples = view;
    return k;
  }
  /// sqrt of the sampled ED^ (the FOPTICS fuzzy distance).
  static PairwiseKernel SampleED(const uncertain::SampleView& view) {
    PairwiseKernel k;
    k.kind = Kind::kSampleED;
    k.samples = view;
    return k;
  }
  /// FDBSCAN distance probability at radius `eps`.
  static PairwiseKernel DistanceProbability(const uncertain::SampleView& view,
                                            double eps) {
    PairwiseKernel k;
    k.kind = Kind::kDistanceProbability;
    k.samples = view;
    k.eps = eps;
    return k;
  }

  /// Number of objects the kernel is defined over.
  std::size_t size() const {
    return kind == Kind::kClosedFormED2 ? objects.size() : samples.size();
  }

  /// True when an evaluation is a sample-integrated ED computation (the
  /// quantity ClusteringResult::ed_evaluations counts; the closed form
  /// counts no integrations).
  bool counts_ed_evaluations() const { return kind != Kind::kClosedFormED2; }

  /// Evaluates row i against count partner columns: out[t] is the value
  /// of the pair (i, cols[t]), computed in its canonical (lo, hi) operand
  /// order, so (i, j) and (j, i) are the same floating-point value (a NaN
  /// stays a NaN; as everywhere in the simd layer, its payload is outside
  /// the contract). Any column order is allowed, partners below and above
  /// i alike; a one-pair call is the single-pair evaluation. The sampled
  /// kinds walk the partners with a SampleView::RowCursor (one chunk
  /// lookup per chunk run, and row i resolved with each run) and score them
  /// four at a time through the four-pair simd kernels, and the last
  /// count % 4 through the single-pair entries from the same cursor.
  void EvalRow(std::size_t i, const std::size_t* cols, std::size_t count,
               double* out) const;

  Kind kind = Kind::kClosedFormED2;
  std::span<const uncertain::UncertainObject> objects{};
  uncertain::SampleView samples{};
  double eps = 0.0;
};

/// Columns per RowBatch flush: the batch's columns, slots and values live
/// on the stack.
inline constexpr std::size_t kRowBatchColumns = 64;

/// Feeds one row's pairs to PairwiseKernel::EvalRow a fixed stack chunk at a
/// time. Add(col, slot) queues partner `col`; when kRowBatchColumns are
/// queued, and at Flush, one EvalRow call scores the queue and hands each
/// (slot, value) to `sink` in queue order, so a consumer that walks its
/// columns in order sees the values in that order. `slot` is the caller's
/// name for the entry (an output column, a block slot).
template <class Sink>
class RowBatch {
 public:
  RowBatch(const PairwiseKernel& kernel, std::size_t row, Sink sink)
      : kernel_(kernel), row_(row), sink_(std::move(sink)) {}

  void Add(std::size_t col, std::size_t slot) {
    cols_[size_] = col;
    slots_[size_] = slot;
    if (++size_ == kRowBatchColumns) Flush();
  }

  void Flush() {
    kernel_.EvalRow(row_, cols_, size_, values_);
    for (std::size_t t = 0; t < size_; ++t) sink_(slots_[t], values_[t]);
    size_ = 0;
  }

 private:
  const PairwiseKernel& kernel_;
  std::size_t row_;
  Sink sink_;
  std::size_t size_ = 0;
  std::size_t cols_[kRowBatchColumns];
  std::size_t slots_[kRowBatchColumns];
  double values_[kRowBatchColumns];
};

/// Fills the full symmetric n x n table for `kernel` (each pair evaluated
/// once on the upper triangle and mirrored, diagonal 0) — the Dense-backend
/// producer, preserving the classic offline-table parallel schedule and
/// evaluation count. dist is resized to n*n. Returns n*(n-1)/2 evaluations.
int64_t FillDenseTriangular(const engine::Engine& eng,
                            const PairwiseKernel& kernel,
                            std::vector<double>* dist);

/// Per-row candidate columns for a candidate-driven upper-triangle sweep:
/// candidates(i) returns the ascending column indices j > i that may have a
/// nonzero kernel value (e.g. spatial-index range-query hits). Must be pure
/// and safe to call concurrently; the returned span must stay valid for the
/// duration of the sweep.
using CandidateColumns =
    std::function<std::span<const std::size_t>(std::size_t)>;

/// Fills the ragged upper-triangle rows [row_begin, row_end) from candidate
/// sets: entry (i, j) for j > i lands at out[(i - row_begin) * n + j],
/// entries j <= i are left untouched. Row i's upper entries are
/// zero-initialized, and exactly the columns in candidates(i) are evaluated,
/// in ascending order. The caller's contract is that every non-candidate
/// pair's exact kernel value is 0 (a bound proved it), so the filled tile is
/// bit-identical to an all-pairs fill; all j > i as candidates is that fill.
/// Parallel over rows. Returns the evaluation count; non-candidates add to
/// *pruned (preserving evals + pruned = pairs swept).
int64_t FillUpperRowTileFromCandidates(const engine::Engine& eng,
                                       const PairwiseKernel& kernel,
                                       std::size_t row_begin,
                                       std::size_t row_end, double* out,
                                       const CandidateColumns& candidates,
                                       int64_t* pruned);

/// Fills an asymmetric "gather tile": full length-n rows for exactly the
/// requested row indices, in one parallel pass. Row r of the request lands
/// at out + r * n. Costs n - 1 evaluations per requested row (diagonal
/// entries are 0).
int64_t FillGatherTile(const engine::Engine& eng, const PairwiseKernel& kernel,
                       std::span<const std::size_t> rows, double* out);

/// Fills the symmetric |ids| x |ids| block (row-major over `ids`): for slots
/// a < b writes the value of (ids[a], ids[b]) into (a, b) AND (b, a) of
/// `out`, and zeroes the diagonal. Costs |ids| * (|ids| - 1) / 2
/// evaluations — the member x member slab of the UK-medoids swap sweep.
/// Parallel over rows; each cell is written exactly once.
int64_t FillSymmetricBlock(const engine::Engine& eng,
                           const PairwiseKernel& kernel,
                           std::span<const std::size_t> ids, double* out);

/// Fills rows [r0, r1) of the symmetric |ids| x |ids| block: row a lands at
/// out + (a - r0) * ids.size(), holding the value of (ids[a], ids[b]) for
/// every b (0 when a == b). Costs |ids| - 1 evaluations per row. Parallel
/// over the rows — the striped producer for blocks too large to
/// materialize whole.
int64_t FillBlockRows(const engine::Engine& eng, const PairwiseKernel& kernel,
                      std::span<const std::size_t> ids, std::size_t r0,
                      std::size_t r1, double* out);

}  // namespace uclust::clustering::kernels

#endif  // UCLUST_CLUSTERING_KERNELS_H_
