// Memory-budgeted, workload-aware access to symmetric pairwise tables
// (ED^, fuzzy distance, distance probability) behind one interface.
//
// The paper's O(n^2)-class baselines (UK-medoids, UAHC, FOPTICS, FDBSCAN)
// precompute a dense n x n pairwise table, which caps every such workload at
// whatever n^2 doubles fit in RAM. PairwiseStore decouples the access
// pattern from the storage policy with two backends:
//
//   kDense — the classic full table, built once by the triangular kernel
//            (bit-identical values, parallel schedule, and evaluation count
//            of the original offline phase);
//   kTiled — nothing precomputed: sweeps recompute budget-sized row blocks
//            (tile_rows rows each, down to one-row blocks under the tightest
//            budgets) through the engine's blocked kernels, and a requested
//            row is computed on every request. A caller that revisits rows
//            keeps them itself (UAHC's NN-chain holds its chain's rows).
//
// Callers never name the backend: every access reads the table when one is
// materialized and computes what it needs otherwise, and the store counts
// every kernel evaluation itself. Accesses are shaped by the workload
// rather than by a tile grid:
//
//   scoring       — ScoreRow scores one row against a list of columns (the
//                   UK-medoids assignment and objective, the OPTICS walk);
//   rows          — Row serves one full row (NN-chain tips);
//                   VisitSymmetricBlock serves the member x member slab of a
//                   UK-medoids swap sweep, computed in one parallel kernel
//                   pass on the tiled backend;
//   pruned sweeps — VisitUpperTriangleCandidates evaluates only each row's
//                   candidate columns and serves the rest as 0: the caller
//                   has proved those exact values 0 before any kernel
//                   evaluation (FDBSCAN: the distance probability of two
//                   objects whose regions are farther apart than eps; its
//                   columns come from a flat bound pass or an R-tree
//                   query); VisitUpperTriangle is the unpruned sweep.
//
// A row served whole from the dense table counts as a warm hit and a
// computed one as a warm miss; ScoreRow scores part of a row and counts
// only its pair evaluations.
//
// EngineConfig::memory_budget_bytes is the store's only input: it selects
// the backend and sizes the tiles (0 = unlimited = dense). Invariant:
// because every producer evaluates a pair as (min(i, j), max(i, j)), each
// entry is a pure function of that pair, and a pruned pair is skipped only
// when its exact value is proven, both backends serve bit-identical values
// — so every clustering built on the store is identical across budgets and
// thread counts; only memory and recompute cost change.
//
// Thread-safety: ScoreRow may be called from many threads at once; Row and
// the Visit* sweeps are for the algorithm's serial control thread. The
// sweeps parallelize internally and invoke the visitor concurrently (one
// call per row — the visitor owns row-indexed output slots).
#ifndef UCLUST_CLUSTERING_PAIRWISE_STORE_H_
#define UCLUST_CLUSTERING_PAIRWISE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "clustering/clusterer.h"
#include "clustering/kernels.h"
#include "engine/engine.h"

namespace uclust::clustering {

/// Storage policy of a PairwiseStore.
enum class PairwiseBackend { kDense, kTiled };

/// Lower-case display name ("dense", "tiled").
std::string PairwiseBackendName(PairwiseBackend backend);

/// The storage policy a PairwiseStore derives from its memory budget — a
/// read-only report: the budget is the store's only input.
struct PairwiseStoreOptions {
  PairwiseBackend backend = PairwiseBackend::kDense;
  /// The budget the policy was derived from (0 = unlimited).
  std::size_t memory_budget_bytes = 0;
  /// Rows per streaming block of the recomputing sweeps (kTiled: a quarter
  /// of the budget, in rows; kDense, whose upper-triangle sweeps stream
  /// until a table is materialized: a bounded ~1 MiB block). At least 1.
  std::size_t tile_rows = 1;

  /// The policy for an n-object table under `budget_bytes`: unlimited or a
  /// budget the dense table fits in -> kDense; anything smaller -> kTiled.
  static PairwiseStoreOptions FromBudget(std::size_t budget_bytes,
                                         std::size_t n);
};

/// One symmetric pairwise table served through a storage backend.
class PairwiseStore {
 public:
  /// Store over `kernel` with the policy derived from
  /// eng.memory_budget_bytes(). The kernel's referenced objects / sample
  /// cache must outlive the store.
  PairwiseStore(const engine::Engine& eng,
                const kernels::PairwiseKernel& kernel);

  /// Number of objects n (the table is n x n).
  std::size_t size() const { return n_; }
  /// The storage policy in effect.
  PairwiseBackend backend() const { return options_.backend; }
  /// The policy derived from the budget.
  const PairwiseStoreOptions& options() const { return options_; }
  /// Kernel evaluations performed so far (tile recomputation included).
  int64_t evaluations() const { return evaluations_.load(); }
  /// Peak bytes of materialized table storage (dense table and streaming
  /// scratch) held at any one time.
  std::size_t table_bytes_peak() const { return table_bytes_peak_; }
  /// True once the dense table is materialized: every read is then free of
  /// kernel work.
  bool materialized() const { return dense_ready_; }

  /// Builds whatever the backend precomputes (kDense: the full table;
  /// kTiled: nothing). Call inside the offline timing phase to
  /// keep the paper's offline/online accounting for the dense path.
  void Warm();

  /// Scores row i against `cols` (any order, repeats allowed): out[t] =
  /// value(i, cols[t]). Reads the table when one is materialized;
  /// otherwise scores through PairwiseKernel::EvalRow, one call per run of
  /// columns between occurrences of i. A column equal to i yields exactly
  /// 0, as the table's diagonal does, with no evaluation. Safe to call from
  /// many threads at once: each call adds its evaluations to evaluations().
  void ScoreRow(std::size_t i, std::span<const std::size_t> cols,
                double* out);

  /// Row i: a zero-copy span of the dense table (a hit; the kDense backend
  /// materializes its table first), or row i computed into `scratch`,
  /// resized to n (a miss). The span is valid until `scratch` or the store
  /// changes. The primitive for random-access row walks (NN-chain tips).
  std::span<const double> Row(std::size_t i, std::vector<double>* scratch);
  /// Visits each row of the symmetric |ids| x |ids| sub-block (diagonal 0)
  /// — the member x member slab of the UK-medoids swap sweep. The visitor
  /// receives (slot a, length-|ids| span) with span[b] =
  /// value(ids[a], ids[b]), invoked concurrently for different rows. A
  /// materialized table is read back (one hit per row). Otherwise every row
  /// is computed (one miss per row): when the block fits the scratch bound
  /// it is filled pairwise-symmetrically (|ids| * (|ids| - 1) / 2
  /// evaluations); larger blocks stream budget-bounded row stripes
  /// (|ids| - 1 evaluations per row). `ids` must be distinct.
  void VisitSymmetricBlock(std::span<const std::size_t> ids,
                           const std::function<void(
                               std::size_t, std::span<const double>)>& fn);

  /// Rows served whole without kernel work (dense-table reads).
  int64_t warm_hits() const { return warm_hits_; }
  /// Rows served whole that required kernel computation.
  int64_t warm_misses() const { return warm_misses_; }
  /// Pairs a candidate sweep served as 0 instead of evaluating.
  int64_t pruned_pairs() const { return pruned_pairs_; }

  /// Hands the store's counters to `result`: the backend name, the table
  /// peak, pruned pairs, row hits and misses, and the pair evaluations.
  /// ed_evaluations gains the same count when the kernel is sampled (the
  /// closed form integrates nothing).
  void ReportTo(ClusteringResult* result) const;

  /// Visitor for the strict upper-triangle tail of row i: the span covers
  /// entries (i, i+1..n-1), i.e. tail[t] = value(i, i + 1 + t).
  using UpperVisitor =
      std::function<void(std::size_t, std::span<const double>)>;
  /// Visits every upper-triangle row exactly once, each pair evaluated once
  /// (n*(n-1)/2 evaluations on a cold store). Streams bounded scratch blocks
  /// on every backend — nothing is retained — unless a dense table is
  /// already materialized, in which case it is read back directly.
  void VisitUpperTriangle(const UpperVisitor& fn);

  /// VisitUpperTriangle driven by per-row candidate columns (a bound pass's
  /// kept columns, spatial-index range-query hits): exactly candidates(i) —
  /// ascending j > i — are evaluated; the rest of each tail is served as
  /// exactly 0.0 and counted in pruned_pairs(). The caller asserts that
  /// every non-candidate pair's exact value is 0, so the visited tails are
  /// bit-identical to VisitUpperTriangle(fn)'s. An already-materialized
  /// dense table is read back directly (same as VisitUpperTriangle — the
  /// values exist; no pruning counters move).
  void VisitUpperTriangleCandidates(
      const UpperVisitor& fn, const kernels::CandidateColumns& candidates);

 private:
  void EnsureDense();
  /// Fills the upper-triangle rows [r0, r1) into a scratch block (row i at
  /// scratch + (i - r0) * n) and returns the evaluations it made.
  using UpperTileFill =
      std::function<int64_t(std::size_t, std::size_t, double*)>;
  /// The one body of both upper-triangle visits: a materialized dense table
  /// is read back; otherwise `fill` fills bounded scratch blocks, which are
  /// visited and dropped.
  void StreamUpperTriangle(const UpperVisitor& fn, const UpperTileFill& fill);
  void NoteTableBytes(std::size_t extra_scratch_bytes);

  engine::Engine eng_;
  kernels::PairwiseKernel kernel_;
  PairwiseStoreOptions options_;
  std::size_t n_ = 0;
  std::atomic<int64_t> evaluations_{0};
  std::size_t table_bytes_peak_ = 0;

  // kDense state.
  std::vector<double> dense_;
  bool dense_ready_ = false;

  int64_t warm_hits_ = 0;
  int64_t warm_misses_ = 0;
  int64_t pruned_pairs_ = 0;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_PAIRWISE_STORE_H_
