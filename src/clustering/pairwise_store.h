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
//            budgets) through the engine's blocked kernels, and gathered rows
//            are kept in an LRU warm-row cache when the budget's warm
//            carve-out holds a row.
//
// Every access is shaped by the workload rather than by a tile grid:
//
//   gathers       — GatherRows/VisitSymmetricBlock compute asymmetric
//                   candidate x n (or member x member) slabs: exactly the
//                   entries a medoid gather or swap sweep reads, in one
//                   parallel kernel pass;
//   warm rows     — rows computed by GatherRow/GatherRows are retained in a
//                   budget-bounded LRU cache and served back without kernel
//                   work (hit/miss counters); a base row is a pure function
//                   of its index, so a retained row is never stale and the
//                   capacity is the only bound;
//   pruned sweeps — VisitUpperTriangle accepts a cheap pair predicate that
//                   skips pairs whose exact value is provably 0 (e.g. the
//                   FDBSCAN distance probability of two objects whose
//                   regions are farther apart than eps) before any kernel
//                   evaluation.
//
// EngineConfig::memory_budget_bytes is the store's only input: it selects
// the backend and sizes the tiles and the warm cache (0 = unlimited =
// dense). Invariant: because every producer evaluates a pair as
// (min(i, j), max(i, j)), each entry is a pure function of that pair, and a
// pruned pair is skipped only when its exact value is proven, both backends
// serve bit-identical values — so every clustering built on the store is
// identical across budgets and thread counts; only memory and recompute
// cost change.
//
// Thread-safety: the random-access API (GatherRow/GatherRows) is for the
// algorithm's serial control thread; the Visit* sweeps parallelize
// internally and invoke the visitor concurrently (one call per row — the
// visitor owns row-indexed output slots).
#ifndef UCLUST_CLUSTERING_PAIRWISE_STORE_H_
#define UCLUST_CLUSTERING_PAIRWISE_STORE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

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
  /// of what the budget leaves after the warm carve-out, in rows; kDense,
  /// whose upper-triangle sweeps stream until a table is materialized: a
  /// bounded ~1 MiB block). At least 1.
  std::size_t tile_rows = 1;
  /// Warm-row cache capacity in bytes, carved out of the budget (kTiled
  /// only; kDense reads are already free). 0 = the cache is off.
  std::size_t warm_capacity_bytes = 0;

  /// The policy for an n-object table under `budget_bytes`: unlimited or a
  /// budget the dense table fits in -> kDense; anything smaller -> kTiled,
  /// with warm rows given a quarter of the budget when one row fits without
  /// pushing the rest below two rows.
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
  int64_t evaluations() const { return evaluations_; }
  /// Same, but 0 when the kernel is closed-form — the exact quantity
  /// ClusteringResult::ed_evaluations accounts for.
  int64_t ed_evaluations() const {
    return kernel_.counts_ed_evaluations() ? evaluations_ : 0;
  }
  /// Peak bytes of materialized table storage (dense table, warm rows, and
  /// streaming scratch) held at any one time.
  std::size_t table_bytes_peak() const { return table_bytes_peak_; }

  /// Builds whatever the backend precomputes (kDense: the full table;
  /// kTiled: nothing). Call inside the offline timing phase to
  /// keep the paper's offline/online accounting for the dense path.
  void Warm();

  /// Row i as a zero-copy span when the dense table is materialized; an
  /// empty span otherwise. Never computes.
  std::span<const double> ResidentRow(std::size_t i) const;
  /// Copies row i into `out` (resized to n): a dense-table or warm row is
  /// read back; anything else computes only row i (and retains it in the
  /// warm cache when one is on). The primitive for random-access row walks
  /// (the OPTICS ordering, NN-chain tips, medoid gathers).
  void GatherRow(std::size_t i, std::vector<double>* out);
  /// Materializes the given rows into `out`, row-major rows.size() x n:
  /// rows already materialized (dense / warm) are copied, the rest are
  /// computed as one asymmetric gather tile in a single parallel kernel
  /// pass (and retained in the warm cache when one is on).
  void GatherRows(std::span<const std::size_t> rows, std::vector<double>* out);
  /// Visits each row of the symmetric |ids| x |ids| sub-block (diagonal 0)
  /// — the member x member slab of the UK-medoids swap sweep. The visitor
  /// receives (slot a, length-|ids| span) with span[b] =
  /// value(ids[a], ids[b]), invoked concurrently for different rows. A
  /// materialized dense table is read back (rows count as hits); otherwise
  /// every row is computed (and counted as a miss) — never from the warm
  /// cache, and never retained in it. When the block fits the scratch bound
  /// it is filled pairwise-symmetrically (|ids| * (|ids| - 1) / 2
  /// evaluations); larger blocks stream budget-bounded row stripes
  /// (|ids| - 1 evaluations per row). `ids` must be distinct.
  void VisitSymmetricBlock(std::span<const std::size_t> ids,
                           const std::function<void(
                               std::size_t, std::span<const double>)>& fn);

  /// Gathered rows served without kernel work (warm cache or dense table).
  int64_t warm_hits() const { return warm_hits_; }
  /// Gathered rows that required kernel computation.
  int64_t warm_misses() const { return warm_misses_; }
  /// Bytes currently held by the warm-row cache.
  std::size_t warm_bytes() const { return warm_bytes_; }
  /// Pairs skipped by the sweep predicate instead of evaluated.
  int64_t pruned_pairs() const { return pruned_pairs_; }

  /// Visitor for one full row: (row index, length-n span).
  using RowVisitor = std::function<void(std::size_t, std::span<const double>)>;
  /// Visits every row 0..n-1 exactly once. Parallel: the visitor is invoked
  /// concurrently for different rows. kDense reads the table; kTiled
  /// streams blocks of tile_rows rows (n*(n-1) evaluations — both halves
  /// of every pair).
  void VisitAllRows(const RowVisitor& fn);

  /// Visitor for the strict upper-triangle tail of row i: the span covers
  /// entries (i, i+1..n-1), i.e. tail[t] = value(i, i + 1 + t).
  using UpperVisitor = RowVisitor;
  /// Visits every upper-triangle row exactly once. Without `skip`, each pair
  /// is evaluated once (n*(n-1)/2 evaluations on a cold store). With `skip`,
  /// pairs for which the predicate returns true are served as exactly 0.0
  /// with no kernel evaluation — the caller asserts that 0 is the pair's
  /// exact value (see kernels::PairSkipTest) — and counted in
  /// pruned_pairs(). Streams bounded scratch blocks on every backend —
  /// nothing is retained — unless a dense table is already materialized, in
  /// which case it is read back directly.
  void VisitUpperTriangle(const UpperVisitor& fn,
                          const kernels::PairSkipTest& skip = {});

  /// VisitUpperTriangle driven by per-row candidate columns (spatial-index
  /// range-query hits): exactly candidates(i) — ascending j > i — are
  /// evaluated; the rest of each tail is served as exactly 0.0 and counted
  /// in pruned_pairs(). The caller asserts that every non-candidate pair's
  /// exact value is 0 (the index contract), so the visited tails are
  /// bit-identical to VisitUpperTriangle(fn, skip) whenever candidates(i)
  /// covers every pair `skip` would not have skipped. An
  /// already-materialized dense table is read back directly (same as
  /// VisitUpperTriangle — the values exist; no pruning counters move).
  void VisitUpperTriangleCandidates(
      const UpperVisitor& fn, const kernels::CandidateColumns& candidates);

 private:
  struct WarmRow {
    std::size_t row = 0;
    std::vector<double> data;
  };

  void EnsureDense();
  /// GatherRow into a raw length-n destination.
  void CopyRowInto(std::size_t i, double* dst);
  /// Warm-cache lookup; moves a hit to the most-recently-used end.
  const double* WarmRowData(std::size_t i);
  /// The one serving chain of the gather APIs: the dense table first, then
  /// the warm cache. Returns the length-n row and counts a warm hit, or
  /// nullptr (the caller computes and counts the miss). The pointer is
  /// invalidated by the next non-const store call.
  const double* ServeRow(std::size_t i);
  /// Inserts a copy of row i (length n) into the warm cache when the cache
  /// is on and the row fits after LRU eviction.
  void MaybeRetainWarmRow(std::size_t i, const double* src);
  /// Fills the upper-triangle rows [r0, r1) into a scratch block (row i at
  /// scratch + (i - r0) * n) and returns the evaluations it made.
  using UpperTileFill =
      std::function<int64_t(std::size_t, std::size_t, double*)>;
  /// The one body of both upper-triangle visits: a materialized dense table
  /// is read back; otherwise `fill` fills bounded scratch blocks, which are
  /// visited and dropped.
  void StreamUpperTriangle(const UpperVisitor& fn, const UpperTileFill& fill);
  void NoteTableBytes(std::size_t live_bytes);

  engine::Engine eng_;
  kernels::PairwiseKernel kernel_;
  PairwiseStoreOptions options_;
  std::size_t n_ = 0;
  int64_t evaluations_ = 0;
  std::size_t table_bytes_peak_ = 0;

  // kDense state.
  std::vector<double> dense_;
  bool dense_ready_ = false;

  // Warm-row cache (kTiled): most-recently-used first.
  std::list<WarmRow> warm_rows_;
  std::unordered_map<std::size_t, std::list<WarmRow>::iterator> warm_index_;
  std::size_t warm_bytes_ = 0;
  int64_t warm_hits_ = 0;
  int64_t warm_misses_ = 0;
  int64_t pruned_pairs_ = 0;

  // Scratch for gather passes (reused across calls).
  std::vector<std::size_t> gather_missing_;
  std::vector<std::size_t> gather_slots_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_PAIRWISE_STORE_H_
