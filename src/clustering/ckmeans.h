// CK-means: the O(nk)-per-iteration UK-means. The registry builds it under
// both "UK-means" and "CK-means"; the two names run this one Lloyd loop and
// differ only in the label name() reports.
//
// Two stacked optimizations over the direct UK-means sweeps, both exact
// under the library determinism contract — labels, objective, and iteration
// count are bit-identical to the direct O(I k n m) loop (kept as the test
// oracle in tests/ukmeans_oracle.h) at any engine thread count:
//
//   1. Moment reduction (Lee, Kao & Cheng, ICDM-W 2007). König-Huygens
//      splits the expected distance as ED(o, c) = sigma^2(o) +
//      ||mu(o) - c||^2 (Eq. 8), so the Lloyd loop only ever reads each
//      object's expected centroid mu(o) and the additive constant
//      sigma^2(o) — the mean() and total_variance() of the caller's
//      MomentView, read in place whatever backs it (flat columns or a
//      mapped .umom store).
//
//   2. Hamerly/Elkan bound pruning. A per-object Euclidean upper bound to
//      the assigned center and a lower bound to the second-closest center
//      are loosened by the last update's per-center drift norms; an
//      Elkan-style half-min-separation test rides along. Each sweep block
//      loosens and tests its objects in one branch-free settle pass that
//      compacts the unsettled ones into a candidate list; only those are
//      retested and scanned, so late iterations cost O(n) cheap bound
//      updates instead of O(nk) distance evaluations.
//      The full scans that remain run the center-lane kernel
//      simd::NearestTwo: once per iteration the centers are copied into the
//      center-lane layout (simd::ToCenterLanes: m rows per group of 16
//      centers, a short last group row-major), so one vector lane scores
//      one center and 16 centers cost no horizontal reduction.
//      Bounds are kept floating-point-safe by a relative slack (upper
//      bounds inflated, lower bounds deflated at every loosening step),
//      so a pruning decision is always conservative and the surviving
//      full scans reproduce the direct path's tie-breaking exactly.
//
// The file-backed driver ClusterFile opens the .ubin's moment store
// through OpenMomentStore — resident columns when io::ResidentMomentsFit
// holds for the engine budget, otherwise the mapped .umom sidecar, whose
// chunked view the loop reads in place — and runs the same loop on it.
// Either way the results are bit-identical to RunOnMoments over the fully
// ingested file. A caller that keeps a store across runs (the service's
// per-dataset cache) calls ClusterMoments on it and skips the decode.
//
// Accounting contract: center_distance_evals counts the object-to-center
// ||mu(o) - c||^2 evaluations of the assignment sweeps and bounds_skipped
// the (object, center) slots the bounds proved unnecessary; the pair always
// satisfies evals + skipped == sweeps * n * k, where sweeps is the number
// of assignment sweeps actually run — iterations + converged: iterations
// + 1 on a converged run (the final sweep changes nothing but still
// executes, exactly as on the direct path) and iterations when the cap
// stops the loop. The sum is therefore the direct path's evaluation count.
// Center-to-center work (drift norms, half separations — O(k^2) per
// iteration) is not counted.
#ifndef UCLUST_CLUSTERING_CKMEANS_H_
#define UCLUST_CLUSTERING_CKMEANS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "clustering/moment_clusterer.h"
#include "common/status.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// UK-means as the bound-pruned Lloyd loop over expected values.
class CkMeans final : public MomentClusterer {
 public:
  /// Audit observer for the bound-invariant tests: fired after every
  /// centroid update with the new centroids and copies of the bounds
  /// loosened by the update's drifts — by the same helper, and so to the
  /// same bits, as the next sweep's settle pass loosens them — so a test
  /// can verify upper >= d(o, assigned) and lower <= min distance to the
  /// other centers.
  using BoundAudit = std::function<void(
      int iteration, std::span<const double> centroids,
      std::span<const int> labels, std::span<const double> upper,
      std::span<const double> lower)>;

  /// Tuning knobs.
  struct Params {
    int max_iters = 100;  ///< Cap on Lloyd iterations.
    /// Test-only bound observer (see BoundAudit); empty in production.
    BoundAudit bound_audit;
  };

  /// Outcome of the kernel.
  struct Outcome {
    std::vector<int> labels;
    double objective = 0.0;  ///< sum_o [ sigma^2(o) + ||mu(o) - c_l(o)||^2 ].
    int iterations = 0;
    /// True when a sweep changed no label; false when max_iters stopped
    /// the loop. The sweeps run are iterations + converged.
    bool converged = false;
    int64_t center_distance_evals = 0;
    int64_t bounds_skipped = 0;
  };

  CkMeans() = default;
  /// `name` is the label name() reports (the registry passes the name it
  /// builds the algorithm under); it never changes the run.
  explicit CkMeans(Params params, std::string name = "CK-means")
      : params_(std::move(params)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  /// Replaces the Lloyd iteration cap (the service's JobSpec max_iters).
  void set_max_iters(int max_iters) { params_.max_iters = max_iters; }

  /// Kernel entry point for pre-packed moment statistics: the bound-pruned
  /// Lloyd loop, reading mean() and total_variance() of `mm` in place (no
  /// copy, so a mapped view stays within its chunk windows). Bit-identical
  /// to the direct sweeps (same seeding, tie-breaking, update, and
  /// empty-cluster reseed order) at any engine thread count.
  static Outcome RunOnMoments(const uncertain::MomentView& mm, int k,
                              uint64_t seed, const Params& params,
                              const engine::Engine& eng =
                                  engine::Engine::Serial());

  /// File-backed driver: clusters a binary .ubin dataset in bounded memory.
  /// OpenMomentStore checks k against the header (InvalidArgument outside
  /// [1, n], before anything is decoded) and opens the moments: resident
  /// when io::ResidentMomentsFit holds, otherwise the mapped .umom store,
  /// built next to the dataset (or at `moments_path` when non-empty) or
  /// reused when a matching sidecar is already there. A store opened for a
  /// run keeps serving that snapshot even if the .ubin is rewritten
  /// mid-run; the next call rebuilds the sidecar. offline_ms is the open,
  /// online_ms the loop. Labels, objective, iteration count and counters
  /// are bit-identical to RunOnMoments over the fully ingested file at any
  /// thread count.
  static common::Result<ClusteringResult> ClusterFile(
      const std::string& path, int k, uint64_t seed, const Params& params,
      const engine::Engine& eng = engine::Engine::Serial(),
      const std::string& moments_path = "");

 private:
  ClusteringResult RunOnline(const uncertain::MomentView& mm, int k,
                             uint64_t seed) const override;

  Params params_;
  std::string name_ = "CK-means";
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_CKMEANS_H_
