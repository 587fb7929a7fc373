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
//      MomentView, read in place whatever backs it (flat columns, a mapped
//      .umom store, or an io::ReducedMoments decode).
//
//   2. Hamerly/Elkan bound pruning. A per-object Euclidean upper bound to
//      the assigned center and a lower bound to the second-closest center
//      are maintained from per-center drift norms after every update; an
//      Elkan-style half-min-separation test rides along. Objects whose
//      bounds prove the assignment unchanged skip the whole k-center scan,
//      making late iterations O(n) instead of O(nk) distance evaluations.
//      The full scans that remain run the center-lane kernel
//      simd::NearestTwo: once per iteration the centers are copied into the
//      center-lane layout (simd::ToCenterLanes: m rows per group of 16
//      centers, a short last group row-major), so one vector lane scores
//      one center and 16 centers cost no horizontal reduction.
//      Bounds are kept floating-point-safe by a relative slack (upper
//      bounds inflated, lower bounds deflated at every maintenance step),
//      so a pruning decision is always conservative and the surviving
//      full scans reproduce the direct path's tie-breaking exactly.
//
// The file-backed driver ClusterFile runs the same loop over a .ubin
// dataset in one of two forms, chosen by the engine memory budget: the
// reduced representation ((m+1)*n doubles: the means and ED^ constants,
// io::ReadReducedMoments) when it fits, handed to ClusterReduced, and
// otherwise the mapped .umom moment store (io::StreamMomentStoreFromFile),
// whose chunked view the loop reads in place. Either way the results are
// bit-identical to RunOnMoments over the fully ingested file. A caller that
// keeps a reduction across runs (the service's per-dataset cache) calls
// ClusterReduced directly and skips the decode.
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

#include "clustering/clusterer.h"
#include "clustering/init.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "uncertain/moments.h"

namespace uclust::io {
struct ReducedMoments;
}  // namespace uclust::io

namespace uclust::clustering {

/// UK-means as the bound-pruned Lloyd loop over expected values.
class CkMeans final : public Clusterer {
 public:
  /// Audit observer for the bound-invariant tests: fired after every drift
  /// maintenance step with the new centroids and the loosened bounds, so a
  /// test can verify upper >= d(o, assigned) and lower <= min distance to
  /// the other centers.
  using BoundAudit = std::function<void(
      int iteration, std::span<const double> centroids,
      std::span<const int> labels, std::span<const double> upper,
      std::span<const double> lower)>;

  /// Tuning knobs.
  struct Params {
    int max_iters = 100;  ///< Cap on Lloyd iterations.
    /// Seeding: Forgy (the paper's choice) or D^2-weighted.
    InitStrategy init = InitStrategy::kRandom;
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
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;

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
  /// When ReducedFits(), io::ReadReducedMoments decodes the reduced
  /// representation and ClusterReduced runs on it; otherwise the loop runs
  /// on the mapped .umom moment store, built next to the dataset (or at
  /// `moments_path` when non-empty) or reused when a matching sidecar is
  /// already there. A store opened for a run keeps serving that snapshot
  /// even if the .ubin is rewritten mid-run; the next call rebuilds the
  /// sidecar. Labels, objective, iteration count and counters are
  /// bit-identical to RunOnMoments over the fully ingested file at any
  /// thread count. k outside [1, n] is InvalidArgument, checked before
  /// anything is decoded.
  static common::Result<ClusteringResult> ClusterFile(
      const std::string& path, int k, uint64_t seed, const Params& params,
      const engine::Engine& eng = engine::Engine::Serial(),
      const std::string& moments_path = "");

  /// Clusters a decoded reduction: the k check, RunOnMoments over
  /// reduced.view(), and the result. `offline` is a stopwatch started when
  /// the caller began producing `reduced`; its reading on entry becomes
  /// offline_ms (a fresh decode's time for ClusterFile, the cache lookup's
  /// for the service). The result equals ClusterFile on the file the
  /// reduction was decoded from, bit for bit.
  static common::Result<ClusteringResult> ClusterReduced(
      const io::ReducedMoments& reduced, int k, uint64_t seed,
      const Params& params,
      const engine::Engine& eng = engine::Engine::Serial(),
      const common::Stopwatch& offline = common::Stopwatch());

  /// Whether ClusterFile keeps the reduced representation of an n x m
  /// dataset resident: (m+1)*n doubles fit the engine memory budget (or it
  /// is unlimited).
  static bool ReducedFits(std::size_t n, std::size_t m,
                          const engine::Engine& eng);

 private:
  Params params_;
  std::string name_ = "CK-means";
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_CKMEANS_H_
