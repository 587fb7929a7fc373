// FDBSCAN (Kriegel & Pfeifle, KDD 2005): density-based clustering of
// uncertain objects via fuzzy distance functions.
//
// Distance probabilities Pr[dist(o, o') <= eps] are estimated over matched
// Monte-Carlo sample pairs; the probability that an object is a core object
// (>= MinPts neighbors within eps) is evaluated exactly from those pairwise
// probabilities with a Poisson-binomial dynamic program, which is valid
// under the library-wide independence assumption between objects. Objects
// whose core probability reaches the core threshold seed clusters; expansion
// follows pairs whose distance probability reaches the reachability
// threshold.
//
// The pairwise sweep streams through clustering::PairwiseStore (bounded
// scratch on every backend; the table is never retained). Pairs whose
// domain regions are provably farther apart than eps — per
// clustering::PairwiseBoundIndex — are skipped before any kernel
// evaluation: their distance probability is exactly 0, so labels are
// bit-identical to an unpruned sweep and only
// ClusteringResult::pair_evaluations/pairs_pruned change. Which pairs the
// bound is tested on is picked per run from the data: a selectivity probe
// (ChooseSweep) sends a selective eps to the R-tree candidate sweep, which
// tests only the range-query hits, and a broad one to the all-pairs sweep,
// which tests every pair but builds no index. Both sweeps evaluate the same
// pairs (see docs/spatial-index.md).
#ifndef UCLUST_CLUSTERING_FDBSCAN_H_
#define UCLUST_CLUSTERING_FDBSCAN_H_

#include <optional>

#include "clustering/clusterer.h"

namespace uclust::clustering {

class PairwiseBoundIndex;

/// The FDBSCAN algorithm. The `k` argument of Cluster() is ignored (density-
/// based algorithms determine the number of clusters themselves); noise
/// objects are mapped to one shared extra cluster.
class Fdbscan final : public Clusterer {
 public:
  /// Tuning knobs.
  struct Params {
    /// Neighborhood radius; <= 0 selects it automatically from the median
    /// MinPts-nearest-neighbor distance (k-dist heuristic).
    double eps = 0.0;
    int min_pts = 5;              ///< Density threshold (MinPts).
    double core_threshold = 0.5;  ///< Min core-object probability.
    double reach_threshold = 0.5; ///< Min direct-reachability probability.
    int samples = 24;             ///< Monte-Carlo samples per object.
    uint64_t sample_seed = 0x5eedf00dULL;  ///< Seed for the sample cache.
  };

  /// The two eps-sweeps over the pair bounds. Both evaluate exactly the
  /// pairs whose regions may lie within eps, so labels, pair_evaluations and
  /// pairs_pruned agree; only the bound-test cost differs.
  enum class Sweep {
    kIndexed,   ///< R-tree range query per object over the region boxes.
    kAllPairs,  ///< PairwiseBoundIndex::ProvablyBeyond on every pair.
  };

  /// ChooseSweep picks kIndexed when the probed fraction of pairs the bound
  /// keeps is below this: the index build and queries cost less than the
  /// n*(n-1)/2 bound tests from about 3-10% kept down (docs/spatial-index.md).
  static constexpr double kIndexedMaxKeptFraction = 0.05;

  Fdbscan() = default;
  explicit Fdbscan(const Params& params) : params_(params) {}

  std::string name() const override { return "FDBSCAN"; }
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;
  /// Cluster() with `sweep` forced instead of probed. Exposed for tests and
  /// benches.
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed, Sweep sweep) const;

  /// The selectivity probe: ProvablyBeyond(i, j, eps) over a strided grid of
  /// up to 64 x 64 object pairs, i != j. Returns kIndexed when the kept
  /// fraction is below kIndexedMaxKeptFraction, else kAllPairs (also when
  /// there are fewer than 2 objects). Draws no random numbers. Exposed for
  /// tests.
  static Sweep ChooseSweep(const PairwiseBoundIndex& bounds, double eps);

  /// Probability that at least `min_pts` of the independent events with
  /// probabilities `probs` occur (Poisson-binomial tail). Exposed for tests.
  static double AtLeastProbability(const std::vector<double>& probs,
                                   int min_pts);

 private:
  ClusteringResult Run(const data::UncertainDataset& data, uint64_t seed,
                       std::optional<Sweep> forced) const;

  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_FDBSCAN_H_
