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
// Automatic eps (Params::eps <= 0) is the median, over up to 256 probe
// objects, of each probe's MinPts-th smallest closed-form expected
// distance, ranked on packed moments as squared values with one sqrt.
//
// The pairwise sweep streams through clustering::PairwiseStore (bounded
// scratch on every backend; the table is never retained) and evaluates only
// candidate pairs: the pairs whose domain regions may lie within eps, per
// clustering::PairwiseBoundIndex. Every other pair's distance probability
// is exactly 0, so labels are bit-identical to an unpruned sweep and only
// ClusteringResult::pair_evaluations/pairs_pruned change. The candidates
// come from one of two sweeps that keep the same pairs, picked per run from
// the data: a selectivity probe (ChooseSweep) sends a selective eps to the
// R-tree sweep, which tests only the range-query hits, and a broad one to
// the all-pairs sweep, a flat branch-free bound pass over every pair that
// builds no index (see docs/spatial-index.md). The nonzero probabilities
// form a CSR adjacency whose rows list neighbours in ascending order; the
// core test reads each row in place.
#ifndef UCLUST_CLUSTERING_FDBSCAN_H_
#define UCLUST_CLUSTERING_FDBSCAN_H_

#include <optional>
#include <span>

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
    kAllPairs,  ///< PairwiseBoundIndex::KeptAbove on every row.
  };

  /// ChooseSweep picks kIndexed when the probed fraction of pairs the bound
  /// keeps is below this: the index build and queries cost less than the
  /// n*(n-1)/2-pair bound pass from about 3-4% kept down
  /// (docs/spatial-index.md).
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
  static double AtLeastProbability(std::span<const double> probs,
                                   int min_pts);

 private:
  ClusteringResult Run(const data::UncertainDataset& data, uint64_t seed,
                       std::optional<Sweep> forced) const;

  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_FDBSCAN_H_
