// Basic UK-means (Chau, Cheng, Kao & Ng, PAKDD 2006): Lloyd-style clustering
// where each expected distance ED(o, c) is integrated numerically over S
// Monte-Carlo realizations of o — the O(I S k n m) cost profile that the
// pruning literature (MinMax-BB, VDBiP, cluster shift) attacks. The pruning
// strategy is pluggable so the same binary reproduces bUKM and its pruned
// variants; `ed_evaluations` in the result counts the exact sample-based
// integrations the pruners try to avoid.
//
// This sample-integrated formulation exists to reproduce the baselines the
// paper compares against; it is NOT the production UK-means path. That path
// (ckmeans.h) removes the S factor entirely via the closed form and prunes
// the remaining k factor with Hamerly/Elkan bounds over the expected values
// — the bounds there play the role MinMax-BB/VDBiP play here, but without
// any sampling error.
#ifndef UCLUST_CLUSTERING_BASIC_UKMEANS_H_
#define UCLUST_CLUSTERING_BASIC_UKMEANS_H_

#include "clustering/clusterer.h"
#include "clustering/pruning.h"

namespace uclust::clustering {

/// The basic (sample-integrating) UK-means with optional pruning.
class BasicUkmeans final : public Clusterer {
 public:
  /// Tuning knobs.
  struct Params {
    int samples = 32;          ///< Monte-Carlo samples per object (S).
    int max_iters = 100;       ///< Cap on Lloyd iterations.
    PruningStrategy pruning = PruningStrategy::kNone;
    bool cluster_shift = false;  ///< Couple with the cluster-shift bounds.
    uint64_t sample_seed = 0x5eedcafeULL;  ///< Seed for the sample cache.
  };

  BasicUkmeans() = default;
  explicit BasicUkmeans(const Params& params) : params_(params) {}

  std::string name() const override;
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;

 private:
  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_BASIC_UKMEANS_H_
