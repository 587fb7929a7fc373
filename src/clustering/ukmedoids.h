// UK-medoids (Gullo, Ponti & Tagarelli, SUM 2008): K-medoids (PAM-style)
// over pairwise expected distances between uncertain objects. By default the
// EDs are integrated numerically over Monte-Carlo samples, reproducing the
// published cost profile, with an optional closed-form mode (Lemma 3) this
// library adds on top.
//
// Pairwise access goes through clustering::PairwiseStore. Under the default
// unlimited memory budget the full ED table is precomputed in the offline
// phase exactly as in the original (the paper excludes it from the timed
// online phase), and every phase reads it. Under a finite
// EngineConfig::memory_budget_bytes the store recomputes instead, and the
// same loops read only what they need: the assignment step asks a spatial
// index over the k medoid regions which medoids could be nearest and
// scores only those pairs, and the swap sweep computes per-cluster
// member x member slabs. Table memory stays bounded at any n, and
// clusterings are bit-identical to the dense backend's at any thread
// count; see docs/memory-backends.md.
#ifndef UCLUST_CLUSTERING_UKMEDOIDS_H_
#define UCLUST_CLUSTERING_UKMEDOIDS_H_

#include "clustering/clusterer.h"

namespace uclust::clustering {

/// The UK-medoids algorithm.
class UkMedoids final : public Clusterer {
 public:
  /// Tuning knobs.
  struct Params {
    int max_iters = 100;  ///< Cap on assignment/update rounds.
    int samples = 32;     ///< Monte-Carlo samples per object (sampled mode).
    /// Use the exact closed-form ED^ (Lemma 3) instead of sample
    /// integration. Faster and exact; off by default to mirror the paper.
    bool use_closed_form = false;
    uint64_t sample_seed = 0x5eedbeefULL;  ///< Seed for the sample cache.
  };

  UkMedoids() = default;
  explicit UkMedoids(const Params& params) : params_(params) {}

  std::string name() const override { return "UK-medoids"; }
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;

 private:
  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_UKMEDOIDS_H_
