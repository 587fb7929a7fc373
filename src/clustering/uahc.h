// U-AHC (Gullo, Ponti, Tagarelli & Greco, ICDM 2008): agglomerative
// hierarchical clustering of uncertain objects.
//
// This implementation uses group-average (UPGMA) linkage over the closed-
// form expected squared distance ED^ (Lemma 3) with the NN-chain algorithm,
// preserving the O(n^2 m)-time cost class and the merge behaviour the
// paper's efficiency study exercises; the original's information-theoretic
// dissimilarity is approximated by ED^ (see docs/algorithms.md).
// The dendrogram is cut when k clusters remain.
//
// Memory model: base ED^ values are read through clustering::PairwiseStore
// (dense or tiled, selected by EngineConfig::memory_budget_bytes), and
// Lance-Williams updates live in an overlay that holds one distance row per
// alive merge-product cluster — the classic dense working table exists only
// under the dense backend. On the tiled backend the NN-chain holds the base
// rows of its singleton entries itself, at most the store's tile_rows of
// them (the deepest dropped first): a base row never changes (merges only
// retire indices), a merge reads the top two entries' rows and the entry
// below them is re-scanned, so those reads reuse held rows. A merge pops
// both entries with their rows, so rows of retired objects are never kept.
// Clusterings are bit-identical across backends and thread counts.
#ifndef UCLUST_CLUSTERING_UAHC_H_
#define UCLUST_CLUSTERING_UAHC_H_

#include "clustering/clusterer.h"

namespace uclust::clustering {

/// The U-AHC algorithm (group-average over ED^).
class Uahc final : public Clusterer {
 public:
  Uahc() = default;

  std::string name() const override { return "UAHC"; }
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_UAHC_H_
