// Initialization strategies shared by the partitional algorithms.
#ifndef UCLUST_CLUSTERING_INIT_H_
#define UCLUST_CLUSTERING_INIT_H_

#include <vector>

#include "common/rng.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// Uniform random partition of n objects into k non-empty clusters
/// (Algorithm 1, Line 2). Requires n >= k.
std::vector<int> RandomPartition(std::size_t n, int k, common::Rng* rng);

/// k distinct objects drawn uniformly; their expected-value vectors serve as
/// initial centroids (Forgy initialization for the K-means-style methods).
std::vector<std::size_t> RandomDistinctObjects(std::size_t n, int k,
                                               common::Rng* rng);

/// Copies the mean vectors of the selected objects into a flat k x m array.
std::vector<double> CentroidsFromObjects(
    const uncertain::MomentView& moments,
    const std::vector<std::size_t>& picks);

/// D^2-weighted seeding over the expected-value vectors (k-means++ style,
/// Arthur & Vassilvitskii 2007), an optional extension over the paper's
/// random initialization: each next seed is drawn with probability
/// proportional to the squared distance to the nearest chosen seed.
/// Returns k distinct object indices.
std::vector<std::size_t> PlusPlusObjects(const uncertain::MomentView& mm,
                                         int k, common::Rng* rng);

/// Partition induced by assigning every object to its nearest seed's mean —
/// turns seed objects into an initial partition for the relocation local
/// search. Every cluster is non-empty (each seed claims itself).
std::vector<int> PartitionFromSeeds(const uncertain::MomentView& mm,
                                    const std::vector<std::size_t>& seeds);

/// How partitional algorithms pick their starting state.
enum class InitStrategy {
  kRandom,    ///< Random partition / Forgy seeds (the paper's choice).
  kPlusPlus,  ///< D^2-weighted seeding (library extension).
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_INIT_H_
