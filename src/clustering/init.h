// The paper's starting states for the partitional algorithms: a random
// partition for the relocation local search (UCPC, MMVar) and Forgy seeds
// for the K-means-style methods (UK-means, CK-means).
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

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_INIT_H_
