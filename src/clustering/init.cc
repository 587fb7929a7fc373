#include "clustering/init.h"

#include <cassert>

namespace uclust::clustering {

std::vector<int> RandomPartition(std::size_t n, int k, common::Rng* rng) {
  assert(k > 0 && n >= static_cast<std::size_t>(k));
  std::vector<int> labels(n);
  // Guarantee non-emptiness: the first k slots get one object per cluster,
  // the remainder is uniform; then shuffle object positions.
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i < static_cast<std::size_t>(k)
                    ? static_cast<int>(i)
                    : rng->UniformInt(0, k - 1);
  }
  rng->Shuffle(&labels);
  return labels;
}

std::vector<std::size_t> RandomDistinctObjects(std::size_t n, int k,
                                               common::Rng* rng) {
  assert(k > 0 && n >= static_cast<std::size_t>(k));
  return rng->SampleWithoutReplacement(n, static_cast<std::size_t>(k));
}

std::vector<double> CentroidsFromObjects(
    const uncertain::MomentView& moments,
    const std::vector<std::size_t>& picks) {
  const std::size_t m = moments.dims();
  std::vector<double> centroids;
  centroids.reserve(picks.size() * m);
  for (std::size_t idx : picks) {
    const auto mean = moments.mean(idx);
    centroids.insert(centroids.end(), mean.begin(), mean.end());
  }
  return centroids;
}

}  // namespace uclust::clustering
