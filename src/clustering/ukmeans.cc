#include "clustering/ukmeans.h"

#include <cassert>

#include "clustering/ckmeans.h"
#include "clustering/init.h"
#include "clustering/kernels.h"

namespace uclust::clustering {

Ukmeans::Outcome Ukmeans::RunOnMoments(const uncertain::MomentView& mm,
                                       int k, uint64_t seed,
                                       const Params& params,
                                       const engine::Engine& eng) {
  const std::size_t n = mm.size();
  const std::size_t m = mm.dims();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  common::Rng rng(seed);

  // Seeding: k distinct objects' expected values (Forgy by default,
  // D^2-weighted when requested).
  std::vector<double> centroids = CentroidsFromObjects(
      mm, params.init == InitStrategy::kPlusPlus
              ? PlusPlusObjects(mm, k, &rng)
              : RandomDistinctObjects(n, k, &rng));

  Outcome out;
  out.labels.assign(n, -1);
  std::vector<double> sums;
  std::vector<std::size_t> counts;

  for (out.iterations = 0; out.iterations < params.max_iters;
       ++out.iterations) {
    // Assignment: argmin_c ED(o, c) = argmin_c ||mu(o) - c||^2 (Eq. 8).
    // The direct sweep evaluates every (object, center) pair.
    out.center_distance_evals += static_cast<int64_t>(n) * k;
    if (kernels::AssignNearest(eng, mm, centroids, k, out.labels) == 0) {
      break;
    }

    // Update: centroid = average of member expected values (Eq. 7).
    kernels::SumMeansByLabel(eng, mm, out.labels, k, &sums, &counts);
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with a random object's mean.
        const auto mean = mm.mean(rng.Index(n));
        std::copy(mean.begin(), mean.end(), centroids.begin() + c * m);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t j = 0; j < m; ++j) {
        centroids[static_cast<std::size_t>(c) * m + j] =
            sums[static_cast<std::size_t>(c) * m + j] * inv;
      }
    }
  }

  // Final objective: sum_o [ sigma^2(o) + ||mu(o) - c_l(o)||^2 ].
  out.objective = kernels::AssignmentObjective(eng, mm, out.labels, centroids);
  return out;
}

ClusteringResult Ukmeans::Cluster(const data::UncertainDataset& data, int k,
                                  uint64_t seed) const {
  // The CK-means fast path: same seeding, tie-breaking, and update order as
  // RunOnMoments above, so the labels, objective, and iteration count are
  // bit-identical to the direct sweeps — only the evaluation counters
  // differ.
  CkMeans::Params p;
  p.max_iters = params_.max_iters;
  p.init = params_.init;
  CkMeans fast(p);
  fast.set_engine(engine());
  return fast.Cluster(data, k, seed);
}

}  // namespace uclust::clustering
