#include "clustering/init.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>

#include "common/math_utils.h"

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

std::vector<std::size_t> PlusPlusObjects(const uncertain::MomentView& mm,
                                         int k, common::Rng* rng) {
  const std::size_t n = mm.size();
  const std::size_t m = mm.dims();
  assert(k > 0 && n >= static_cast<std::size_t>(k));
  std::vector<std::size_t> seeds;
  seeds.reserve(k);
  seeds.push_back(rng->Index(n));
  // The newest seed's mean, gathered once into flat scratch: on a chunked
  // (mapped) view, re-fetching the seed row per object would alternate the
  // per-thread chunk windows between the sweep row and the seed row.
  std::vector<double> seed_mean(m);
  auto gather_seed = [&](std::size_t idx) {
    const auto mean = mm.mean(idx);
    std::copy(mean.begin(), mean.end(), seed_mean.begin());
  };
  gather_seed(seeds[0]);
  // dist2[i] = squared distance of mean(i) to the nearest chosen seed.
  std::vector<double> dist2(n);
  for (std::size_t i = 0; i < n; ++i) {
    dist2[i] = common::SquaredDistance(mm.mean(i), seed_mean);
  }
  while (seeds.size() < static_cast<std::size_t>(k)) {
    double total = 0.0;
    for (double d : dist2) total += d;
    std::size_t next;
    if (total <= 0.0) {
      // All remaining points coincide with seeds: fall back to uniform.
      next = rng->Index(n);
    } else {
      double target = rng->Uniform() * total;
      next = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        target -= dist2[i];
        if (target <= 0.0) {
          next = i;
          break;
        }
      }
    }
    seeds.push_back(next);
    gather_seed(next);
    for (std::size_t i = 0; i < n; ++i) {
      dist2[i] =
          std::min(dist2[i], common::SquaredDistance(mm.mean(i), seed_mean));
    }
  }
  return seeds;
}

std::vector<int> PartitionFromSeeds(const uncertain::MomentView& mm,
                                    const std::vector<std::size_t>& seeds) {
  assert(!seeds.empty());
  const std::size_t n = mm.size();
  const std::size_t m = mm.dims();
  // Gather every seed mean once (flat k x m scratch): k seeds can span more
  // chunks than a mapped view's per-thread window cache holds, and the
  // [object, seed, object, seed] access pattern would thrash it.
  const std::vector<double> seed_means = CentroidsFromObjects(mm, seeds);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    int best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < seeds.size(); ++c) {
      const double d = common::SquaredDistance(
          mm.mean(i),
          std::span<const double>(seed_means.data() + c * m, m));
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(c);
      }
    }
    labels[i] = best;
  }
  // Guarantee non-emptiness: each seed claims its own object (a seed is its
  // own nearest seed unless duplicated; enforce explicitly).
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    labels[seeds[c]] = static_cast<int>(c);
  }
  return labels;
}

}  // namespace uclust::clustering
