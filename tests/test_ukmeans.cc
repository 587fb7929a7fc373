// Tests for UK-means (reduction to K-means on expected values), which the
// library runs as CkMeans.
#include <gtest/gtest.h>

#include <limits>

#include "clustering/ckmeans.h"
#include "clustering/cluster_stats.h"
#include "common/math_utils.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"

namespace uclust::clustering {
namespace {

data::UncertainDataset PlantedDataset(std::size_t n, int classes,
                                      uint64_t seed,
                                      double uncertainty_frac = 0.05) {
  data::MixtureParams params;
  params.n = n;
  params.dims = 3;
  params.classes = classes;
  params.sigma_min = 0.02;
  params.sigma_max = 0.04;
  params.min_separation = 0.5;
  const auto d = data::MakeGaussianMixture(params, seed, "planted");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  up.min_scale_frac = uncertainty_frac / 2.0;
  up.max_scale_frac = uncertainty_frac;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// Lloyd with Forgy initialization lands in local minima for unlucky seeds
// (the paper averages 50 runs for the same reason); recovery tests therefore
// take the best-objective run over a few seeds.
ClusteringResult BestOfSeeds(const Clusterer& algo,
                             const data::UncertainDataset& ds, int k,
                             int seeds) {
  ClusteringResult best;
  best.objective = std::numeric_limits<double>::infinity();
  for (int s = 0; s < seeds; ++s) {
    ClusteringResult r = algo.Cluster(ds, k, static_cast<uint64_t>(s));
    if (r.objective < best.objective) best = std::move(r);
  }
  return best;
}

TEST(Ukmeans, RecoversPlantedClusters) {
  const auto ds = PlantedDataset(300, 4, 1);
  const CkMeans algo;
  const ClusteringResult r = BestOfSeeds(algo, ds, 4, 8);
  EXPECT_EQ(r.clusters_found, 4);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), r.labels), 0.9);
}

TEST(Ukmeans, ObjectiveMatchesClosedFormRecomputation) {
  const auto ds = PlantedDataset(120, 3, 3);
  const CkMeans algo;
  const ClusteringResult r = algo.Cluster(ds, 3, 4);
  // Recompute: J_UK per Lemma 1 equals sum_o ED(o, centroid) when centroids
  // are the cluster means — which is what Lloyd converges to.
  const double lemma1 =
      TotalObjective(ObjectiveKind::kUkmeans, ds.moments(), r.labels, 3);
  EXPECT_NEAR(r.objective, lemma1, 1e-6 * (1.0 + r.objective));
}

TEST(Ukmeans, DeterministicGivenSeed) {
  const auto ds = PlantedDataset(150, 3, 5);
  const CkMeans algo;
  const auto a = algo.Cluster(ds, 3, 6);
  const auto b = algo.Cluster(ds, 3, 6);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(Ukmeans, DiracDataBehavesLikeClassicKMeans) {
  // On deterministic (Dirac) objects the variance term vanishes and the
  // objective is exactly the K-means within-cluster sum of squares.
  data::MixtureParams params;
  params.n = 200;
  params.dims = 2;
  params.classes = 3;
  params.min_separation = 0.5;
  const auto d = data::MakeGaussianMixture(params, 7, "dirac");
  const auto ds = data::UncertainDataset::FromDeterministic(d);
  const CkMeans algo;
  const ClusteringResult r = BestOfSeeds(algo, ds, 3, 8);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ds.moments().total_variance(i), 0.0);
  }
  EXPECT_GT(eval::AdjustedRand(d.labels, r.labels), 0.85);
}

TEST(Ukmeans, ObjectiveIncludesVarianceFloor) {
  // J_UK >= sum_o sigma^2(o): the variance term is an additive floor no
  // assignment can remove (Eq. 8).
  const auto ds = PlantedDataset(100, 2, 9, /*uncertainty_frac=*/0.2);
  double floor = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    floor += ds.moments().total_variance(i);
  }
  const CkMeans algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 10);
  EXPECT_GE(r.objective, floor - 1e-9);
}

TEST(Ukmeans, MoreClustersNeverHurtObjective) {
  // With best-of-several seeds, the optimal J_UK is monotone in k; check the
  // practical variant with a shared seed pool.
  const auto ds = PlantedDataset(150, 3, 11);
  const CkMeans algo;
  auto best_for_k = [&](int k) {
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t s = 0; s < 5; ++s) {
      best = std::min(best, algo.Cluster(ds, k, s).objective);
    }
    return best;
  };
  EXPECT_LE(best_for_k(4), best_for_k(2) + 1e-9);
}

TEST(Ukmeans, HandlesKEqualsN) {
  const auto ds = PlantedDataset(20, 2, 13);
  const CkMeans algo;
  const ClusteringResult r = algo.Cluster(ds, 20, 14);
  ASSERT_EQ(r.labels.size(), 20u);
  EXPECT_LE(r.clusters_found, 20);
  EXPECT_GE(r.clusters_found, 1);
}

TEST(Ukmeans, IterationCountBounded) {
  CkMeans::Params p;
  p.max_iters = 2;
  const CkMeans algo(p);
  const auto ds = PlantedDataset(200, 4, 15);
  const ClusteringResult r = algo.Cluster(ds, 4, 16);
  EXPECT_LE(r.iterations, 2);
}

}  // namespace
}  // namespace uclust::clustering
