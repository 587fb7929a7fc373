// Tests for U-AHC (group-average agglomerative clustering over ED^).
#include <gtest/gtest.h>

#include <limits>

#include "clustering/pairwise_store.h"
#include "clustering/uahc.h"
#include "uncertain/expected_distance.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "eval/external.h"
#include "uncertain/dirac_pdf.h"

namespace uclust::clustering {
namespace {

data::UncertainDataset PlantedDataset(std::size_t n, int classes,
                                      uint64_t seed) {
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
  // Pairwise ED^ adds sigma^2(a) + sigma^2(b) to every distance, so heavy
  // heterogeneous uncertainty swamps group-average linkage (high-variance
  // objects look far from everything). Keep the uncertainty moderate here;
  // the variance-domination effect itself is covered by
  // VarianceAwareMerging below.
  up.min_scale_frac = 0.01;
  up.max_scale_frac = 0.04;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// Dataset of deterministic 1-D points for hand-checkable merges.
data::UncertainDataset PointLine(const std::vector<double>& xs) {
  std::vector<uncertain::UncertainObject> objs;
  for (double x : xs) {
    objs.push_back(
        uncertain::UncertainObject::Deterministic(std::vector<double>{x}));
  }
  return data::UncertainDataset("line", std::move(objs), {}, 0);
}

TEST(Uahc, ProducesExactlyKClusters) {
  const auto ds = PlantedDataset(90, 4, 1);
  const Uahc algo;
  for (int k : {1, 2, 4, 7}) {
    const ClusteringResult r = algo.Cluster(ds, k, 2);
    EXPECT_EQ(r.clusters_found, k) << "k=" << k;
    EXPECT_EQ(r.iterations, static_cast<int>(ds.size()) - k);
  }
}

TEST(Uahc, RecoversPlantedClusters) {
  const auto ds = PlantedDataset(150, 3, 3);
  const Uahc algo;
  const ClusteringResult r = algo.Cluster(ds, 3, 4);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), r.labels), 0.85);
}

TEST(Uahc, HandCheckableMergeOrder) {
  // Points 0, 0.1 | 5, 5.1 -> with k=2 the two tight pairs must pair up.
  const auto ds = PointLine({0.0, 0.1, 5.0, 5.1});
  const Uahc algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 5);
  EXPECT_EQ(r.labels[0], r.labels[1]);
  EXPECT_EQ(r.labels[2], r.labels[3]);
  EXPECT_NE(r.labels[0], r.labels[2]);
}

TEST(Uahc, GroupAverageBalancesChaining) {
  // A chain 0, 1, 2, ..., 7 and an isolated point at 100: with k = 2 the
  // chain stays together and the outlier is alone.
  const auto ds = PointLine({0, 1, 2, 3, 4, 5, 6, 7, 100});
  const Uahc algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 6);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
  EXPECT_NE(r.labels[8], r.labels[0]);
}

TEST(Uahc, VarianceAwareMerging) {
  // Two objects with identical means but very different variances are
  // farther apart (ED^ adds variances) than two sharp objects with slightly
  // different means — UAHC over ED^ must prefer merging the sharp pair.
  std::vector<uncertain::UncertainObject> objs;
  using uncertain::DiracPdf;
  using uncertain::PdfPtr;
  // Sharp pair at 0.0 and 0.2.
  objs.push_back(
      uncertain::UncertainObject::Deterministic(std::vector<double>{0.0}));
  objs.push_back(
      uncertain::UncertainObject::Deterministic(std::vector<double>{0.2}));
  // Fuzzy object at 0.1 with large variance.
  std::vector<PdfPtr> fuzzy;
  fuzzy.push_back(data::MakeUncertainPdf(data::PdfFamily::kNormal, 0.1, 2.0));
  objs.emplace_back(std::move(fuzzy));
  const data::UncertainDataset ds("var", std::move(objs), {}, 0);
  const Uahc algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 7);
  EXPECT_EQ(r.labels[0], r.labels[1]);
  EXPECT_NE(r.labels[2], r.labels[0]);
}

TEST(Uahc, DeterministicAndSeedIndependent) {
  // UAHC has no random choices; any two runs agree regardless of seed.
  const auto ds = PlantedDataset(60, 3, 8);
  const Uahc algo;
  const auto a = algo.Cluster(ds, 3, 1);
  const auto b = algo.Cluster(ds, 3, 999);
  EXPECT_EQ(a.labels, b.labels);
}

// On the tiled backend UAHC reads base ED^ values only through single-row
// gathers, so every pair evaluation belongs to a computed (missed) row of
// n - 1 entries, and the rows the NN-chain holds only save recomputation.
// Labels match the dense run at a multi-row budget and at a 1-byte budget
// (one held row). The chain holds at most tile_rows rows, so the reported
// table peak stays within tile_rows rows.
TEST(Uahc, TiledBudgetsMatchDenseWithOneRowPerMiss) {
  const auto ds = PlantedDataset(150, 4, 11);
  const int64_t n = static_cast<int64_t>(ds.size());
  const std::size_t row_bytes = ds.size() * sizeof(double);
  const auto run = [&](std::size_t budget) {
    engine::EngineConfig config;
    config.memory_budget_bytes = budget;
    Uahc algo;
    algo.set_engine(engine::Engine(config));
    return algo.Cluster(ds, 4, 1);
  };
  const ClusteringResult dense = run(0);
  ASSERT_EQ(dense.pairwise_backend, "dense");
  for (const std::size_t budget : {16 * row_bytes, std::size_t{1}}) {
    const ClusteringResult out = run(budget);
    EXPECT_EQ(out.pairwise_backend, "tiled") << "budget=" << budget;
    EXPECT_EQ(out.labels, dense.labels) << "budget=" << budget;
    EXPECT_EQ(out.pair_evaluations, out.tile_warm_misses * (n - 1))
        << "budget=" << budget;
    EXPECT_GE(out.tile_warm_misses, n) << "budget=" << budget;
    EXPECT_GT(out.tile_warm_hits, 0) << "budget=" << budget;
    if (budget > 1) {
      const std::size_t tile_rows =
          PairwiseStoreOptions::FromBudget(budget, ds.size()).tile_rows;
      EXPECT_LE(out.table_bytes_peak, tile_rows * row_bytes);
    }
  }
}

TEST(Uahc, KEqualsNLeavesSingletons) {
  const auto ds = PointLine({1, 2, 3});
  const ClusteringResult r = Uahc().Cluster(ds, 3, 9);
  EXPECT_EQ(r.clusters_found, 3);
  EXPECT_EQ(r.iterations, 0);
}

// Naive O(n^3) greedy UPGMA over ED^ — the oracle the NN-chain + dendrogram
// cut must reproduce exactly.
std::vector<int> NaiveUpgma(const data::UncertainDataset& ds, int k) {
  const std::size_t n = ds.size();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d[i][j] = d[j][i] =
          uncertain::ExpectedSquaredDistance(ds.object(i), ds.object(j));
    }
  }
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> sz(n, 1);
  std::vector<int> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  std::size_t remaining = n;
  while (remaining > static_cast<std::size_t>(k)) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!alive[j]) continue;
        if (d[i][j] < best) {
          best = d[i][j];
          bi = i;
          bj = j;
        }
      }
    }
    const double si = static_cast<double>(sz[bi]);
    const double sj = static_cast<double>(sz[bj]);
    for (std::size_t u = 0; u < n; ++u) {
      if (!alive[u] || u == bi || u == bj) continue;
      d[bi][u] = d[u][bi] = (si * d[u][bi] + sj * d[u][bj]) / (si + sj);
    }
    sz[bi] += sz[bj];
    alive[bj] = false;
    parent[bj] = static_cast<int>(bi);
    --remaining;
  }
  std::vector<int> lab(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = i;
    while (parent[r] != static_cast<int>(r)) {
      r = static_cast<std::size_t>(parent[r]);
    }
    lab[i] = static_cast<int>(r);
  }
  return RelabelConsecutive(lab);
}

TEST(Uahc, NnChainMatchesNaiveUpgmaOracle) {
  for (uint64_t seed : {3u, 5u, 9u}) {
    const auto ds = PlantedDataset(80, 3, seed);
    for (int k : {2, 3, 5}) {
      const ClusteringResult fast = Uahc().Cluster(ds, k, 0);
      const std::vector<int> oracle = NaiveUpgma(ds, k);
      EXPECT_DOUBLE_EQ(eval::AdjustedRand(oracle, fast.labels), 1.0)
          << "seed=" << seed << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
