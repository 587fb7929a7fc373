// Tests for the algorithm registry, the paper's seeding (init.h) and the
// label utilities.
#include <gtest/gtest.h>

#include <climits>
#include <set>

#include "clustering/clusterer.h"
#include "clustering/init.h"
#include "clustering/registry.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"

namespace uclust {
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
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

TEST(Registry, ListsAllThirteenAlgorithms) {
  const auto names = clustering::RegisteredClusterers();
  EXPECT_EQ(names.size(), 13u);
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(Registry, MakeByNameMatchesReportedName) {
  for (const std::string& name : clustering::RegisteredClusterers()) {
    auto result = clustering::MakeClusterer(name);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(std::move(result).ValueOrDie()->name(), name);
  }
}

TEST(Registry, UnknownNameFails) {
  auto result = clustering::MakeClusterer("DBSCAN++");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kNotFound);
}

TEST(Registry, MakeAllProducesWorkingInstances) {
  const auto ds = PlantedDataset(60, 2, 1);
  for (const auto& algo : clustering::MakeAllClusterers()) {
    const auto r = algo->Cluster(ds, 2, 2);
    EXPECT_EQ(r.labels.size(), ds.size()) << algo->name();
  }
}

// The paper's starting states (init.h): every UCPC and MMVar run starts
// from RandomPartition, every UK-means and CK-means run from
// RandomDistinctObjects.
TEST(Seeding, RandomPartitionCoversEveryClusterInRange) {
  constexpr int k = 5;
  for (const std::size_t n : {std::size_t{k}, std::size_t{k + 1},
                              std::size_t{2000}}) {
    common::Rng rng(n);
    const std::vector<int> labels = clustering::RandomPartition(n, k, &rng);
    ASSERT_EQ(labels.size(), n);
    for (int l : labels) {
      EXPECT_GE(l, 0);
      EXPECT_LT(l, k);
    }
    for (auto size : clustering::ClusterSizes(labels, k)) {
      EXPECT_GT(size, 0u) << "n=" << n;
    }
  }
}

TEST(Seeding, RandomDistinctObjectsAreDistinctAndInRange) {
  constexpr int k = 7;
  for (const std::size_t n : {std::size_t{k}, std::size_t{k + 1},
                              std::size_t{2000}}) {
    common::Rng rng(n);
    const std::vector<std::size_t> picks =
        clustering::RandomDistinctObjects(n, k, &rng);
    ASSERT_EQ(picks.size(), static_cast<std::size_t>(k));
    const std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), picks.size()) << "n=" << n;
    EXPECT_LT(*unique.rbegin(), n);
    // At n == k the draw is a permutation of every object.
    if (n == static_cast<std::size_t>(k)) {
      EXPECT_EQ(*unique.begin(), 0u);
    }
  }
}

TEST(Seeding, SameSeedGivesSameStart) {
  for (const uint64_t seed : {1u, 2u, 99u}) {
    common::Rng a(seed), b(seed);
    EXPECT_EQ(clustering::RandomPartition(500, 6, &a),
              clustering::RandomPartition(500, 6, &b));
    EXPECT_EQ(clustering::RandomDistinctObjects(500, 6, &a),
              clustering::RandomDistinctObjects(500, 6, &b));
  }
}

TEST(LabelUtils, CountClustersCountsDistinctNonNegativeLabels) {
  EXPECT_EQ(clustering::CountClusters({}), 0);
  EXPECT_EQ(clustering::CountClusters({-1, -1}), 0);
  EXPECT_EQ(clustering::CountClusters({4, 4, 4, 4, 4}), 1);
  // Noise and gaps: 1 and 3..6 are unused, and 7 is at n.
  EXPECT_EQ(clustering::CountClusters({0, -1, 2, 2, -1, 0, 7}), 3);
  // Labels at or above n, repeated.
  EXPECT_EQ(clustering::CountClusters({5, 9, 5, 1000, 9, 1000, 42}), 4);
  EXPECT_EQ(clustering::CountClusters({INT_MAX, 0, INT_MAX, INT_MIN}), 2);
}

}  // namespace
}  // namespace uclust
