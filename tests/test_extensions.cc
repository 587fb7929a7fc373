// Tests for the library extensions beyond the paper: the algorithm
// registry, D^2-weighted initialization and the label utilities.
#include <gtest/gtest.h>

#include <climits>
#include <set>

#include "clustering/ckmeans.h"
#include "clustering/init.h"
#include "clustering/registry.h"
#include "clustering/ucpc.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"

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

TEST(PlusPlusInit, SeedsAreDistinctAndSpread) {
  const auto ds = PlantedDataset(150, 3, 3);
  common::Rng rng(4);
  const auto seeds = clustering::PlusPlusObjects(ds.moments(), 3, &rng);
  ASSERT_EQ(seeds.size(), 3u);
  const std::set<std::size_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 3u);
  // With three well-separated classes, D^2 seeding nearly always picks one
  // seed per class.
  std::set<int> classes;
  for (std::size_t s : seeds) classes.insert(ds.labels()[s]);
  EXPECT_EQ(classes.size(), 3u);
}

TEST(PlusPlusInit, PartitionFromSeedsCoversEveryCluster) {
  const auto ds = PlantedDataset(90, 3, 5);
  common::Rng rng(6);
  const auto seeds = clustering::PlusPlusObjects(ds.moments(), 3, &rng);
  const auto labels = clustering::PartitionFromSeeds(ds.moments(), seeds);
  const auto sizes = clustering::ClusterSizes(labels, 3);
  for (auto s : sizes) EXPECT_GT(s, 0u);
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    EXPECT_EQ(labels[seeds[c]], static_cast<int>(c));
  }
}

TEST(PlusPlusInit, DegenerateIdenticalPointsStillWorks) {
  // All means identical: the D^2 mass is zero after the first seed; the
  // fallback must still return k distinct-ish seeds without hanging.
  std::vector<uncertain::UncertainObject> objs;
  for (int i = 0; i < 10; ++i) {
    objs.push_back(uncertain::UncertainObject::Deterministic(
        std::vector<double>{1.0, 1.0}));
  }
  const data::UncertainDataset ds("flat", std::move(objs), {}, 0);
  common::Rng rng(7);
  const auto seeds = clustering::PlusPlusObjects(ds.moments(), 3, &rng);
  EXPECT_EQ(seeds.size(), 3u);
}

TEST(PlusPlusInit, ImprovesOrMatchesUkmeansObjective) {
  const auto ds = PlantedDataset(300, 5, 9);
  double forgy = 0.0, pp = 0.0;
  for (uint64_t s = 0; s < 10; ++s) {
    clustering::CkMeans::Params fp;
    fp.init = clustering::InitStrategy::kRandom;
    clustering::CkMeans::Params pf;
    pf.init = clustering::InitStrategy::kPlusPlus;
    forgy += clustering::CkMeans(fp).Cluster(ds, 5, s).objective;
    pp += clustering::CkMeans(pf).Cluster(ds, 5, s).objective;
  }
  EXPECT_LE(pp, forgy * 1.02);  // on average at least as good
}

TEST(PlusPlusInit, WorksThroughUcpcParams) {
  const auto ds = PlantedDataset(120, 3, 11);
  clustering::Ucpc::Params params;
  params.init = clustering::InitStrategy::kPlusPlus;
  const clustering::Ucpc algo(params);
  const auto r = algo.Cluster(ds, 3, 12);
  EXPECT_EQ(r.clusters_found, 3);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), r.labels), 0.9);
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
