// Tests for UK-medoids (PAM over pairwise expected distances).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "engine/engine.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"
#include "uncertain/expected_distance.h"

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
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// PAM with random medoid init is seed-sensitive; take best objective.
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

TEST(UkMedoids, RecoversPlantedClustersClosedForm) {
  UkMedoids::Params p;
  p.use_closed_form = true;
  const UkMedoids algo(p);
  const auto ds = PlantedDataset(150, 3, 1);
  const ClusteringResult r = algo.Cluster(ds, 3, 2);
  EXPECT_EQ(r.clusters_found, 3);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), r.labels), 0.85);
  EXPECT_EQ(r.ed_evaluations, 0);  // closed form counts no integrations
}

TEST(UkMedoids, RecoversPlantedClustersSampled) {
  const UkMedoids algo;
  const auto ds = PlantedDataset(120, 3, 3);
  const ClusteringResult r = BestOfSeeds(algo, ds, 3, 8);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), r.labels), 0.8);
  // Offline table: n(n-1)/2 sampled integrations.
  EXPECT_EQ(r.ed_evaluations, 120 * 119 / 2);
}

TEST(UkMedoids, SampledModeAgreesWithClosedFormOnSeparatedData) {
  const auto ds = PlantedDataset(100, 3, 5);
  UkMedoids::Params exact_params;
  exact_params.use_closed_form = true;
  const ClusteringResult exact = UkMedoids(exact_params).Cluster(ds, 3, 6);
  const ClusteringResult sampled = UkMedoids().Cluster(ds, 3, 6);
  EXPECT_GT(eval::AdjustedRand(exact.labels, sampled.labels), 0.9);
}

TEST(UkMedoids, DeterministicGivenSeeds) {
  const auto ds = PlantedDataset(80, 2, 7);
  const UkMedoids algo;
  const auto a = algo.Cluster(ds, 2, 8);
  const auto b = algo.Cluster(ds, 2, 8);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(UkMedoids, ObjectiveIsSumOfMemberToMedoidDistances) {
  UkMedoids::Params p;
  p.use_closed_form = true;
  const UkMedoids algo(p);
  const auto ds = PlantedDataset(60, 2, 9);
  const ClusteringResult r = algo.Cluster(ds, 2, 10);
  EXPECT_GT(r.objective, 0.0);
  // Lower bound: sum of (2x) total variances — ED^ between distinct objects
  // is at least the sum of their variances, and the medoid's own term is
  // 2 sigma^2(medoid) > 0.
  EXPECT_TRUE(std::isfinite(r.objective));
}

TEST(UkMedoids, KEqualsOneSingleCluster) {
  UkMedoids::Params p;
  p.use_closed_form = true;
  const auto ds = PlantedDataset(40, 2, 11);
  const ClusteringResult r = UkMedoids(p).Cluster(ds, 1, 12);
  EXPECT_EQ(r.clusters_found, 1);
}

TEST(UkMedoids, OfflinePhaseDominatesRuntimeAccounting) {
  const auto ds = PlantedDataset(120, 3, 13);
  const ClusteringResult r = UkMedoids().Cluster(ds, 3, 14);
  // The pairwise sampled table must be attributed offline, not online.
  EXPECT_GT(r.offline_ms, 0.0);
  EXPECT_GE(r.online_ms, 0.0);
}

// The paper's PAM invariant: the objective reported at max_iters = 1, 2,
// 4, 8, ... never increases. At cap t the result is J(L_t, M_t) with the
// medoids M_t chosen for the labels L_t; reassignment to M_t cannot raise
// any member's distance, each cluster's old medoid stays a candidate for
// its new medoid, and an empty cluster's reseed touches no member — so
// J(L_{t+1}, M_{t+1}) <= J(L_{t+1}, M_t) <= J(L_t, M_t). The relative
// slack covers the different summation orders of the two sums.
TEST(UkMedoids, ObjectiveNeverIncreasesWithIterationCap) {
  data::MixtureParams params;
  params.n = 120;
  params.dims = 2;
  params.classes = 4;
  params.sigma_min = 0.10;
  params.sigma_max = 0.20;
  params.min_separation = 0.05;
  const auto d = data::MakeGaussianMixture(params, 71, "overlapping");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const auto ds = data::UncertaintyModel(d, up, 72).Uncertain();
  const std::size_t tiled_budget = 12 * ds.size() * sizeof(double);

  int longest_run = 0;
  for (const bool closed_form : {true, false}) {
    for (const std::size_t budget : {std::size_t{0}, tiled_budget}) {
      engine::EngineConfig config;
      config.memory_budget_bytes = budget;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        double prev = std::numeric_limits<double>::infinity();
        for (int cap = 1; cap <= 64; cap *= 2) {
          UkMedoids::Params p;
          p.use_closed_form = closed_form;
          p.max_iters = cap;
          UkMedoids algo(p);
          algo.set_engine(engine::Engine(config));
          const ClusteringResult r = algo.Cluster(ds, 5, seed);
          EXPECT_EQ(r.pairwise_backend, budget == 0 ? "dense" : "tiled");
          EXPECT_LE(r.objective, prev * (1.0 + 1e-12))
              << "closed_form=" << closed_form << " budget=" << budget
              << " seed=" << seed << " cap=" << cap;
          prev = r.objective;
          longest_run = std::max(longest_run, r.iterations);
        }
      }
    }
  }
  // Not vacuous: some run kept improving past the first caps.
  EXPECT_GE(longest_run, 3);
}

// With the table materialized (budget 0), scoring a medoid costs a table
// read, so the assignment scores all k medoids and asks no spatial index;
// the only pair evaluations are the table's n(n-1)/2. A tiled run of the
// same problem asks the index and reaches the same labels.
TEST(UkMedoids, DenseTableScoresEveryMedoidWithoutTheIndex) {
  const auto ds = PlantedDataset(150, 4, 29);
  const int64_t n = static_cast<int64_t>(ds.size());
  for (const bool closed_form : {true, false}) {
    UkMedoids::Params p;
    p.use_closed_form = closed_form;
    const ClusteringResult dense = UkMedoids(p).Cluster(ds, 6, 31);
    const std::string trace = "closed_form=" + std::to_string(closed_form);
    ASSERT_EQ(dense.pairwise_backend, "dense") << trace;
    EXPECT_EQ(dense.index_candidates, 0) << trace;
    EXPECT_EQ(dense.index_bound_tests, 0) << trace;
    EXPECT_EQ(dense.pair_evaluations, n * (n - 1) / 2) << trace;
    EXPECT_EQ(dense.tile_warm_misses, 0) << trace;

    engine::EngineConfig tiled;
    tiled.memory_budget_bytes = 12 * ds.size() * sizeof(double);
    UkMedoids algo(p);
    algo.set_engine(engine::Engine(tiled));
    const ClusteringResult r = algo.Cluster(ds, 6, 31);
    EXPECT_GT(r.index_candidates, 0) << trace;
    EXPECT_EQ(r.labels, dense.labels) << trace;
  }
}

// On the tiled backend the objective scores each member against its
// medoid's row instead of gathering k full medoid rows: the value keeps the
// dense table's bits (EvalRow == Eval, a medoid's own term is 0 like the
// diagonal), and every warm-row miss is a member row of an update sweep —
// n per sweep, none from the objective.
TEST(UkMedoids, TiledObjectiveMatchesDenseWithoutGatheringMedoidRows) {
  const auto ds = PlantedDataset(150, 4, 19);
  const std::size_t n = ds.size();
  engine::EngineConfig tiled;
  tiled.memory_budget_bytes = 12 * n * sizeof(double);
  for (const bool closed_form : {true, false}) {
    for (const int cap : {1, 2, 50}) {
      UkMedoids::Params p;
      p.use_closed_form = closed_form;
      p.max_iters = cap;
      const ClusteringResult dense = UkMedoids(p).Cluster(ds, 6, 23);
      UkMedoids algo(p);
      algo.set_engine(engine::Engine(tiled));
      const ClusteringResult r = algo.Cluster(ds, 6, 23);
      const std::string trace = "closed_form=" + std::to_string(closed_form) +
                                " cap=" + std::to_string(cap);
      ASSERT_EQ(r.pairwise_backend, "tiled") << trace;
      EXPECT_EQ(r.labels, dense.labels) << trace;
      EXPECT_EQ(r.objective, dense.objective) << trace;
      EXPECT_GT(r.tile_warm_misses, 0) << trace;
      EXPECT_EQ(r.tile_warm_misses % static_cast<int64_t>(n), 0) << trace;
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
