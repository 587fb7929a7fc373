// Tests for the density-based baselines FDBSCAN and FOPTICS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "eval/external.h"
#include "uncertain/expected_distance.h"

namespace uclust::clustering {
namespace {

data::UncertainDataset PlantedDataset(std::size_t n, int classes,
                                      uint64_t seed,
                                      double scale_frac = 0.03) {
  data::MixtureParams params;
  params.n = n;
  params.dims = 2;
  params.classes = classes;
  params.sigma_min = 0.02;
  params.sigma_max = 0.03;
  params.min_separation = 0.6;
  const auto d = data::MakeGaussianMixture(params, seed, "planted");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  up.min_scale_frac = scale_frac / 2.0;
  up.max_scale_frac = scale_frac;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

TEST(FdbscanPoissonBinomial, MatchesBruteForceEnumeration) {
  const std::vector<double> probs{0.9, 0.1, 0.5, 0.7};
  // Enumerate all 2^4 outcomes.
  for (int min_pts = 0; min_pts <= 5; ++min_pts) {
    double expected = 0.0;
    for (int mask = 0; mask < 16; ++mask) {
      double p = 1.0;
      int count = 0;
      for (int b = 0; b < 4; ++b) {
        if (mask & (1 << b)) {
          p *= probs[b];
          ++count;
        } else {
          p *= 1.0 - probs[b];
        }
      }
      if (count >= min_pts) expected += p;
    }
    EXPECT_NEAR(Fdbscan::AtLeastProbability(probs, min_pts), expected, 1e-12)
        << "min_pts=" << min_pts;
  }
}

TEST(FdbscanPoissonBinomial, EdgeCases) {
  EXPECT_DOUBLE_EQ(Fdbscan::AtLeastProbability({}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Fdbscan::AtLeastProbability({}, 1), 0.0);
  EXPECT_DOUBLE_EQ(
      Fdbscan::AtLeastProbability(std::vector<double>{1.0, 1.0}, 2), 1.0);
  EXPECT_DOUBLE_EQ(
      Fdbscan::AtLeastProbability(std::vector<double>{0.0, 0.0}, 1), 0.0);
}

TEST(Fdbscan, RecoversWellSeparatedBlobs) {
  const auto ds = PlantedDataset(240, 3, 1);
  const Fdbscan algo;
  const ClusteringResult r = algo.Cluster(ds, 3, 2);
  // Density-based: cluster count is data-driven; with clean blobs it should
  // find roughly the planted number and align with the reference classes.
  EXPECT_GE(r.clusters_found, 2);
  EXPECT_GT(eval::FMeasure(ds.labels(), r.labels), 0.7);
}

TEST(Fdbscan, NoiseGetsItsOwnCluster) {
  // Three tight blobs plus a handful of remote outliers: outliers must not
  // merge into the blobs.
  auto ds = PlantedDataset(150, 3, 3);
  std::vector<uncertain::UncertainObject> objects = ds.objects();
  std::vector<int> labels = ds.labels();
  common::Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    std::vector<double> far{50.0 + 10.0 * i, -50.0 - 10.0 * i};
    objects.push_back(uncertain::UncertainObject::Deterministic(far));
    labels.push_back(0);  // class irrelevant
  }
  const data::UncertainDataset with_noise("noisy", std::move(objects),
                                          std::move(labels), 3);
  const Fdbscan algo;
  const ClusteringResult r = algo.Cluster(with_noise, 3, 5);
  EXPECT_GT(r.noise_objects, 0);
  // Noise objects share the final cluster id.
  const int noise_id = r.clusters_found - 1;
  for (std::size_t i = with_noise.size() - 5; i < with_noise.size(); ++i) {
    EXPECT_EQ(r.labels[i], noise_id);
  }
}

TEST(Fdbscan, DeterministicGivenSeeds) {
  const auto ds = PlantedDataset(120, 2, 5);
  const Fdbscan algo;
  const auto a = algo.Cluster(ds, 2, 6);
  const auto b = algo.Cluster(ds, 2, 6);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Fdbscan, ExplicitEpsOverridesHeuristic) {
  const auto ds = PlantedDataset(100, 2, 7);
  Fdbscan::Params tiny;
  tiny.eps = 1e-6;  // nothing is reachable: everything is noise
  const ClusteringResult r = Fdbscan(tiny).Cluster(ds, 2, 8);
  EXPECT_EQ(r.noise_objects, static_cast<int>(ds.size()));
  EXPECT_EQ(r.clusters_found, 1);  // the single shared noise cluster
}

TEST(Fdbscan, HighUncertaintyReducesCoreConfidence) {
  // With large object variance the distance probabilities at a fixed eps
  // drop, shrinking clusters — the behaviour FDBSCAN is known for.
  const auto crisp = PlantedDataset(150, 2, 9, /*scale_frac=*/0.01);
  const auto fuzzy = PlantedDataset(150, 2, 9, /*scale_frac=*/0.30);
  Fdbscan::Params p;
  p.eps = 0.12;
  const ClusteringResult rc = Fdbscan(p).Cluster(crisp, 2, 10);
  const ClusteringResult rf = Fdbscan(p).Cluster(fuzzy, 2, 10);
  EXPECT_LE(rc.noise_objects, rf.noise_objects);
}

// The automatic eps spelled out the direct way: the same Rng(seed) probe
// draw, the square root of every closed-form distance from a probe, the
// rank-th smallest by nth_element, then the median over the probes.
double OracleAutoEps(const data::UncertainDataset& data, int min_pts,
                     uint64_t seed) {
  const std::size_t n = data.size();
  if (n < 2) return 0.0;
  common::Rng rng(seed);
  const std::vector<std::size_t> probes =
      rng.SampleWithoutReplacement(n, std::min<std::size_t>(n, 256));
  std::vector<double> kth;
  for (const std::size_t i : probes) {
    std::vector<double> dists;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dists.push_back(std::sqrt(uncertain::ExpectedSquaredDistance(
          data.object(i), data.object(j))));
    }
    const std::size_t rank = std::min<std::size_t>(
        std::max<std::size_t>(static_cast<std::size_t>(min_pts), 1),
        dists.size());
    std::nth_element(dists.begin(), dists.begin() + (rank - 1), dists.end());
    kth.push_back(dists[rank - 1]);
  }
  std::nth_element(kth.begin(), kth.begin() + kth.size() / 2, kth.end());
  return kth[kth.size() / 2];
}

// An automatic-eps run is the run at the oracle's eps: same labels, same
// pairs evaluated and pruned, serially and with the probe blocks and bound
// rows spread over 4 threads. Covers a probe subsample (n = 300 > 256
// probes), two objects, the rank clamps (min_pts 0, min_pts >= n) and tied
// ranks (every object duplicated).
TEST(Fdbscan, AutoEpsMatchesDirectRankOracle) {
  const auto ds300 = PlantedDataset(300, 3, 21);
  const auto ds40 = PlantedDataset(40, 2, 23);
  const auto ds2 = PlantedDataset(2, 1, 25);
  std::vector<uncertain::UncertainObject> twice = ds40.objects();
  twice.insert(twice.end(), ds40.objects().begin(), ds40.objects().end());
  std::vector<int> twice_labels = ds40.labels();
  twice_labels.insert(twice_labels.end(), ds40.labels().begin(),
                      ds40.labels().end());
  const data::UncertainDataset dup("duplicated", std::move(twice),
                                   std::move(twice_labels), 2);
  const struct {
    const data::UncertainDataset* data;
    int min_pts;
    const char* what;
  } cases[] = {{&ds300, 5, "n=300"},         {&ds2, 5, "n=2"},
               {&ds40, 0, "min_pts=0"},      {&ds40, 40, "min_pts=n"},
               {&ds40, 100, "min_pts>n"},    {&dup, 3, "duplicates"},
               {&dup, 1, "duplicates rank 1"}};
  for (const auto& c : cases) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
      Fdbscan::Params automatic;
      automatic.min_pts = c.min_pts;
      Fdbscan::Params fixed = automatic;
      fixed.eps = OracleAutoEps(*c.data, c.min_pts, seed);
      ASSERT_GT(fixed.eps, 0.0) << c.what;
      const ClusteringResult b = Fdbscan(fixed).Cluster(*c.data, 2, seed);
      for (const int threads : {1, 4}) {
        engine::EngineConfig config;
        config.num_threads = threads;
        config.block_size = 16;
        Fdbscan algo(automatic);
        algo.set_engine(engine::Engine(config));
        const ClusteringResult a = algo.Cluster(*c.data, 2, seed);
        const std::string where = std::string(c.what) +
                                  " seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(a.labels, b.labels) << where;
        EXPECT_EQ(a.pair_evaluations, b.pair_evaluations) << where;
        EXPECT_EQ(a.pairs_pruned, b.pairs_pruned) << where;
      }
    }
  }
}

TEST(FopticsExtract, ThresholdCutBasics) {
  // Hand-built reachability plot: two valleys separated by a spike.
  const std::vector<double> reach{
      std::numeric_limits<double>::infinity(), 0.1, 0.1, 5.0, 0.2, 0.2};
  const std::vector<double> core(6, 0.1);
  const std::vector<std::size_t> order{0, 1, 2, 3, 4, 5};
  const std::vector<int> labels =
      Foptics::ExtractAtThreshold(reach, core, order, 1.0);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_EQ(labels[3], 1);  // spike starts the second cluster (core <= t)
  EXPECT_EQ(labels[4], 1);
  EXPECT_EQ(labels[5], 1);
}

TEST(FopticsExtract, NonCoreSpikeBecomesNoise) {
  const std::vector<double> reach{
      std::numeric_limits<double>::infinity(), 0.1, 9.0, 0.1};
  const std::vector<double> core{0.1, 0.1, 9.0, 0.1};
  const std::vector<std::size_t> order{0, 1, 2, 3};
  const std::vector<int> labels =
      Foptics::ExtractAtThreshold(reach, core, order, 1.0);
  EXPECT_EQ(labels[2], -1);
}

TEST(Foptics, RecoversWellSeparatedBlobs) {
  const auto ds = PlantedDataset(180, 3, 11);
  const Foptics algo;
  const ClusteringResult r = algo.Cluster(ds, 3, 12);
  EXPECT_GE(r.clusters_found, 2);
  EXPECT_GT(eval::FMeasure(ds.labels(), r.labels), 0.6);
}

TEST(Foptics, LabelsCoverAllObjects) {
  const auto ds = PlantedDataset(100, 2, 13);
  const Foptics algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 14);
  ASSERT_EQ(r.labels.size(), ds.size());
  for (int l : r.labels) EXPECT_GE(l, 0);
}

TEST(Foptics, DeterministicGivenSeeds) {
  const auto ds = PlantedDataset(90, 2, 15);
  const Foptics algo;
  const auto a = algo.Cluster(ds, 2, 16);
  const auto b = algo.Cluster(ds, 2, 16);
  EXPECT_EQ(a.labels, b.labels);
}

}  // namespace
}  // namespace uclust::clustering
