// End-to-end integration tests: all seven algorithms through the shared
// Clusterer interface, the Theta protocol across pdf families, and the
// paper's headline qualitative claims on small workloads.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>

#include "clustering/basic_ukmeans.h"
#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/registry.h"
#include "clustering/uahc.h"
#include "clustering/ucpc.h"
#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "data/microarray_gen.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"
#include "eval/internal.h"
#include "eval/protocol.h"

namespace uclust {
namespace {

using clustering::Clusterer;
using clustering::ClusteringResult;

std::vector<std::unique_ptr<Clusterer>> AllAlgorithms() {
  std::vector<std::unique_ptr<Clusterer>> algos;
  algos.push_back(std::make_unique<clustering::Fdbscan>());
  algos.push_back(std::make_unique<clustering::Foptics>());
  algos.push_back(std::make_unique<clustering::Uahc>());
  algos.push_back(std::make_unique<clustering::UkMedoids>());
  algos.push_back(clustering::MakeClustererOrDie("UK-means"));
  algos.push_back(std::make_unique<clustering::Mmvar>());
  algos.push_back(std::make_unique<clustering::Ucpc>());
  return algos;
}

data::UncertainDataset SmallBenchmark(uint64_t seed) {
  auto d = data::MakeBenchmarkDataset("Iris", seed).ValueOrDie();
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

TEST(Integration, AllAlgorithmsProduceValidPartitions) {
  const auto ds = SmallBenchmark(1);
  for (const auto& algo : AllAlgorithms()) {
    SCOPED_TRACE(algo->name());
    const ClusteringResult r = algo->Cluster(ds, 3, 2);
    ASSERT_EQ(r.labels.size(), ds.size());
    for (int l : r.labels) {
      EXPECT_GE(l, 0);
      EXPECT_LT(l, r.clusters_found);
    }
    EXPECT_GE(r.clusters_found, 1);
    EXPECT_GE(r.online_ms, 0.0);
  }
}

TEST(Integration, AllAlgorithmsBeatRandomAssignment) {
  const auto ds = SmallBenchmark(3);
  common::Rng rng(4);
  std::vector<int> random_labels(ds.size());
  for (auto& l : random_labels) l = rng.UniformInt(0, 2);
  const double f_random = eval::FMeasure(ds.labels(), random_labels);
  for (const auto& algo : AllAlgorithms()) {
    SCOPED_TRACE(algo->name());
    const ClusteringResult r = algo->Cluster(ds, 3, 5);
    EXPECT_GT(eval::FMeasure(ds.labels(), r.labels), f_random);
  }
}

TEST(Integration, NamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (const auto& algo : AllAlgorithms()) names.insert(algo->name());
  EXPECT_EQ(names.size(), 7u);
  EXPECT_TRUE(names.count("UCPC"));
  EXPECT_TRUE(names.count("UK-means"));
  EXPECT_TRUE(names.count("MMVar"));
  EXPECT_TRUE(names.count("UK-medoids"));
  EXPECT_TRUE(names.count("UAHC"));
  EXPECT_TRUE(names.count("FDBSCAN"));
  EXPECT_TRUE(names.count("FOPTICS"));
}

TEST(Integration, ThetaProtocolRunsForAllFamilies) {
  auto d = data::MakeBenchmarkDataset("Iris", 7).ValueOrDie();
  const clustering::Ucpc algo;
  for (auto family : {data::PdfFamily::kUniform, data::PdfFamily::kNormal,
                      data::PdfFamily::kExponential}) {
    data::UncertaintyParams up;
    up.family = family;
    const eval::ThetaSummary s = eval::RunThetaProtocol(d, up, algo, 3, 2, 8);
    EXPECT_GE(s.theta, -1.0);
    EXPECT_LE(s.theta, 1.0);
  }
}

TEST(Integration, UcpcHandlesHighVarianceDataBetterThanUkmeans) {
  // The paper's headline claim in miniature: with heterogeneous, large
  // uncertainty, UCPC's variance-aware objective should not lose to
  // UK-means on uncertainty-aware clustering quality (averaged over seeds).
  data::MixtureParams params;
  params.n = 240;
  params.dims = 2;
  params.classes = 3;
  params.sigma_min = 0.03;
  params.sigma_max = 0.05;
  params.min_separation = 0.4;
  const auto d = data::MakeGaussianMixture(params, 9, "hv");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  up.min_scale_frac = 0.05;
  up.max_scale_frac = 0.25;  // heavy, heterogeneous uncertainty
  const auto ds = data::UncertaintyModel(d, up, 10).Uncertain();

  const clustering::Ucpc ucpc;
  const clustering::CkMeans ukm;
  double f_ucpc = 0.0, f_ukm = 0.0;
  const int runs = 10;
  for (uint64_t s = 0; s < runs; ++s) {
    f_ucpc += eval::FMeasure(ds.labels(), ucpc.Cluster(ds, 3, s).labels);
    f_ukm += eval::FMeasure(ds.labels(), ukm.Cluster(ds, 3, s).labels);
  }
  EXPECT_GE(f_ucpc / runs, f_ukm / runs - 0.05);
}

TEST(Integration, MicroarrayPipelineEndToEnd) {
  // A miniature Table-3 cell: microarray data -> UCPC vs MMVar -> Q.
  auto ds = data::MakeMicroarrayByName("Neuroblastoma", 11, 0.01)
                .ValueOrDie();
  const clustering::Ucpc ucpc;
  const clustering::Mmvar mmv;
  const ClusteringResult ru = ucpc.Cluster(ds, 5, 12);
  const ClusteringResult rm = mmv.Cluster(ds, 5, 12);
  const double qu = eval::EvaluateInternal(ds.moments(), ru.labels, 5).q;
  const double qm = eval::EvaluateInternal(ds.moments(), rm.labels, 5).q;
  EXPECT_GE(qu, -1.0);
  EXPECT_LE(qu, 1.0);
  EXPECT_GE(qm, -1.0);
  EXPECT_LE(qm, 1.0);
}

TEST(Integration, FastAlgorithmsScaleLinearly) {
  // Smoke check of the complexity claim: doubling n must not blow up the
  // runtime superlinearly for the O(I k n m) algorithms (coarse bound to
  // avoid flakiness on shared hardware).
  auto make = [](std::size_t n) {
    data::MixtureParams p;
    p.n = n;
    p.dims = 4;
    p.classes = 4;
    const auto d = data::MakeGaussianMixture(p, 13, "scale");
    data::UncertaintyParams up;
    return data::UncertaintyModel(d, up, 14).Uncertain();
  };
  const auto small = make(500);
  const auto large = make(2000);
  const clustering::Ucpc algo;
  const auto rs = algo.Cluster(small, 4, 15);
  const auto rl = algo.Cluster(large, 4, 15);
  ASSERT_EQ(rl.labels.size(), 2000u);
  // Only sanity: both finish quickly and report times.
  EXPECT_GE(rs.online_ms, 0.0);
  EXPECT_GE(rl.online_ms, 0.0);
}

TEST(Integration, DiracDegenerationMakesCase1Meaningful) {
  // On Dirac-wrapped deterministic data, UCPC and UK-means optimize the
  // same function (J = J_UK when all variances vanish); their objectives
  // after convergence from the same seed must be close.
  auto d = data::MakeBenchmarkDataset("Iris", 17).ValueOrDie();
  const auto ds = data::UncertainDataset::FromDeterministic(d);
  const clustering::Ucpc ucpc;
  const clustering::CkMeans ukm;
  double best_ucpc = std::numeric_limits<double>::infinity();
  double best_ukm = std::numeric_limits<double>::infinity();
  for (uint64_t s = 0; s < 5; ++s) {
    best_ucpc = std::min(best_ucpc, ucpc.Cluster(ds, 3, s).objective);
    best_ukm = std::min(best_ukm, ukm.Cluster(ds, 3, s).objective);
  }
  EXPECT_NEAR(best_ucpc, best_ukm, 0.15 * best_ukm);
}

}  // namespace
}  // namespace uclust
