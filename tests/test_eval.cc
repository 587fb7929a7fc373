// Tests for the evaluation module: external criteria (F-measure & friends),
// internal criteria (intra/inter/Q) validated against brute-force pairwise
// computation, and the Theta protocol plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "clustering/ckmeans.h"
#include "clustering/ucpc.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"
#include "eval/internal.h"
#include "eval/protocol.h"
#include "uncertain/expected_distance.h"

namespace uclust::eval {
namespace {

TEST(Contingency, CountsAndMarginals) {
  const std::vector<int> ref{0, 0, 1, 1, 2};
  const std::vector<int> clu{1, 1, 0, 1, 0};
  const Contingency t = BuildContingency(ref, clu);
  EXPECT_EQ(t.n, 5u);
  ASSERT_EQ(t.counts.size(), 3u);
  ASSERT_EQ(t.counts[0].size(), 2u);
  EXPECT_DOUBLE_EQ(t.counts[0][1], 2.0);
  EXPECT_DOUBLE_EQ(t.counts[1][0], 1.0);
  EXPECT_DOUBLE_EQ(t.counts[1][1], 1.0);
  EXPECT_DOUBLE_EQ(t.counts[2][0], 1.0);
  EXPECT_DOUBLE_EQ(t.class_sizes[0], 2.0);
  EXPECT_DOUBLE_EQ(t.cluster_sizes[1], 3.0);
}

TEST(FMeasure, PerfectClusteringScoresOne) {
  const std::vector<int> ref{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(FMeasure(ref, ref), 1.0);
  // Label permutation does not matter.
  const std::vector<int> permuted{2, 2, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(FMeasure(ref, permuted), 1.0);
}

TEST(FMeasure, SingleClusterKnownValue) {
  // Two balanced classes collapsed into one cluster:
  // P = 1/2, R = 1 -> F_uv = 2/3 for both classes -> F = 2/3.
  const std::vector<int> ref{0, 0, 1, 1};
  const std::vector<int> clu{0, 0, 0, 0};
  EXPECT_NEAR(FMeasure(ref, clu), 2.0 / 3.0, 1e-12);
}

TEST(FMeasure, HandComputedSplit) {
  // Class 0 = {a,b,c}, class 1 = {d,e}; clustering {a,b}{c,d,e}.
  // F_00: P=1, R=2/3 -> 0.8; F_01: P=1/3, R=1/3 -> 1/3 => class0 best 0.8.
  // F_10: P=0; F_11: P=2/3, R=1 -> 0.8 => class1 best 0.8.
  // F = (3*0.8 + 2*0.8)/5 = 0.8.
  const std::vector<int> ref{0, 0, 0, 1, 1};
  const std::vector<int> clu{0, 0, 1, 1, 1};
  EXPECT_NEAR(FMeasure(ref, clu), 0.8, 1e-12);
}

TEST(FMeasure, RangeIsZeroOne) {
  const std::vector<int> ref{0, 1, 0, 1, 0, 1};
  const std::vector<int> clu{0, 0, 1, 1, 2, 2};
  const double f = FMeasure(ref, clu);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(Purity, KnownValues) {
  const std::vector<int> ref{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Purity(ref, ref), 1.0);
  const std::vector<int> clu{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(Purity(ref, clu), 0.5);
}

TEST(Nmi, PerfectAndIndependent) {
  const std::vector<int> ref{0, 0, 1, 1};
  EXPECT_NEAR(Nmi(ref, ref), 1.0, 1e-12);
  // One big cluster carries no information.
  const std::vector<int> clu{0, 0, 0, 0};
  EXPECT_NEAR(Nmi(ref, clu), 0.0, 1e-12);
}

TEST(AdjustedRand, PerfectPermutedAndRandomish) {
  const std::vector<int> ref{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(AdjustedRand(ref, ref), 1.0);
  const std::vector<int> permuted{1, 1, 2, 2, 0, 0};
  EXPECT_DOUBLE_EQ(AdjustedRand(ref, permuted), 1.0);
  const std::vector<int> one{0, 0, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(AdjustedRand(ref, one), 0.0);
}

// --- Internal criteria ----------------------------------------------------

data::UncertainDataset SmallUncertain(std::size_t n, uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = 3;
  params.classes = 3;
  const auto d = data::MakeGaussianMixture(params, seed, "small");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kUniform;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// Brute-force intra/inter with explicit pairwise ED^ loops.
InternalQuality BruteForceInternal(const data::UncertainDataset& ds,
                                   const std::vector<int>& labels, int k,
                                   double normalizer) {
  InternalQuality out;
  out.normalizer = normalizer;
  double intra_sum = 0.0;
  int intra_clusters = 0;
  for (int c = 0; c < k; ++c) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (labels[i] == c) members.push_back(i);
    }
    if (members.empty()) continue;
    ++intra_clusters;
    if (members.size() < 2) continue;
    double acc = 0.0;
    for (std::size_t a : members) {
      for (std::size_t b : members) {
        if (a == b) continue;
        acc += uncertain::ExpectedSquaredDistance(ds.object(a), ds.object(b));
      }
    }
    intra_sum += acc / (static_cast<double>(members.size()) *
                        (static_cast<double>(members.size()) - 1.0));
  }
  out.intra = intra_clusters > 0
                  ? intra_sum / intra_clusters / normalizer
                  : 0.0;
  double inter_sum = 0.0;
  int pairs = 0;
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      std::vector<std::size_t> ma, mb2;
      for (std::size_t i = 0; i < ds.size(); ++i) {
        if (labels[i] == a) ma.push_back(i);
        if (labels[i] == b) mb2.push_back(i);
      }
      if (ma.empty() || mb2.empty()) continue;
      double acc = 0.0;
      for (std::size_t x : ma) {
        for (std::size_t y : mb2) {
          acc +=
              uncertain::ExpectedSquaredDistance(ds.object(x), ds.object(y));
        }
      }
      inter_sum += acc / (static_cast<double>(ma.size()) *
                          static_cast<double>(mb2.size()));
      ++pairs;
    }
  }
  out.inter = pairs > 0 ? inter_sum / pairs / normalizer : 0.0;
  out.q = out.inter - out.intra;
  return out;
}

TEST(Internal, AggregateMatchesBruteForce) {
  const auto ds = SmallUncertain(60, 1);
  common::Rng rng(2);
  std::vector<int> labels(ds.size());
  for (auto& l : labels) l = rng.UniformInt(0, 2);
  labels[0] = 0;
  labels[1] = 1;
  labels[2] = 2;  // ensure all clusters non-empty
  const InternalQuality fast =
      EvaluateInternal(ds.moments(), labels, 3, Normalization::kNone);
  const InternalQuality brute = BruteForceInternal(ds, labels, 3, 1.0);
  EXPECT_NEAR(fast.intra, brute.intra, 1e-9 * (1.0 + brute.intra));
  EXPECT_NEAR(fast.inter, brute.inter, 1e-9 * (1.0 + brute.inter));
  EXPECT_NEAR(fast.q, brute.q, 1e-9 * (1.0 + std::fabs(brute.q)));
}

TEST(Internal, UpperBoundNormalizerDominatesExactMax) {
  const auto ds = SmallUncertain(50, 3);
  const double ub = EdNormalizer(ds.moments(), Normalization::kUpperBound);
  const double exact = EdNormalizer(ds.moments(), Normalization::kExactMax);
  EXPECT_GE(ub, exact);
  EXPECT_GT(exact, 0.0);
}

TEST(Internal, NormalizedValuesInUnitRange) {
  const auto ds = SmallUncertain(80, 5);
  common::Rng rng(6);
  std::vector<int> labels(ds.size());
  for (auto& l : labels) l = rng.UniformInt(0, 3);
  for (int c = 0; c < 4; ++c) labels[c] = c;
  const InternalQuality q = EvaluateInternal(ds.moments(), labels, 4);
  EXPECT_GE(q.intra, 0.0);
  EXPECT_LE(q.intra, 1.0);
  EXPECT_GE(q.inter, 0.0);
  EXPECT_LE(q.inter, 1.0);
  EXPECT_GE(q.q, -1.0);
  EXPECT_LE(q.q, 1.0);
}

TEST(Internal, GoodClusteringBeatsRandomClustering) {
  const auto ds = SmallUncertain(120, 7);
  const clustering::Ucpc algo;
  const auto good = algo.Cluster(ds, 3, 8);
  common::Rng rng(9);
  std::vector<int> random_labels(ds.size());
  for (auto& l : random_labels) l = rng.UniformInt(0, 2);
  for (int c = 0; c < 3; ++c) random_labels[c] = c;
  const double q_good = EvaluateInternal(ds.moments(), good.labels, 3).q;
  const double q_rand = EvaluateInternal(ds.moments(), random_labels, 3).q;
  EXPECT_GT(q_good, q_rand);
}

TEST(Internal, SingletonClustersContributeZeroIntra) {
  const auto ds = SmallUncertain(10, 11);
  std::vector<int> labels(ds.size(), 0);
  labels[9] = 1;  // singleton
  const InternalQuality q =
      EvaluateInternal(ds.moments(), labels, 2, Normalization::kNone);
  const InternalQuality brute = BruteForceInternal(ds, labels, 2, 1.0);
  EXPECT_NEAR(q.intra, brute.intra, 1e-9 * (1.0 + brute.intra));
}

// --- Theta protocol ---------------------------------------------------

TEST(Protocol, ProducesConsistentSummary) {
  data::MixtureParams params;
  params.n = 90;
  params.dims = 2;
  params.classes = 3;
  const auto d = data::MakeGaussianMixture(params, 13, "proto");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const clustering::CkMeans algo;
  const ThetaSummary s = RunThetaProtocol(d, up, algo, 3, 3, 17);
  EXPECT_EQ(s.runs, 3);
  EXPECT_GE(s.f_case1, 0.0);
  EXPECT_LE(s.f_case1, 1.0);
  EXPECT_GE(s.f_case2, 0.0);
  EXPECT_LE(s.f_case2, 1.0);
  EXPECT_NEAR(s.theta, s.f_case2 - s.f_case1, 1e-12);
  EXPECT_GE(s.q_case2, -1.0);
  EXPECT_LE(s.q_case2, 1.0);
}

TEST(Protocol, DeterministicGivenSeed) {
  data::MixtureParams params;
  params.n = 60;
  params.dims = 2;
  params.classes = 2;
  const auto d = data::MakeGaussianMixture(params, 19, "proto2");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kExponential;
  const clustering::Ucpc algo;
  const ThetaSummary a = RunThetaProtocol(d, up, algo, 2, 2, 23);
  const ThetaSummary b = RunThetaProtocol(d, up, algo, 2, 2, 23);
  EXPECT_DOUBLE_EQ(a.theta, b.theta);
  EXPECT_DOUBLE_EQ(a.q_case2, b.q_case2);
}

}  // namespace
}  // namespace uclust::eval
