// Tests for the data substrate: dataset containers, generators and the
// uncertainty protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/benchmark_gen.h"
#include "data/dataset.h"
#include "data/kdd_gen.h"
#include "data/microarray_gen.h"
#include "data/uncertainty_model.h"

namespace uclust::data {
namespace {

TEST(DeterministicDataset, ValidateCatchesRaggedPoints) {
  DeterministicDataset d;
  d.name = "bad";
  d.points = {{1.0, 2.0}, {3.0}};
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DeterministicDataset, ValidateCatchesBadLabels) {
  DeterministicDataset d;
  d.name = "bad";
  d.points = {{1.0}, {2.0}};
  d.labels = {0, 5};
  d.num_classes = 2;
  EXPECT_FALSE(d.Validate().ok());
  d.labels = {0, 1};
  EXPECT_TRUE(d.Validate().ok());
}

TEST(DeterministicDataset, NormalizeToUnitCube) {
  DeterministicDataset d;
  d.points = {{0.0, 10.0}, {5.0, 20.0}, {10.0, 30.0}};
  d.NormalizeToUnitCube();
  EXPECT_DOUBLE_EQ(d.points[0][0], 0.0);
  EXPECT_DOUBLE_EQ(d.points[1][0], 0.5);
  EXPECT_DOUBLE_EQ(d.points[2][1], 1.0);
}

TEST(DeterministicDataset, DimensionRanges) {
  DeterministicDataset d;
  d.points = {{-1.0, 3.0}, {2.0, 7.0}};
  const auto r = d.DimensionRanges();
  EXPECT_DOUBLE_EQ(r[0].first, -1.0);
  EXPECT_DOUBLE_EQ(r[0].second, 2.0);
  EXPECT_DOUBLE_EQ(r[1].first, 3.0);
  EXPECT_DOUBLE_EQ(r[1].second, 7.0);
}

TEST(UncertainDataset, FromDeterministicWrapsDiracs) {
  DeterministicDataset d;
  d.name = "pts";
  d.points = {{1.0, 2.0}, {3.0, 4.0}};
  d.labels = {0, 1};
  d.num_classes = 2;
  const UncertainDataset u = UncertainDataset::FromDeterministic(d);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(u.dims(), 2u);
  EXPECT_EQ(u.labels(), d.labels);
  EXPECT_DOUBLE_EQ(u.moments().total_variance(0), 0.0);
  EXPECT_DOUBLE_EQ(u.object(1).mean()[1], 4.0);
}

TEST(MakeGaussianMixture, ShapeAndLabels) {
  MixtureParams p;
  p.n = 123;
  p.dims = 5;
  p.classes = 4;
  const auto d = MakeGaussianMixture(p, 1, "mix");
  EXPECT_EQ(d.size(), 123u);
  EXPECT_EQ(d.dims(), 5u);
  EXPECT_EQ(d.num_classes, 4);
  EXPECT_TRUE(d.Validate().ok());
  std::set<int> classes(d.labels.begin(), d.labels.end());
  EXPECT_EQ(classes.size(), 4u);  // every class inhabited
}

TEST(MakeGaussianMixture, PointsInUnitCube) {
  MixtureParams p;
  p.n = 200;
  p.dims = 3;
  p.classes = 3;
  const auto d = MakeGaussianMixture(p, 2, "mix");
  for (const auto& pt : d.points) {
    for (double x : pt) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
    }
  }
}

TEST(MakeGaussianMixture, DeterministicGivenSeed) {
  MixtureParams p;
  p.n = 50;
  p.dims = 2;
  p.classes = 2;
  const auto a = MakeGaussianMixture(p, 7, "a");
  const auto b = MakeGaussianMixture(p, 7, "b");
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(MakeGaussianMixture, ManyClassesInFewDimsStillWorks) {
  MixtureParams p;
  p.n = 400;
  p.dims = 2;
  p.classes = 17;  // forces the separation-relaxation path
  const auto d = MakeGaussianMixture(p, 3, "crowded");
  EXPECT_EQ(d.num_classes, 17);
  std::set<int> classes(d.labels.begin(), d.labels.end());
  EXPECT_EQ(classes.size(), 17u);
}

TEST(BenchmarkSpecs, MatchTableOneOfPaper) {
  const auto specs = PaperBenchmarkSpecs();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_STREQ(specs[0].name, "Iris");
  EXPECT_EQ(specs[0].n, 150u);
  EXPECT_EQ(specs[0].dims, 4u);
  EXPECT_EQ(specs[0].classes, 3);
  EXPECT_STREQ(specs[7].name, "Letter");
  EXPECT_EQ(specs[7].n, 7648u);
  EXPECT_EQ(specs[7].dims, 16u);
  EXPECT_EQ(specs[7].classes, 10);
}

TEST(MakeBenchmarkDataset, ByNameAndScale) {
  auto r = MakeBenchmarkDataset("Ecoli", 5, 0.5);
  ASSERT_TRUE(r.ok());
  const auto d = std::move(r).ValueOrDie();
  EXPECT_EQ(d.name, "Ecoli");
  EXPECT_EQ(d.dims(), 7u);
  EXPECT_EQ(d.num_classes, 5);
  EXPECT_NEAR(static_cast<double>(d.size()), 327 * 0.5, 2.0);
}

TEST(MakeBenchmarkDataset, UnknownNameFails) {
  EXPECT_FALSE(MakeBenchmarkDataset("Nope", 1).ok());
  EXPECT_FALSE(MakeBenchmarkDataset("Iris", 1, 0.0).ok());
  EXPECT_FALSE(MakeBenchmarkDataset("Iris", 1, 1.5).ok());
}

TEST(PdfFamily, NamesAndParsing) {
  EXPECT_STREQ(PdfFamilyName(PdfFamily::kUniform), "uniform");
  EXPECT_STREQ(PdfFamilyName(PdfFamily::kNormal), "normal");
  EXPECT_STREQ(PdfFamilyName(PdfFamily::kExponential), "exponential");
  EXPECT_TRUE(ParsePdfFamily("U").ok());
  EXPECT_EQ(ParsePdfFamily("normal").ValueOrDie(), PdfFamily::kNormal);
  EXPECT_FALSE(ParsePdfFamily("cauchy").ok());
}

TEST(MakeUncertainPdf, MeanExactScaleControlsSpread) {
  for (auto family : {PdfFamily::kUniform, PdfFamily::kNormal,
                      PdfFamily::kExponential}) {
    const auto small = MakeUncertainPdf(family, 3.0, 0.1);
    const auto large = MakeUncertainPdf(family, 3.0, 1.0);
    EXPECT_DOUBLE_EQ(small->mean(), 3.0) << PdfFamilyName(family);
    EXPECT_DOUBLE_EQ(large->mean(), 3.0) << PdfFamilyName(family);
    EXPECT_LT(small->variance(), large->variance());
  }
}

TEST(VarianceFactor, MatchesConstructedPdfVariance) {
  for (auto family : {PdfFamily::kUniform, PdfFamily::kNormal,
                      PdfFamily::kExponential}) {
    const double factor = VarianceFactor(family);
    const auto pdf = MakeUncertainPdf(family, 0.0, 2.5);
    EXPECT_NEAR(pdf->variance(), factor * 2.5 * 2.5,
                1e-9 * (1.0 + pdf->variance()))
        << PdfFamilyName(family);
  }
}

TEST(UncertaintyModel, UncertainDatasetPreservesMeans) {
  MixtureParams p;
  p.n = 40;
  p.dims = 3;
  p.classes = 2;
  const auto d = MakeGaussianMixture(p, 11, "src");
  UncertaintyParams up;
  up.family = PdfFamily::kExponential;
  const UncertaintyModel model(d, up, 12);
  const UncertainDataset u = model.Uncertain();
  ASSERT_EQ(u.size(), d.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    for (std::size_t j = 0; j < u.dims(); ++j) {
      EXPECT_NEAR(u.object(i).mean()[j], d.points[i][j], 1e-12);
    }
  }
  EXPECT_EQ(u.labels(), d.labels);
}

TEST(UncertaintyModel, PerturbedStaysWithinRegions) {
  MixtureParams p;
  p.n = 30;
  p.dims = 2;
  p.classes = 2;
  const auto d = MakeGaussianMixture(p, 13, "src");
  UncertaintyParams up;
  up.family = PdfFamily::kUniform;
  const UncertaintyModel model(d, up, 14);
  const DeterministicDataset perturbed = model.Perturbed(15);
  ASSERT_EQ(perturbed.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = 0; j < d.dims(); ++j) {
      EXPECT_GE(perturbed.points[i][j], model.pdf(i, j).lower() - 1e-12);
      EXPECT_LE(perturbed.points[i][j], model.pdf(i, j).upper() + 1e-12);
    }
  }
  EXPECT_EQ(perturbed.labels, d.labels);
}

TEST(UncertaintyModel, ScalesRespectConfiguredRange) {
  MixtureParams p;
  p.n = 50;
  p.dims = 2;
  p.classes = 2;
  const auto d = MakeGaussianMixture(p, 17, "src");
  UncertaintyParams up;
  up.family = PdfFamily::kNormal;
  up.min_scale_frac = 0.01;
  up.max_scale_frac = 0.02;
  const UncertaintyModel model(d, up, 18);
  const UncertainDataset u = model.Uncertain();
  // Data is unit-cube normalized, so sigma in [0.01, 0.02] and the truncated
  // variance is below 0.02^2.
  for (std::size_t i = 0; i < u.size(); ++i) {
    for (std::size_t j = 0; j < u.dims(); ++j) {
      EXPECT_LE(u.object(i).variance()[j], 0.02 * 0.02 + 1e-12);
      EXPECT_GT(u.object(i).variance()[j], 0.0);
    }
  }
}

TEST(KddGen, DatasetShape) {
  KddLikeParams p;
  p.n = 2000;
  const auto d = MakeKddLikeDataset(p, 21);
  EXPECT_EQ(d.size(), 2000u);
  EXPECT_EQ(d.dims(), 42u);
  EXPECT_EQ(d.num_classes, 23);
  std::set<int> classes(d.labels.begin(), d.labels.end());
  EXPECT_EQ(classes.size(), 23u);  // the paper requires all classes covered
}

TEST(KddGen, ZipfSkewsClassSizes) {
  KddLikeParams p;
  p.n = 5000;
  const auto d = MakeKddLikeDataset(p, 23);
  std::vector<int> sizes(23, 0);
  for (int l : d.labels) ++sizes[l];
  EXPECT_GT(sizes[0], sizes[22] * 5);  // strongly imbalanced
}

TEST(KddGen, MomentStreamConsistency) {
  KddLikeParams p;
  p.n = 500;
  UncertaintyParams up;
  up.family = PdfFamily::kNormal;
  std::vector<int> labels;
  const auto mm = MakeKddLikeMoments(p, up, 25, &labels);
  ASSERT_EQ(mm.size(), 500u);
  ASSERT_EQ(mm.dims(), 42u);
  ASSERT_EQ(labels.size(), 500u);
  const double factor = VarianceFactor(up.family);
  for (std::size_t i = 0; i < mm.size(); i += 37) {
    for (std::size_t j = 0; j < mm.dims(); ++j) {
      // mu2 = var + mean^2 must hold row-wise.
      EXPECT_NEAR(mm.second_moment(i)[j],
                  mm.variance(i)[j] + mm.mean(i)[j] * mm.mean(i)[j], 1e-9);
      // Variance within the configured envelope.
      const double lo = factor * up.min_scale_frac * up.min_scale_frac;
      const double hi = factor * up.max_scale_frac * up.max_scale_frac;
      EXPECT_GE(mm.variance(i)[j], lo - 1e-12);
      EXPECT_LE(mm.variance(i)[j], hi + 1e-12);
    }
  }
}

TEST(MicroarrayGen, SpecsMatchTableOneB) {
  const auto specs = PaperMicroarraySpecs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_STREQ(specs[0].name, "Neuroblastoma");
  EXPECT_EQ(specs[0].genes, 22282u);
  EXPECT_EQ(specs[0].conditions, 14u);
  EXPECT_STREQ(specs[1].name, "Leukaemia");
  EXPECT_EQ(specs[1].genes, 22690u);
  EXPECT_EQ(specs[1].conditions, 21u);
}

TEST(MicroarrayGen, HeteroscedasticUncertainty) {
  MicroarrayParams p;
  p.genes = 300;
  p.conditions = 6;
  const auto ds = MakeMicroarrayDataset(p, 31, "micro");
  EXPECT_EQ(ds.size(), 300u);
  EXPECT_EQ(ds.dims(), 6u);
  // Probe-level sigma must anti-correlate with expression: compare the
  // average variance of low- vs high-expression entries.
  double low_var = 0.0, high_var = 0.0;
  int low_n = 0, high_n = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = 0; j < ds.dims(); ++j) {
      const double expr = ds.object(i).mean()[j];
      const double var = ds.object(i).variance()[j];
      if (expr < 5.0) {
        low_var += var;
        ++low_n;
      } else if (expr > 9.0) {
        high_var += var;
        ++high_n;
      }
    }
  }
  ASSERT_GT(low_n, 0);
  ASSERT_GT(high_n, 0);
  EXPECT_GT(low_var / low_n, high_var / high_n);
}

TEST(MicroarrayGen, ByNameScales) {
  auto r = MakeMicroarrayByName("Leukaemia", 33, 0.01);
  ASSERT_TRUE(r.ok());
  const auto ds = std::move(r).ValueOrDie();
  EXPECT_EQ(ds.dims(), 21u);
  EXPECT_NEAR(static_cast<double>(ds.size()), 22690 * 0.01, 2.0);
  EXPECT_FALSE(MakeMicroarrayByName("Unknown", 1).ok());
}

}  // namespace
}  // namespace uclust::data
