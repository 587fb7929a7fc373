// Tests for Box geometry, UncertainObject moment aggregation, MomentMatrix
// packing, and the Resident sample store.
#include <gtest/gtest.h>

#include <cmath>

#include "clustering/kernels.h"
#include "common/rng.h"
#include "uncertain/box.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/sample_store.h"
#include "uncertain/uncertain_object.h"
#include "uncertain/uniform_pdf.h"

namespace uclust::uncertain {
namespace {

UncertainObject MakeObject2D(double mx, double sx, double my, double sy) {
  std::vector<PdfPtr> dims;
  dims.push_back(TruncatedNormalPdf::Make(mx, sx));
  dims.push_back(TruncatedNormalPdf::Make(my, sy));
  return UncertainObject(std::move(dims));
}

TEST(Box, CenterAndContains) {
  Box box({0.0, -1.0}, {2.0, 1.0});
  EXPECT_EQ(box.dims(), 2u);
  const auto c = box.Center();
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 0.0);
  const std::vector<double> inside{1.0, 0.5};
  const std::vector<double> outside{3.0, 0.0};
  EXPECT_TRUE(box.Contains(inside));
  EXPECT_FALSE(box.Contains(outside));
  EXPECT_TRUE(box.Contains(box.lower()));
  EXPECT_TRUE(box.Contains(box.upper()));
}

TEST(Box, MinMaxSquaredDistanceOutsidePoint) {
  Box box({0.0, 0.0}, {1.0, 1.0});
  const std::vector<double> p{2.0, 0.5};
  EXPECT_DOUBLE_EQ(box.MinSquaredDistanceTo(p), 1.0);   // to face x=1
  // Farthest corner is (0,0) or (0,1): dx=2, dy=0.5 -> 4+0.25.
  EXPECT_DOUBLE_EQ(box.MaxSquaredDistanceTo(p), 4.25);
}

TEST(Box, MinDistanceZeroInside) {
  Box box({0.0, 0.0}, {1.0, 1.0});
  const std::vector<double> p{0.25, 0.75};
  EXPECT_DOUBLE_EQ(box.MinSquaredDistanceTo(p), 0.0);
  EXPECT_GT(box.MaxSquaredDistanceTo(p), 0.0);
}

TEST(Box, MinMaxBracketAllBoxPoints) {
  common::Rng rng(3);
  Box box({-1.0, 2.0, 0.0}, {1.5, 3.0, 0.25});
  std::vector<double> q{4.0, -1.0, 2.0};
  const double lo = box.MinSquaredDistanceTo(q);
  const double hi = box.MaxSquaredDistanceTo(q);
  for (int t = 0; t < 2000; ++t) {
    std::vector<double> x(3);
    for (std::size_t j = 0; j < 3; ++j) {
      x[j] = rng.Uniform(box.lower()[j], box.upper()[j]);
    }
    double d = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      d += (x[j] - q[j]) * (x[j] - q[j]);
    }
    EXPECT_GE(d, lo - 1e-12);
    EXPECT_LE(d, hi + 1e-12);
  }
}

TEST(Box, BoundingUnion) {
  Box a({0.0, 0.0}, {1.0, 1.0});
  Box b({0.5, -2.0}, {3.0, 0.5});
  const Box u = Box::BoundingUnion(a, b);
  EXPECT_DOUBLE_EQ(u.lower()[0], 0.0);
  EXPECT_DOUBLE_EQ(u.lower()[1], -2.0);
  EXPECT_DOUBLE_EQ(u.upper()[0], 3.0);
  EXPECT_DOUBLE_EQ(u.upper()[1], 1.0);
}

TEST(Box, EntirelyCloserToMatchesBruteForceOverCorners) {
  // The extremum of the linear bisector expression is attained at a corner,
  // so checking all corners is an exact oracle.
  common::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> lo(3), hi(3), a(3), b(3);
    for (std::size_t j = 0; j < 3; ++j) {
      lo[j] = rng.Uniform(-2.0, 2.0);
      hi[j] = lo[j] + rng.Uniform(0.0, 1.5);
      a[j] = rng.Uniform(-3.0, 3.0);
      b[j] = rng.Uniform(-3.0, 3.0);
    }
    Box box(lo, hi);
    bool oracle = true;
    for (int corner = 0; corner < 8; ++corner) {
      std::vector<double> x(3);
      for (std::size_t j = 0; j < 3; ++j) {
        x[j] = (corner >> j) & 1 ? hi[j] : lo[j];
      }
      double da = 0.0, db = 0.0;
      for (std::size_t j = 0; j < 3; ++j) {
        da += (x[j] - a[j]) * (x[j] - a[j]);
        db += (x[j] - b[j]) * (x[j] - b[j]);
      }
      if (da > db) {
        oracle = false;
        break;
      }
    }
    EXPECT_EQ(box.EntirelyCloserTo(a, b), oracle) << "trial " << trial;
  }
}

TEST(UncertainObject, AggregatesPerDimensionMoments) {
  const UncertainObject o = MakeObject2D(1.0, 0.5, -2.0, 1.0);
  ASSERT_EQ(o.dims(), 2u);
  EXPECT_DOUBLE_EQ(o.mean()[0], 1.0);
  EXPECT_DOUBLE_EQ(o.mean()[1], -2.0);
  EXPECT_DOUBLE_EQ(o.variance()[0], o.pdf(0).variance());
  EXPECT_DOUBLE_EQ(o.variance()[1], o.pdf(1).variance());
  EXPECT_NEAR(o.total_variance(), o.variance()[0] + o.variance()[1], 1e-15);
  EXPECT_DOUBLE_EQ(o.second_moment()[0], o.pdf(0).second_moment());
}

TEST(UncertainObject, RegionIsProductOfSupports) {
  const UncertainObject o = MakeObject2D(0.0, 1.0, 5.0, 2.0);
  const Box& r = o.region();
  EXPECT_DOUBLE_EQ(r.lower()[0], o.pdf(0).lower());
  EXPECT_DOUBLE_EQ(r.upper()[1], o.pdf(1).upper());
}

TEST(UncertainObject, DeterministicFactoryHasZeroVariance) {
  const std::vector<double> p{1.0, 2.0, 3.0};
  const UncertainObject o = UncertainObject::Deterministic(p);
  EXPECT_EQ(o.dims(), 3u);
  EXPECT_DOUBLE_EQ(o.total_variance(), 0.0);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(o.mean()[j], p[j]);
  }
  common::Rng rng(1);
  EXPECT_EQ(o.Sample(&rng), p);
}

TEST(UncertainObject, SamplesStayInRegion) {
  const UncertainObject o = MakeObject2D(0.0, 1.0, 10.0, 0.1);
  common::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto x = o.Sample(&rng);
    EXPECT_TRUE(o.region().Contains(x));
  }
}

TEST(UncertainObject, CopySharesPdfs) {
  const UncertainObject a = MakeObject2D(0.0, 1.0, 0.0, 1.0);
  const UncertainObject b = a;  // NOLINT: copy on purpose
  EXPECT_EQ(&a.pdf(0), &b.pdf(0));
  EXPECT_EQ(a.mean(), b.mean());
}

TEST(MomentMatrix, PacksObjectsFaithfully) {
  std::vector<UncertainObject> objs;
  objs.push_back(MakeObject2D(1.0, 0.5, 2.0, 0.25));
  objs.push_back(MakeObject2D(-1.0, 2.0, 0.0, 1.0));
  const MomentMatrix mm = MomentMatrix::FromObjects(objs);
  ASSERT_EQ(mm.size(), 2u);
  ASSERT_EQ(mm.dims(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(mm.mean(i)[j], objs[i].mean()[j]);
      EXPECT_DOUBLE_EQ(mm.second_moment(i)[j], objs[i].second_moment()[j]);
      EXPECT_DOUBLE_EQ(mm.variance(i)[j], objs[i].variance()[j]);
    }
    EXPECT_NEAR(mm.total_variance(i), objs[i].total_variance(), 1e-15);
  }
}

TEST(MomentMatrix, AppendRowsDirectly) {
  MomentMatrix mm(2, 3);
  const std::vector<double> mean{1.0, 2.0, 3.0};
  const std::vector<double> mu2{2.0, 5.0, 10.0};
  const std::vector<double> var{1.0, 1.0, 1.0};
  mm.AppendRow(mean, mu2, var);
  ASSERT_EQ(mm.size(), 1u);
  EXPECT_DOUBLE_EQ(mm.total_variance(0), 3.0);
  EXPECT_DOUBLE_EQ(mm.mean(0)[2], 3.0);
}

TEST(SampleStore, ShapesAndDeterminism) {
  std::vector<UncertainObject> objs;
  objs.push_back(MakeObject2D(0.0, 1.0, 0.0, 1.0));
  objs.push_back(MakeObject2D(5.0, 0.5, -5.0, 0.5));
  const ResidentSampleStore sa(objs, 16, 99);
  const ResidentSampleStore sb(objs, 16, 99);
  const SampleView a = sa.view();
  const SampleView b = sb.view();
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.samples_per_object(), 16);
  EXPECT_EQ(a.dims(), 2u);
  for (int s = 0; s < 16; ++s) {
    EXPECT_EQ(std::vector<double>(a.SampleOf(1, s).begin(),
                                  a.SampleOf(1, s).end()),
              std::vector<double>(b.SampleOf(1, s).begin(),
                                  b.SampleOf(1, s).end()));
  }
}

TEST(SampleStore, SamplesInsideRegions) {
  std::vector<UncertainObject> objs;
  objs.push_back(MakeObject2D(0.0, 2.0, 1.0, 0.5));
  const ResidentSampleStore store(objs, 64, 7);
  const SampleView cache = store.view();
  for (int s = 0; s < 64; ++s) {
    EXPECT_TRUE(objs[0].region().Contains(cache.SampleOf(0, s)));
  }
}

TEST(SampleStore, ExpectedDistanceEstimatorConverges) {
  std::vector<UncertainObject> objs;
  objs.push_back(MakeObject2D(1.0, 0.5, -1.0, 0.5));
  const ResidentSampleStore store(objs, 4096, 3);
  const SampleView cache = store.view();
  const std::vector<double> y{0.0, 0.0};
  const double est = cache.ExpectedSquaredDistanceToPoint(0, y);
  // Closed form: sigma^2(o) + ||mu - y||^2.
  const double exact = objs[0].total_variance() + 2.0;
  EXPECT_NEAR(est, exact, 0.05);
}

TEST(SampleStore, DistanceProbabilityEndpoints) {
  std::vector<UncertainObject> objs;
  objs.push_back(MakeObject2D(0.0, 0.1, 0.0, 0.1));
  objs.push_back(MakeObject2D(0.0, 0.1, 0.0, 0.1));
  objs.push_back(MakeObject2D(100.0, 0.1, 100.0, 0.1));
  const ResidentSampleStore store(objs, 32, 5);
  const auto probability = [&](std::size_t i, std::size_t j, double eps) {
    double p = -1.0;
    clustering::kernels::PairwiseKernel::DistanceProbability(store.view(),
                                                             eps)
        .EvalRow(i, &j, 1, &p);
    return p;
  };
  // Near-identical objects: always within a huge radius.
  EXPECT_DOUBLE_EQ(probability(0, 1, 10.0), 1.0);
  // Distant object: never within a small radius.
  EXPECT_DOUBLE_EQ(probability(0, 2, 1.0), 0.0);
}

}  // namespace
}  // namespace uclust::uncertain
