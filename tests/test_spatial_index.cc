// SpatialIndex exactness contract: over a mix of pdf families and
// dimensionalities, QueryWithin must return EXACTLY the brute-force set
// { j : boxes[j].MinSquaredDistanceTo(query) <= threshold2 } and
// NearestCandidates a superset of the min-bound argmin bracket. These are
// the invariants the indexed FDBSCAN / UK-medoids sweeps rely on for
// bit-identical clusterings (docs/spatial-index.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "clustering/spatial_index.h"
#include "common/rng.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/uniform_pdf.h"
#include "data/uncertainty_model.h"
#include "uncertain/uncertain_object.h"

namespace uclust::clustering {
namespace {

using uncertain::Box;
using uncertain::UncertainObject;

constexpr SpatialIndexKind kRTree = SpatialIndexKind::kRTree;

// Objects with per-dimension pdfs cycling through every supported family —
// including zero-extent Dirac regions — so degenerate and fat boxes mix.
std::vector<UncertainObject> MixedFamilyObjects(std::size_t n, std::size_t m,
                                                uint64_t seed) {
  common::Rng rng(seed);
  std::vector<UncertainObject> objects;
  objects.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<uncertain::PdfPtr> dims;
    dims.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      const double c = rng.Uniform(-2.0, 2.0);
      const double w = 0.02 + 0.3 * rng.Uniform();
      switch ((i * m + j) % 5) {
        case 0:
          dims.push_back(uncertain::UniformPdf::Centered(c, w));
          break;
        case 1:
          dims.push_back(
              data::MakeUncertainPdf(data::PdfFamily::kNormal, c, w));
          break;
        case 2:
          dims.push_back(
              data::MakeUncertainPdf(data::PdfFamily::kExponential, c, w));
          break;
        case 3:
          dims.push_back(
              uncertain::DiscretePdf::Uniformly({c - w, c, c + 0.5 * w}));
          break;
        default:
          dims.push_back(uncertain::DiracPdf::Make(c));
          break;
      }
    }
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

std::vector<std::size_t> BruteWithin(
    const std::vector<UncertainObject>& objects, const Box& query,
    double threshold2, std::size_t exclude) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < objects.size(); ++j) {
    if (j == exclude) continue;
    if (objects[j].region().MinSquaredDistanceTo(query) <= threshold2) {
      out.push_back(j);
    }
  }
  return out;
}

// QueryWithin over random queries and thresholds must equal the brute-force
// set element-for-element, across dimensionalities.
TEST(SpatialIndex, QueryWithinMatchesBruteForceAcrossFamilies) {
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    const auto objects = MixedFamilyObjects(120, m, 0xB0C5 + m);
    common::Rng rng(0xF00D + m);
    const SpatialIndex index(
        std::span<const UncertainObject>(objects.data(), objects.size()),
        kRTree);
    ASSERT_EQ(index.size(), objects.size());
    for (int probe = 0; probe < 64; ++probe) {
      const std::size_t i = rng.Index(objects.size());
      // Thresholds from tiny (often-empty result) to huge (everything).
      const double t2 = std::pow(10.0, rng.Uniform(-4.0, 1.0));
      const std::size_t exclude =
          probe % 2 == 0 ? i : objects.size();  // with and without self
      std::vector<std::size_t> got;
      index.QueryWithin(objects[i].region(), t2, exclude, &got);
      EXPECT_EQ(got, BruteWithin(objects, objects[i].region(), t2, exclude))
          << "m=" << m << " probe=" << probe;
    }
  }
}

// NearestCandidates must bracket the argmin: every id whose min bound does
// not exceed the smallest max bound is included, and the set is never empty.
TEST(SpatialIndex, NearestCandidatesBracketTheArgmin) {
  const auto objects = MixedFamilyObjects(60, 2, 0xD00D);
  // Index a strided subset (the medoid use case: few boxes, many queries).
  std::vector<Box> boxes;
  for (std::size_t j = 0; j < objects.size(); j += 7) {
    boxes.push_back(objects[j].region());
  }
  const SpatialIndex index(std::vector<Box>(boxes), kRTree);
  std::vector<std::size_t> cand;
  for (const auto& o : objects) {
    index.NearestCandidates(o.region(), &cand);
    ASSERT_FALSE(cand.empty());
    ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    double best_ub = std::numeric_limits<double>::infinity();
    for (const Box& b : boxes) {
      best_ub = std::min(best_ub, b.MaxSquaredDistanceTo(o.region()));
    }
    for (std::size_t s = 0; s < boxes.size(); ++s) {
      const bool possible =
          boxes[s].MinSquaredDistanceTo(o.region()) <= best_ub;
      const bool listed = std::binary_search(cand.begin(), cand.end(), s);
      // The candidate set may over-include (slack), never under-include.
      EXPECT_TRUE(!possible || listed) << "slot=" << s;
    }
  }
}

// Degenerate shapes: a single object, and all boxes stacked on one spot
// (every pair at distance 0 — the R-tree collapses to one leaf; queries
// must still return complete sets).
TEST(SpatialIndex, SingleObjectAndAllOverlappingBoxes) {
  const std::vector<double> spot = {0.5, -1.0};
  // Single object.
  std::vector<UncertainObject> one;
  one.push_back(UncertainObject::Deterministic(spot));
  const SpatialIndex single(
      std::span<const UncertainObject>(one.data(), one.size()), kRTree);
  std::vector<std::size_t> out;
  single.QueryWithin(one[0].region(), 1.0, 0, &out);
  EXPECT_TRUE(out.empty());  // only the excluded self
  single.QueryWithin(one[0].region(), 0.0, one.size(), &out);
  EXPECT_EQ(out, std::vector<std::size_t>{0});

  // Identical boxes: zero-width and fat variants sharing one center.
  std::vector<UncertainObject> stack;
  for (int i = 0; i < 17; ++i) {
    if (i % 2 == 0) {
      stack.push_back(UncertainObject::Deterministic(spot));
    } else {
      std::vector<uncertain::PdfPtr> dims;
      dims.push_back(uncertain::UniformPdf::Centered(spot[0], 0.25));
      dims.push_back(uncertain::UniformPdf::Centered(spot[1], 0.25));
      stack.emplace_back(std::move(dims));
    }
  }
  const SpatialIndex overlap(
      std::span<const UncertainObject>(stack.data(), stack.size()), kRTree);
  overlap.QueryWithin(stack[0].region(), 0.0, 3, &out);
  EXPECT_EQ(out.size(), stack.size() - 1);
  ASSERT_TRUE(std::is_sorted(out.begin(), out.end()));
  overlap.NearestCandidates(stack[0].region(), &out);
  EXPECT_EQ(out.size(), stack.size());
}

// An empty box list builds and answers every query with the empty set.
TEST(SpatialIndex, EmptyIndexAnswersEmptily) {
  const SpatialIndex empty(std::vector<Box>{}, kRTree);
  EXPECT_EQ(empty.size(), std::size_t{0});
  const Box q({0.0}, {1.0});
  std::vector<std::size_t> out = {99};
  empty.QueryWithin(q, 1e9, 0, &out);
  EXPECT_TRUE(out.empty());
  out = {99};
  empty.NearestCandidates(q, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(empty.bound_tests(), 0);
}

// The resolver perfbench builds its index through: the R-tree at every
// dimensionality.
TEST(SpatialIndex, AutoResolvesToTheRTree) {
  for (const std::size_t dims : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{9}}) {
    EXPECT_EQ(ResolveSpatialIndexKind(SpatialIndexChoice::kAuto, dims),
              SpatialIndexKind::kRTree);
  }
}

// The bound-test counter grows with queries and is what the CI smoke gate
// compares against the all-pairs floor.
TEST(SpatialIndex, BoundTestCounterIsMonotone) {
  const auto objects = MixedFamilyObjects(40, 2, 0x1234);
  const SpatialIndex index(
      std::span<const UncertainObject>(objects.data(), objects.size()),
      kRTree);
  EXPECT_EQ(index.bound_tests(), 0);
  std::vector<std::size_t> out;
  index.QueryWithin(objects[0].region(), 0.5, 0, &out);
  const int64_t after_one = index.bound_tests();
  EXPECT_GT(after_one, 0);
  index.QueryWithin(objects[1].region(), 0.5, 1, &out);
  EXPECT_GT(index.bound_tests(), after_one);
}

}  // namespace
}  // namespace uclust::clustering
