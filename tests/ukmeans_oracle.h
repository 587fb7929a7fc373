// The direct UK-means loop, kept as the bit-identity oracle for CK-means.
//
// UK-means in the formulation of Lee, Kao & Cheng (ICDM-W 2007): because
// ED(o, c) = ED(o, mu(o)) + ||c - mu(o)||^2 (Eq. 8) and the first term is
// constant per object, the algorithm is Lloyd's K-means on the objects'
// expected values. This loop evaluates every (object, center) pair every
// sweep, O(I k n m). The library runs CK-means (clustering/ckmeans.h), which
// must reproduce this loop's labels, objective and iteration count bit for
// bit at any engine thread count; the tests and
// `bench_ckmeans_smoke --mode=compare` check that against this header.
// Header-only; nothing under src/ includes it.
#ifndef UCLUST_TESTS_UKMEANS_ORACLE_H_
#define UCLUST_TESTS_UKMEANS_ORACLE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/init.h"
#include "clustering/kernels.h"
#include "clustering/simd/simd.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/parallel_for.h"
#include "uncertain/moments.h"

namespace uclust::clustering::oracle {

/// Best and runner-up centers of one point.
struct NearestTwoResult {
  int best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  double second_d2 = std::numeric_limits<double>::infinity();
};

/// The row-major center scan over a flat k x m centroid array, with `t`'s
/// squared_distance: ascending c, strict <, ties to the lower index,
/// second_d2 = +inf when k == 1, and reuse_c >= 0 substituting reuse_d2 for
/// that center's distance. This is the decision sequence and these are the
/// distance bits the center-lane kernel simd::NearestTwo must reproduce; it
/// shares no code with that kernel.
inline NearestTwoResult NearestTwoScan(const simd::KernelTable& t,
                                       const double* point,
                                       const double* centroids, int k,
                                       std::size_t m, int reuse_c = -1,
                                       double reuse_d2 = 0.0) {
  NearestTwoResult r;
  for (int c = 0; c < k; ++c) {
    const double d2 =
        c == reuse_c
            ? reuse_d2
            : t.squared_distance(
                  point, centroids + static_cast<std::size_t>(c) * m, m);
    if (d2 < r.best_d2) {
      r.second_d2 = r.best_d2;
      r.best_d2 = d2;
      r.best = c;
    } else if (d2 < r.second_d2) {
      r.second_d2 = d2;
    }
  }
  return r;
}

/// Index of the centroid (flat k x m array) nearest to `point` by squared
/// Euclidean distance under the active SIMD path; ties break toward the
/// lower index.
inline int NearestCentroid(std::span<const double> point,
                           std::span<const double> centroids, int k,
                           std::size_t m) {
  return NearestTwoScan(simd::Active(), point.data(), centroids.data(), k, m)
      .best;
}

/// Assigns every object's expected value to its nearest centroid (the
/// UK-means assignment step, Eq. 8). Writes labels[i] and returns the number
/// of labels that changed.
inline std::size_t AssignNearest(const engine::Engine& eng,
                                 const uncertain::MomentView& mm,
                                 std::span<const double> centroids, int k,
                                 std::span<int> labels) {
  const std::size_t m = mm.dims();
  const std::vector<std::size_t> changed_per_block =
      engine::MapBlocks<std::size_t>(
          eng, mm.size(), [&](const engine::BlockedRange& r) {
            std::size_t changed = 0;
            for (std::size_t i = r.begin; i < r.end; ++i) {
              const int best = NearestCentroid(mm.mean(i), centroids, k, m);
              if (best != labels[i]) {
                labels[i] = best;
                ++changed;
              }
            }
            return changed;
          });
  std::size_t total = 0;
  for (std::size_t c : changed_per_block) total += c;
  return total;
}

/// The direct loop: same seeding, update and empty-cluster reseed order as
/// CkMeans::RunOnMoments, with no bounds. center_distance_evals is
/// sweeps * n * k (sweeps = iterations + 1 on a converged run, iterations at
/// the cap) and bounds_skipped is 0. `params.bound_audit` is ignored.
inline CkMeans::Outcome DirectUkmeans(
    const uncertain::MomentView& mm, int k, uint64_t seed,
    const CkMeans::Params& params = CkMeans::Params(),
    const engine::Engine& eng = engine::Engine::Serial()) {
  const std::size_t n = mm.size();
  const std::size_t m = mm.dims();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  common::Rng rng(seed);

  std::vector<double> centroids =
      CentroidsFromObjects(mm, RandomDistinctObjects(n, k, &rng));

  CkMeans::Outcome out;
  out.labels.assign(n, -1);
  std::vector<double> sums;
  std::vector<std::size_t> counts;

  for (out.iterations = 0; out.iterations < params.max_iters;
       ++out.iterations) {
    // Assignment: argmin_c ED(o, c) = argmin_c ||mu(o) - c||^2 (Eq. 8).
    out.center_distance_evals += static_cast<int64_t>(n) * k;
    if (AssignNearest(eng, mm, centroids, k, out.labels) == 0) {
      out.converged = true;
      break;
    }

    // Update: centroid = average of member expected values (Eq. 7).
    kernels::SumMeansByLabel(eng, mm, out.labels, k, &sums, &counts);
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with a random object's mean.
        const auto mean = mm.mean(rng.Index(n));
        std::copy(mean.begin(), mean.end(),
                  centroids.begin() + static_cast<std::size_t>(c) * m);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t j = 0; j < m; ++j) {
        centroids[static_cast<std::size_t>(c) * m + j] =
            sums[static_cast<std::size_t>(c) * m + j] * inv;
      }
    }
  }

  // Final objective: sum_o [ sigma^2(o) + ||mu(o) - c_l(o)||^2 ].
  out.objective =
      kernels::AssignmentObjective(eng, mm, out.labels, centroids);
  return out;
}

}  // namespace uclust::clustering::oracle

#endif  // UCLUST_TESTS_UKMEANS_ORACLE_H_
