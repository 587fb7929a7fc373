#include "clustering/ckmeans.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/init.h"
#include "clustering/kernels.h"
#include "clustering/simd/simd.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"

namespace uclust::clustering {

namespace {

// Relative floating-point safety margin of the bound loosening: upper
// bounds are inflated and lower bounds deflated by this factor at every
// step, so rounding can never turn a bound test into an unsound skip. The
// skip tests are additionally strict (<), which closes the remaining exact-
// tie corner (coincident centroids at distance 0): ties always fall through
// to the full scan, whose comparison order (ascending c, strict <) matches
// the direct sweeps' nearest-centroid scan exactly — that is what makes the
// pruned path bit-identical to them. (Same scheme as the PairwiseBoundIndex
// slack, tighter because the quantities here are single distances, not
// sample sums.)
constexpr double kBoundSlack = 1e-12;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-sweep tallies. changed feeds the convergence test; evals/skipped feed
// the ClusteringResult counters and always sum to n * k per sweep. moved[c]
// is set when cluster c gained or lost a member, so the update re-sums only
// those clusters.
struct SweepCounts {
  std::size_t changed = 0;
  int64_t evals = 0;
  int64_t skipped = 0;
  std::vector<uint8_t> moved;
};

inline std::span<const double> CentroidAt(std::span<const double> centroids,
                                          int c, std::size_t m) {
  return centroids.subspan(static_cast<std::size_t>(c) * m, m);
}

// Full k-center scan in the direct sweeps' exact comparison order
// (ascending c, strict <), additionally tracking the runner-up squared
// distance for the lower bound. reuse_c (-1 = none) short-circuits the one
// distance the bound-tightening step already evaluated — the reused value
// is the same float the scan would recompute, so the decision sequence is
// unchanged.
struct ScanResult {
  int best = 0;
  double best_d2 = kInf;
  double second_d2 = kInf;
};

inline ScanResult ScanCenters(std::span<const double> mean,
                              std::span<const double> center_lanes, int k,
                              std::size_t m, int reuse_c, double reuse_d2) {
  // Dispatched center-lane kernel (clustering/simd/): one vector lane per
  // center over the iteration's center-lane copy, every distance the same
  // bits as simd::SquaredDistance against the row-major centroid.
  ScanResult r;
  simd::NearestTwo(mean.data(), center_lanes.data(), k, m, reuse_c, reuse_d2,
                   &r.best, &r.best_d2, &r.second_d2);
  return r;
}

// Loosens one object's bounds after a centroid update: the upper bound
// absorbs its own center's drift, the lower bound gives up the largest
// drift of any center. Inflation/deflation keeps both sides conservative
// under rounding; the inf lower bounds of k == 1 stay inf. The sweep's
// settle pass and the bound audit both loosen through this one helper.
inline void LoosenBounds(double drift, double max_drift, double* ub,
                         double* lb) {
  *ub = (*ub + drift) * (1.0 + kBoundSlack);
  // lb <- (down <= 0 ? +0.0 : down * (1 - slack)), spelled as a bit mask:
  // compilers turn the plain select into a branch on the data, and that
  // branch mispredicts in the settle pass.
  const double down = *lb - max_drift;
  const uint64_t keep = uint64_t{0} - static_cast<uint64_t>(!(down <= 0.0));
  *lb = std::bit_cast<double>(
      std::bit_cast<uint64_t>(down * (1.0 - kBoundSlack)) & keep);
}

// One unsettled object's assignment decision — a pure function of the
// object's own (label, ub, lb) state and the shared centroids/half_sep
// inputs, so any partition of objects over threads yields the same labels
// and the same counter totals. An unlabeled object (the first sweep)
// full-scans; a labelled one, which Hamerly's test did not settle, gets
// the tightened-upper-bound retest (skip all but the assigned center),
// then the full scan that restores exact bounds. `centroids` (row-major)
// serves the retest's single distance, `center_lanes` (the same centers in
// the center-lane layout) the full scans.
inline void AssignCandidate(std::span<const double> mean,
                            std::span<const double> centroids,
                            std::span<const double> center_lanes, int k,
                            std::size_t m, std::span<const double> half_sep,
                            int* label, double* ub, double* lb,
                            SweepCounts* sc) {
  if (*label >= 0) {
    const double bound = std::max(*lb, half_sep[*label]);
    const double d2a =
        common::SquaredDistance(mean, CentroidAt(centroids, *label, m));
    sc->evals += 1;
    *ub = std::sqrt(d2a) * (1.0 + kBoundSlack);
    if (*ub < bound) {
      sc->skipped += k - 1;
      return;
    }
    const ScanResult r = ScanCenters(mean, center_lanes, k, m, *label, d2a);
    sc->evals += k - 1;
    if (r.best != *label) {
      sc->moved[*label] = 1;
      sc->moved[r.best] = 1;
      *label = r.best;
      ++sc->changed;
    }
    *ub = std::sqrt(r.best_d2) * (1.0 + kBoundSlack);
    *lb = std::sqrt(r.second_d2) * (1.0 - kBoundSlack);
    return;
  }
  const ScanResult r = ScanCenters(mean, center_lanes, k, m, -1, 0.0);
  sc->evals += k;
  *label = r.best;
  sc->moved[r.best] = 1;
  ++sc->changed;
  *ub = std::sqrt(r.best_d2) * (1.0 + kBoundSlack);
  *lb = std::sqrt(r.second_d2) * (1.0 - kBoundSlack);
}

// half_sep[c] = deflated half distance to c's nearest other center — the
// Elkan-style per-center skip radius: an object within half_sep of its
// assigned center cannot be closer to any other. O(k^2); not counted by
// center_distance_evals (it is center-to-center, not object-to-center).
void HalfSeparations(std::span<const double> centroids, int k, std::size_t m,
                     std::vector<double>* half_sep) {
  std::vector<double> min_d2(static_cast<std::size_t>(k), kInf);
  for (int c = 0; c < k; ++c) {
    for (int c2 = c + 1; c2 < k; ++c2) {
      const double d2 = common::SquaredDistance(CentroidAt(centroids, c, m),
                                                CentroidAt(centroids, c2, m));
      if (d2 < min_d2[c]) min_d2[c] = d2;
      if (d2 < min_d2[c2]) min_d2[c2] = d2;
    }
  }
  half_sep->resize(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    (*half_sep)[c] = 0.5 * std::sqrt(min_d2[c]) * (1.0 - kBoundSlack);
  }
}

// Per-center drifts ||c_new - c_old|| of one update and their maximum:
// what LoosenBounds needs for every object before the next sweep.
struct Drifts {
  std::vector<double> per_center;
  double max = 0.0;
};

void CenterDrifts(std::span<const double> old_centroids,
                  std::span<const double> centroids, int k, std::size_t m,
                  Drifts* d) {
  d->per_center.resize(static_cast<std::size_t>(k));
  d->max = 0.0;
  for (int c = 0; c < k; ++c) {
    d->per_center[c] = std::sqrt(common::SquaredDistance(
        CentroidAt(old_centroids, c, m), CentroidAt(centroids, c, m)));
    d->max = std::max(d->max, d->per_center[c]);
  }
}

// Objects per settle chunk: the settle pass's candidate offsets live on the
// stack, and the chunk's labels and bounds stay in L1 for the second pass.
constexpr std::size_t kSettleChunk = 256;

// Settle pass over one chunk of `len` labelled objects (the pointers start
// at its first object): loosens every object's bounds with the update's
// drifts, applies Hamerly's test ub < max(lb, half_sep[label]) and writes
// the offsets it does not settle to `cand`, in object order. Whether a
// bound holds is data-dependent and mispredicts, so the offset is always
// written and the count advances by the test's negation, with no branch.
// Returns the number of candidates.
inline std::size_t SettleChunk(std::size_t len, const int* labels,
                               double* ub, double* lb, const Drifts& drifts,
                               const double* half_sep, uint32_t* cand) {
  const double* drift = drifts.per_center.data();
  const double max_drift = drifts.max;
  std::size_t count = 0;
  for (std::size_t t = 0; t < len; ++t) {
    const int label = labels[t];
    double upper = ub[t], lower = lb[t];
    LoosenBounds(drift[label], max_drift, &upper, &lower);
    ub[t] = upper;
    lb[t] = lower;
    cand[count] = static_cast<uint32_t>(t);
    count += !(upper < std::max(lower, half_sep[label]));
  }
  return count;
}

// Assignment sweep over every object of `view`. Each block walks its
// objects in chunks of two passes: SettleChunk (skipped on the first
// sweep, which has no labels or drifts, so every object is a candidate),
// then AssignCandidate on the candidates, in object order. Label/bound
// writes are per-object disjoint and the shared inputs are read-only, so
// the blocked parallel pass is race-free, and per-object decisions are
// pure, so neither the thread partition nor the view's backend affects the
// produced labels.
SweepCounts AssignSweep(const engine::Engine& eng,
                        const uncertain::MomentView& view,
                        std::span<const double> centroids,
                        std::span<const double> center_lanes, int k,
                        std::span<const double> half_sep,
                        const Drifts* drifts, std::span<int> labels,
                        std::span<double> ub, std::span<double> lb) {
  const std::size_t m = view.dims();
  const std::vector<SweepCounts> per_block = engine::MapBlocks<SweepCounts>(
      eng, view.size(), [&](const engine::BlockedRange& r) {
        SweepCounts sc;
        sc.moved.assign(static_cast<std::size_t>(k), 0);
        std::array<uint32_t, kSettleChunk> cand{};
        for (std::size_t begin = r.begin; begin < r.end;
             begin += kSettleChunk) {
          const std::size_t len = std::min(kSettleChunk, r.end - begin);
          std::size_t count = 0;
          if (drifts == nullptr) {
            for (std::size_t t = 0; t < len; ++t) {
              cand[t] = static_cast<uint32_t>(t);
            }
            count = len;
          } else {
            count = SettleChunk(len, labels.data() + begin, ub.data() + begin,
                                lb.data() + begin, *drifts, half_sep.data(),
                                cand.data());
            sc.skipped += static_cast<int64_t>(len - count) * k;
          }
          for (std::size_t c = 0; c < count; ++c) {
            const std::size_t i = begin + cand[c];
            AssignCandidate(view.mean(i), centroids, center_lanes, k, m,
                            half_sep, &labels[i], &ub[i], &lb[i], &sc);
          }
        }
        return sc;
      });
  SweepCounts total;
  total.moved.assign(static_cast<std::size_t>(k), 0);
  for (const SweepCounts& sc : per_block) {
    total.changed += sc.changed;
    total.evals += sc.evals;
    total.skipped += sc.skipped;
    for (int c = 0; c < k; ++c) total.moved[c] |= sc.moved[c];
  }
  return total;
}

ClusteringResult ToResult(CkMeans::Outcome outcome, int k) {
  ClusteringResult result;
  result.labels = std::move(outcome.labels);
  result.k_requested = k;
  result.clusters_found = CountClusters(result.labels);
  result.iterations = outcome.iterations;
  result.objective = outcome.objective;
  result.center_distance_evals = outcome.center_distance_evals;
  result.bounds_skipped = outcome.bounds_skipped;
  return result;
}

}  // namespace

// The one Lloyd loop. `view` needs only mean() and total_variance(): the
// caller's moments, resident or mapped.
// Every read goes through the view, and the sums and objective through the
// shared blocked kernels, so the result does not depend on what backs it.
CkMeans::Outcome CkMeans::RunOnMoments(const uncertain::MomentView& view,
                                       int k, uint64_t seed,
                                       const Params& params,
                                       const engine::Engine& eng) {
  const std::size_t n = view.size();
  const std::size_t m = view.dims();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));

  // Seeding consumes the rng exactly like the direct path.
  common::Rng rng(seed);
  std::vector<double> centroids =
      CentroidsFromObjects(view, RandomDistinctObjects(n, k, &rng));

  Outcome out;
  out.labels.assign(n, -1);
  std::vector<double> ub(n, 0.0), lb(n, 0.0), half_sep, old_centroids;
  // The sweep's copy of the centers in the center-lane layout, rebuilt
  // after every update; the row-major centroids stay canonical for the
  // sums, drift, half separations, retest and objective.
  std::vector<double> center_lanes;
  std::vector<double> sums(static_cast<std::size_t>(k) * m, 0.0);
  std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
  std::vector<uint8_t> resum(static_cast<std::size_t>(k));
  Drifts drifts;

  for (out.iterations = 0; out.iterations < params.max_iters;
       ++out.iterations) {
    // The first sweep has no labels to defend, so it always full-scans;
    // half separations only matter from the second sweep on.
    if (out.iterations > 0) HalfSeparations(centroids, k, m, &half_sep);
    simd::ToCenterLanes(centroids.data(), k, m, &center_lanes);
    const SweepCounts sc =
        AssignSweep(eng, view, centroids, center_lanes, k, half_sep,
                    out.iterations > 0 ? &drifts : nullptr, out.labels, ub,
                    lb);
    out.center_distance_evals += sc.evals;
    out.bounds_skipped += sc.skipped;
    if (sc.changed == 0) {
      out.converged = true;
      break;
    }

    // Update: centroid = average of member expected values (Eq. 7), with
    // the direct path's empty-cluster reseed in the same rng order. A
    // cluster that neither gained nor lost a member keeps the sums row and
    // count the full re-sum would give it again: the same members, summed
    // in the same blocks and order. So only the clusters the sweep moved
    // and the empty ones are re-summed (counts start at 0, so the first
    // update re-sums all); every centroid is then rebuilt from its row as
    // before, and an untouched one comes out with the same bits and drift 0.
    for (int c = 0; c < k; ++c) {
      resum[c] = sc.moved[c] != 0 || counts[c] == 0;
    }
    kernels::SumMeansByLabel(eng, view, out.labels, k, resum, &sums, &counts);
    old_centroids = centroids;
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        const auto mean = view.mean(rng.Index(n));
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
    // The next sweep loosens the bounds with these drifts as it reads
    // them; the audit sees copies loosened the same way.
    CenterDrifts(old_centroids, centroids, k, m, &drifts);
    if (params.bound_audit) {
      std::vector<double> upper = ub, lower = lb;
      for (std::size_t i = 0; i < n; ++i) {
        LoosenBounds(drifts.per_center[out.labels[i]], drifts.max, &upper[i],
                     &lower[i]);
      }
      params.bound_audit(out.iterations, centroids, out.labels, upper, lower);
    }
  }

  out.objective = kernels::AssignmentObjective(eng, view, out.labels,
                                               centroids);
  return out;
}

ClusteringResult CkMeans::RunOnline(const uncertain::MomentView& mm, int k,
                                    uint64_t seed) const {
  return ToResult(RunOnMoments(mm, k, seed, params_, engine()), k);
}

common::Result<ClusteringResult> CkMeans::ClusterFile(
    const std::string& path, int k, uint64_t seed, const Params& params,
    const engine::Engine& eng, const std::string& moments_path) {
  common::Stopwatch offline;
  auto store = OpenMomentStore(path, k, eng, moments_path);
  UCLUST_RETURN_NOT_OK(store.status());
  CkMeans ckmeans(params);
  ckmeans.set_engine(eng);
  return ckmeans.ClusterMoments(store.ValueOrDie()->view(), k, seed, offline);
}

}  // namespace uclust::clustering
