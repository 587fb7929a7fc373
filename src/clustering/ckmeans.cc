#include "clustering/ckmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/kernels.h"
#include "clustering/simd/simd.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"
#include "io/ingest.h"

namespace uclust::clustering {

namespace {

// Relative floating-point safety margin of the bound maintenance: upper
// bounds are inflated and lower bounds deflated by this factor at every
// step, so rounding can never turn a bound test into an unsound skip. The
// skip tests are additionally strict (<), which closes the remaining exact-
// tie corner (coincident centroids at distance 0): ties always fall through
// to the full scan, whose comparison order matches kernels::NearestCentroid
// exactly — that is what makes the pruned path bit-identical to the direct
// sweeps. (Same scheme as the PairwiseBoundIndex slack, tighter because the
// quantities here are single distances, not sample sums.)
constexpr double kBoundSlack = 1e-12;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-sweep tallies. changed feeds the convergence test; evals/skipped feed
// the ClusteringResult counters and always sum to n * k per sweep.
struct SweepCounts {
  std::size_t changed = 0;
  int64_t evals = 0;
  int64_t skipped = 0;
};

inline std::span<const double> CentroidAt(std::span<const double> centroids,
                                          int c, std::size_t m) {
  return centroids.subspan(static_cast<std::size_t>(c) * m, m);
}

// Full k-center scan in kernels::NearestCentroid's exact comparison order
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
                              std::span<const double> centroids, int k,
                              std::size_t m, int reuse_c, double reuse_d2) {
  // Dispatched reduced-moment sweep kernel (clustering/simd/): same
  // ascending-c strict-< decision sequence and runner-up tracking this
  // function implemented inline before, now vectorized per distance.
  ScanResult r;
  simd::NearestTwo(mean.data(), centroids.data(), k, m, reuse_c, reuse_d2,
                   &r.best, &r.best_d2, &r.second_d2);
  return r;
}

// One object's assignment decision — a pure function of the object's own
// (label, ub, lb) state and the shared centroids/half_sep inputs, so any
// partition of objects over threads yields the same labels and the same
// counter totals. An unlabeled object (the first sweep) full-scans;
// otherwise Hamerly's test first (skip the whole scan), then the
// tightened-upper-bound retest (skip all but the assigned center), then
// the full scan that restores exact bounds.
inline void AssignOne(std::span<const double> mean,
                      std::span<const double> centroids, int k, std::size_t m,
                      std::span<const double> half_sep, int* label,
                      double* ub, double* lb, SweepCounts* sc) {
  if (*label >= 0) {
    const double bound = std::max(*lb, half_sep[*label]);
    if (*ub < bound) {
      sc->skipped += k;
      return;
    }
    const double d2a =
        common::SquaredDistance(mean, CentroidAt(centroids, *label, m));
    sc->evals += 1;
    *ub = std::sqrt(d2a) * (1.0 + kBoundSlack);
    if (*ub < bound) {
      sc->skipped += k - 1;
      return;
    }
    const ScanResult r = ScanCenters(mean, centroids, k, m, *label, d2a);
    sc->evals += k - 1;
    if (r.best != *label) {
      *label = r.best;
      ++sc->changed;
    }
    *ub = std::sqrt(r.best_d2) * (1.0 + kBoundSlack);
    *lb = std::sqrt(r.second_d2) * (1.0 - kBoundSlack);
    return;
  }
  const ScanResult r = ScanCenters(mean, centroids, k, m, -1, 0.0);
  sc->evals += k;
  *label = r.best;
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

// Loosens every object's bounds after a centroid update: the upper bound
// absorbs its own center's drift, the lower bound gives up the largest
// drift of any center. Inflation/deflation keeps both sides conservative
// under rounding; the inf lower bounds of k == 1 stay inf.
void MaintainBounds(const engine::Engine& eng, std::size_t m, int k,
                    std::span<const double> old_centroids,
                    std::span<const double> centroids,
                    std::span<const int> labels, std::span<double> ub,
                    std::span<double> lb) {
  std::vector<double> drift(static_cast<std::size_t>(k));
  double max_drift = 0.0;
  for (int c = 0; c < k; ++c) {
    drift[c] = std::sqrt(common::SquaredDistance(
        CentroidAt(old_centroids, c, m), CentroidAt(centroids, c, m)));
    max_drift = std::max(max_drift, drift[c]);
  }
  engine::ParallelFor(eng, labels.size(), [&](const engine::BlockedRange& r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      ub[i] = (ub[i] + drift[labels[i]]) * (1.0 + kBoundSlack);
      const double down = lb[i] - max_drift;
      lb[i] = down <= 0.0 ? 0.0 : down * (1.0 - kBoundSlack);
    }
  });
}

// Assignment sweep over `view`, whose row i is object base + i (the whole
// dataset in memory, or one streamed batch with absolute label/bound
// indices). Label/bound writes are per-object disjoint and the shared inputs
// are read-only, so the blocked parallel pass is race-free, and per-object
// decisions are pure, so neither the mini-batch size nor the thread
// partition affects the produced labels.
SweepCounts AssignSweep(const engine::Engine& eng,
                        const uncertain::MomentView& view, std::size_t base,
                        std::span<const double> centroids, int k,
                        std::span<const double> half_sep,
                        std::span<int> labels, std::span<double> ub,
                        std::span<double> lb) {
  const std::size_t m = view.dims();
  const std::vector<SweepCounts> per_block = engine::MapBlocks<SweepCounts>(
      eng, view.size(), [&](const engine::BlockedRange& r) {
        SweepCounts sc;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const std::size_t g = base + i;
          AssignOne(view.mean(i), centroids, k, m, half_sep, &labels[g],
                    &ub[g], &lb[g], &sc);
        }
        return sc;
      });
  SweepCounts total;
  for (const SweepCounts& sc : per_block) {
    total.changed += sc.changed;
    total.evals += sc.evals;
    total.skipped += sc.skipped;
  }
  return total;
}

// ---- epoch-streaming support (ClusterFile's mini-batch driver) ----------

// Streaming replication of kernels::SumMeansByLabel's partial structure:
// fold points are the engine block grid over ABSOLUTE object indices, never
// the mini-batch cuts. A grid block wholly inside the batch gets its partial
// computed in parallel; the fragments at the batch edges continue (or open)
// the sequential carry partial, which accumulates rows in index order across
// batch boundaries. Completed blocks fold into the totals in ascending
// order — the exact left-to-right fold of the in-memory kernel, so the
// final sums are bit-identical for ANY mini-batch size and thread count.
struct GridSumAccumulator {
  std::vector<double> sums;            // k * m running totals
  std::vector<std::size_t> counts;     // k running totals
  std::vector<double> carry_sums;      // open partial of the current block
  std::vector<std::size_t> carry_counts;
  bool carry_open = false;
};

void AccumulateSumsBatch(const engine::Engine& eng,
                         const uncertain::MomentView& view, std::size_t base,
                         std::size_t n_total, std::span<const int> labels,
                         int k, GridSumAccumulator* acc) {
  const std::size_t rows = view.size();
  const std::size_t m = view.dims();
  const std::size_t km = static_cast<std::size_t>(k) * m;
  const std::size_t block = eng.block_size();
  const std::size_t end = base + rows;
  struct Partial {
    std::vector<double> sums;
    std::vector<std::size_t> counts;
  };
  const std::size_t first_full = (base + block - 1) / block;
  const std::size_t full_bound = end / block;  // exclusive
  std::vector<Partial> partials;
  auto add_row = [&](std::size_t i, std::vector<double>* sums,
                     std::vector<std::size_t>* counts) {
    const auto mean = view.mean(i - base);
    double* dst =
        sums->data() + static_cast<std::size_t>(labels[i]) * m;
    simd::VectorAdd(dst, mean.data(), m);
    ++(*counts)[labels[i]];
  };
  if (full_bound > first_full) {
    partials.resize(full_bound - first_full);
    engine::ParallelFor(eng, partials.size(),
                        [&](const engine::BlockedRange& r) {
      for (std::size_t t = r.begin; t < r.end; ++t) {
        Partial& p = partials[t];
        p.sums.assign(km, 0.0);
        p.counts.assign(static_cast<std::size_t>(k), 0);
        const std::size_t lo = (first_full + t) * block;
        for (std::size_t i = lo; i < lo + block; ++i) {
          add_row(i, &p.sums, &p.counts);
        }
      }
    });
  }
  auto fold = [&](const std::vector<double>& sums,
                  const std::vector<std::size_t>& counts) {
    for (std::size_t j = 0; j < km; ++j) acc->sums[j] += sums[j];
    for (int c = 0; c < k; ++c) acc->counts[c] += counts[c];
  };
  std::size_t pos = base;
  while (pos < end) {
    const std::size_t g = pos / block;
    const std::size_t block_end = (g + 1) * block;
    const std::size_t seg_end = std::min(end, block_end);
    if (pos == g * block && g >= first_full && g < full_bound) {
      // A whole grid block: its parallel partial folds directly. The carry
      // cannot be open here — an open carry means pos is mid-block.
      fold(partials[g - first_full].sums, partials[g - first_full].counts);
    } else {
      if (!acc->carry_open) {
        acc->carry_sums.assign(km, 0.0);
        acc->carry_counts.assign(static_cast<std::size_t>(k), 0);
        acc->carry_open = true;
      }
      for (std::size_t i = pos; i < seg_end; ++i) {
        add_row(i, &acc->carry_sums, &acc->carry_counts);
      }
      if (seg_end == block_end || seg_end == n_total) {
        fold(acc->carry_sums, acc->carry_counts);
        acc->carry_open = false;
      }
    }
    pos = seg_end;
  }
}

// Same grid-aligned carry scheme for the final objective: per-block double
// partials folded in ascending block order, replicating the in-memory
// kernels::AssignmentObjective reduction bit for bit.
struct GridObjAccumulator {
  double total = 0.0;
  double carry = 0.0;
  bool carry_open = false;
};

void AccumulateObjectiveBatch(const engine::Engine& eng,
                              const uncertain::MomentView& view,
                              std::size_t base, std::size_t n_total,
                              std::span<const int> labels,
                              std::span<const double> centroids,
                              GridObjAccumulator* acc) {
  const std::size_t rows = view.size();
  const std::size_t m = view.dims();
  const std::size_t block = eng.block_size();
  const std::size_t end = base + rows;
  const std::size_t first_full = (base + block - 1) / block;
  const std::size_t full_bound = end / block;
  auto row_term = [&](std::size_t i) {
    const std::size_t c = static_cast<std::size_t>(labels[i]);
    return view.total_variance(i - base) +
           common::SquaredDistance(view.mean(i - base),
                                   centroids.subspan(c * m, m));
  };
  std::vector<double> partials;
  if (full_bound > first_full) {
    partials.assign(full_bound - first_full, 0.0);
    engine::ParallelFor(eng, partials.size(),
                        [&](const engine::BlockedRange& r) {
      for (std::size_t t = r.begin; t < r.end; ++t) {
        double p = 0.0;
        const std::size_t lo = (first_full + t) * block;
        for (std::size_t i = lo; i < lo + block; ++i) p += row_term(i);
        partials[t] = p;
      }
    });
  }
  std::size_t pos = base;
  while (pos < end) {
    const std::size_t g = pos / block;
    const std::size_t block_end = (g + 1) * block;
    const std::size_t seg_end = std::min(end, block_end);
    if (pos == g * block && g >= first_full && g < full_bound) {
      acc->total += partials[g - first_full];
    } else {
      if (!acc->carry_open) {
        acc->carry = 0.0;
        acc->carry_open = true;
      }
      for (std::size_t i = pos; i < seg_end; ++i) acc->carry += row_term(i);
      if (seg_end == block_end || seg_end == n_total) {
        acc->total += acc->carry;
        acc->carry_open = false;
      }
    }
    pos = seg_end;
  }
}

}  // namespace

ReducedMoments CkmeansReduce(const engine::Engine& eng,
                             const uncertain::MomentView& mm) {
  ReducedMoments r;
  r.n = mm.size();
  r.m = mm.dims();
  r.means.resize(r.n * r.m);
  r.constants.resize(r.n);
  engine::ParallelFor(eng, r.n, [&](const engine::BlockedRange& range) {
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const auto mean = mm.mean(i);
      std::copy(mean.begin(), mean.end(), r.means.begin() + i * r.m);
      r.constants[i] = mm.total_variance(i);
    }
  });
  return r;
}

namespace {

// The Lloyd loop on a reduced representation (RunOnMoments after its
// reduction pass; ClusterFile after its streamed one).
CkMeans::Outcome RunReduced(const ReducedMoments& red, int k, uint64_t seed,
                            const CkMeans::Params& params,
                            const engine::Engine& eng) {
  const std::size_t n = red.n;
  const std::size_t m = red.m;
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  const uncertain::MomentView view = red.view();

  // Seeding consumes the rng exactly like the direct path; k-means++ runs
  // its D^2 rounds over the flat copied means.
  common::Rng rng(seed);
  const std::vector<std::size_t> picks =
      params.init == InitStrategy::kPlusPlus
          ? PlusPlusObjects(std::span<const double>(red.means), n, m, k, &rng)
          : RandomDistinctObjects(n, k, &rng);
  std::vector<double> centroids = CentroidsFromObjects(view, picks);

  CkMeans::Outcome out;
  out.labels.assign(n, -1);
  std::vector<double> ub(n, 0.0), lb(n, 0.0), half_sep, old_centroids;
  std::vector<double> sums;
  std::vector<std::size_t> counts;

  for (out.iterations = 0; out.iterations < params.max_iters;
       ++out.iterations) {
    // The first sweep has no labels to defend, so it always full-scans;
    // half separations only matter from the second sweep on.
    if (out.iterations > 0) HalfSeparations(centroids, k, m, &half_sep);
    const SweepCounts sc = AssignSweep(eng, view, 0, centroids, k, half_sep,
                                       out.labels, ub, lb);
    out.center_distance_evals += sc.evals;
    out.bounds_skipped += sc.skipped;
    if (sc.changed == 0) break;

    // Update: centroid = average of member expected values (Eq. 7), with
    // the direct path's empty-cluster reseed in the same rng order.
    kernels::SumMeansByLabel(eng, view, out.labels, k, &sums, &counts);
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
    MaintainBounds(eng, m, k, old_centroids, centroids, out.labels, ub, lb);
    if (params.bound_audit) {
      params.bound_audit(out.iterations, centroids, out.labels, ub, lb);
    }
  }

  out.objective = kernels::AssignmentObjective(eng, view, out.labels,
                                               centroids);
  return out;
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

CkMeans::Outcome CkMeans::RunOnMoments(const uncertain::MomentView& mm,
                                       int k, uint64_t seed,
                                       const Params& params,
                                       const engine::Engine& eng) {
  return RunReduced(CkmeansReduce(eng, mm), k, seed, params, eng);
}

ClusteringResult CkMeans::Cluster(const data::UncertainDataset& data, int k,
                                  uint64_t seed) const {
  common::Stopwatch offline;
  const uncertain::MomentView mm = data.moments().view();
  const double offline_ms = offline.ElapsedMs();

  common::Stopwatch online;
  ClusteringResult result =
      ToResult(RunOnMoments(mm, k, seed, params_, engine()), k);
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  return result;
}

common::Result<ClusteringResult> CkMeans::ClusterFile(
    const std::string& path, int k, uint64_t seed, const Params& params,
    const engine::Engine& eng) {
  common::Stopwatch offline;
  io::MomentBatchStream stream;
  UCLUST_RETURN_NOT_OK(stream.Open(path));
  const std::size_t n = stream.size();
  const std::size_t m = stream.dims();
  if (k < 1 || n < static_cast<std::size_t>(k)) {
    return common::Status::InvalidArgument(
        path + ": need 1 <= k <= n, got k=" + std::to_string(k) + ", n=" +
        std::to_string(n));
  }
  const std::size_t default_batch = io::kDefaultIngestBatch;

  // Auto mode: the reduced representation is only (m + 1) doubles per
  // object — when that fits the budget, one streaming pass materializes it
  // and the in-memory loop takes over. Forcing a mini-batch size (or a
  // budget too small for even the reduction) selects the epoch-streaming
  // driver below.
  const std::size_t budget = eng.memory_budget_bytes();
  const std::size_t reduced_bytes = (m + 1) * n * sizeof(double);
  if (params.minibatch_size == 0 && (budget == 0 || reduced_bytes <= budget)) {
    ReducedMoments red;
    red.n = n;
    red.m = m;
    red.means.resize(n * m);
    red.constants.resize(n);
    for (;;) {
      auto got = stream.NextBatch(default_batch);
      UCLUST_RETURN_NOT_OK(got.status());
      const std::size_t rows = got.ValueOrDie();
      if (rows == 0) break;
      const uncertain::MomentView view = stream.batch_view();
      const std::size_t base = stream.base_index();
      engine::ParallelFor(eng, rows, [&](const engine::BlockedRange& r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const auto mean = view.mean(i);
          std::copy(mean.begin(), mean.end(),
                    red.means.begin() + (base + i) * m);
          red.constants[base + i] = view.total_variance(i);
        }
      });
    }
    const double offline_ms = offline.ElapsedMs();
    common::Stopwatch online;
    ClusteringResult result =
        ToResult(RunReduced(red, k, seed, params, eng), k);
    result.online_ms = online.ElapsedMs();
    result.offline_ms = offline_ms;
    return result;
  }

  // Epoch streaming: labels and bounds stay resident (O(n) small scalars);
  // the moments are re-streamed once per iteration in mini-batches, plus
  // one seeding pass up front and one objective pass at the end.
  if (params.init == InitStrategy::kPlusPlus) {
    return common::Status::InvalidArgument(
        "CK-means epoch streaming supports random (Forgy) seeding only; "
        "k-means++ needs the resident reduced representation");
  }
  const std::size_t batch =
      params.minibatch_size > 0 ? params.minibatch_size : default_batch;

  common::Rng rng(seed);
  const std::vector<std::size_t> picks = RandomDistinctObjects(n, k, &rng);
  // Gather the picked objects' means in one ordered pass; pick order (not
  // file order) decides the centroid slots, like CentroidsFromObjects.
  std::vector<double> centroids(static_cast<std::size_t>(k) * m);
  {
    std::vector<std::pair<std::size_t, int>> wanted;
    wanted.reserve(picks.size());
    for (int c = 0; c < k; ++c) wanted.emplace_back(picks[c], c);
    std::sort(wanted.begin(), wanted.end());
    std::size_t next = 0;
    while (next < wanted.size()) {
      auto got = stream.NextBatch(batch);
      UCLUST_RETURN_NOT_OK(got.status());
      const std::size_t rows = got.ValueOrDie();
      if (rows == 0) break;
      const uncertain::MomentView view = stream.batch_view();
      const std::size_t base = stream.base_index();
      while (next < wanted.size() && wanted[next].first < base + rows) {
        const auto mean = view.mean(wanted[next].first - base);
        std::copy(mean.begin(), mean.end(),
                  centroids.begin() +
                      static_cast<std::size_t>(wanted[next].second) * m);
        ++next;
      }
    }
    if (next != wanted.size()) {
      return common::Status::Internal(path + ": seeding pass ended early");
    }
  }
  const double offline_ms = offline.ElapsedMs();

  common::Stopwatch online;
  const std::size_t km = static_cast<std::size_t>(k) * m;
  std::vector<int> labels(n, -1);
  std::vector<double> ub(n, 0.0), lb(n, 0.0), half_sep, old_centroids,
      reseed_mean(m);
  ClusteringResult result;
  GridSumAccumulator acc;
  for (result.iterations = 0; result.iterations < params.max_iters;
       ++result.iterations) {
    if (result.iterations > 0) HalfSeparations(centroids, k, m, &half_sep);
    UCLUST_RETURN_NOT_OK(stream.Rewind());
    SweepCounts sweep;
    acc.sums.assign(km, 0.0);
    acc.counts.assign(static_cast<std::size_t>(k), 0);
    acc.carry_open = false;
    for (;;) {
      auto got = stream.NextBatch(batch);
      UCLUST_RETURN_NOT_OK(got.status());
      const std::size_t rows = got.ValueOrDie();
      if (rows == 0) break;
      const uncertain::MomentView view = stream.batch_view();
      const std::size_t base = stream.base_index();
      // Assign the batch first, then fold it into the per-label sums: the
      // assignment only reads this iteration's fixed centroids, so the
      // interleaving produces the same labels and sums as the in-memory
      // two-full-pass schedule.
      const SweepCounts sc = AssignSweep(eng, view, base, centroids, k,
                                         half_sep, labels, ub, lb);
      sweep.changed += sc.changed;
      sweep.evals += sc.evals;
      sweep.skipped += sc.skipped;
      AccumulateSumsBatch(eng, view, base, n, labels, k, &acc);
    }
    result.center_distance_evals += sweep.evals;
    result.bounds_skipped += sweep.skipped;
    if (sweep.changed == 0) break;

    old_centroids = centroids;
    for (int c = 0; c < k; ++c) {
      if (acc.counts[c] == 0) {
        // Empty-cluster reseed: same rng order as the in-memory loop; the
        // mean comes from a targeted forward scan (rare, O(n) worst case).
        UCLUST_RETURN_NOT_OK(stream.ReadMeanAt(rng.Index(n), reseed_mean));
        std::copy(reseed_mean.begin(), reseed_mean.end(),
                  centroids.begin() + static_cast<std::size_t>(c) * m);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(acc.counts[c]);
      for (std::size_t j = 0; j < m; ++j) {
        centroids[static_cast<std::size_t>(c) * m + j] =
            acc.sums[static_cast<std::size_t>(c) * m + j] * inv;
      }
    }
    MaintainBounds(eng, m, k, old_centroids, centroids, labels, ub, lb);
    if (params.bound_audit) {
      params.bound_audit(result.iterations, centroids, labels, ub, lb);
    }
  }

  // Final objective pass, grid-aligned like the sums.
  UCLUST_RETURN_NOT_OK(stream.Rewind());
  GridObjAccumulator obj;
  for (;;) {
    auto got = stream.NextBatch(batch);
    UCLUST_RETURN_NOT_OK(got.status());
    const std::size_t rows = got.ValueOrDie();
    if (rows == 0) break;
    AccumulateObjectiveBatch(eng, stream.batch_view(), stream.base_index(),
                             n, labels, centroids, &obj);
  }
  result.objective = obj.total;
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  result.labels = std::move(labels);
  result.k_requested = k;
  result.clusters_found = CountClusters(result.labels);
  return result;
}

}  // namespace uclust::clustering
