#include "clustering/fdbscan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

#include "clustering/pairwise_store.h"
#include "clustering/pruning.h"
#include "clustering/simd/simd.h"
#include "clustering/spatial_index.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {

namespace {

// Side of ChooseSweep's strided probe grid: 64 x 64 pairs estimate the kept
// fraction to about 0.01 for well under a millisecond.
constexpr std::size_t kProbeGrid = 64;

// Median MinPts-nearest-neighbor distance over (a subsample of) the objects,
// using sqrt of the closed-form expected distance as the proximity proxy.
// Each probe keeps its `rank` smallest squared distances in a bounded
// max-heap. sqrt is monotone and correctly rounded, so ranking squared
// values and taking one sqrt at the end gives the bits of ranking the
// square roots. Heap values are scored as ExpectedSquaredDistance(probe,
// other) is, through the dispatched ed2 entry with the probe first — the
// (sqdist + tv_a) + tv_b fold is not symmetric in its arguments. A
// vectorizable estimate of the same sum, in another order, rejects a pair
// early when it clears the heap's top by SlackedSquaredThreshold's margin:
// that margin is far above the two sums' rounding difference, so the exact
// value would have been rejected too and the heap holds the same values.
// The probes are drawn serially; each probe's scan is independent, so the
// sweep parallelizes over probe blocks without changing the outcome.
double AutoEps(const data::UncertainDataset& data, int min_pts,
               common::Rng* rng, const engine::Engine& eng) {
  const std::size_t n = data.size();
  if (n < 2) return 0.0;  // no neighbor distances to rank
  const std::size_t probe_count = std::min<std::size_t>(n, 256);
  std::vector<std::size_t> probes =
      rng->SampleWithoutReplacement(n, probe_count);
  // The means row-major (ed2's operands) and dimension-major (the estimate
  // pass's), and the total variances, packed once.
  const std::size_t m = data.dims();
  std::vector<double> means(n * m);
  std::vector<double> mean_columns(m * n);
  std::vector<double> total_var(n);
  for (std::size_t i = 0; i < n; ++i) {
    const uncertain::UncertainObject& o = data.object(i);
    for (std::size_t d = 0; d < m; ++d) {
      means[i * m + d] = mean_columns[d * n + i] = o.mean()[d];
    }
    total_var[i] = o.total_variance();
  }
  // Clamp into [1, n - 1] so min_pts = 0 cannot wrap the rank.
  const std::size_t rank = std::min<std::size_t>(
      std::max<std::size_t>(static_cast<std::size_t>(min_pts), 1), n - 1);
  const auto ed2 = simd::Active().ed2;
  std::vector<double> kth2(probe_count, 0.0);
  engine::ParallelFor(eng, probe_count, [&](const engine::BlockedRange& r) {
    std::vector<double> heap(rank);
    std::vector<double> estimate(n);
    for (std::size_t p = r.begin; p < r.end; ++p) {
      const std::size_t i = probes[p];
      const double* mean_i = means.data() + i * m;
      std::copy(total_var.begin(), total_var.end(), estimate.begin());
      for (std::size_t d = 0; d < m; ++d) {
        const double* column = mean_columns.data() + d * n;
        for (std::size_t j = 0; j < n; ++j) {
          const double diff = mean_i[d] - column[j];
          estimate[j] += diff * diff;
        }
      }
      std::size_t size = 0;
      double reject = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || estimate[j] + total_var[i] > reject) continue;
        const double d2 =
            ed2(mean_i, means.data() + j * m, m, total_var[i], total_var[j]);
        if (size < rank) {
          heap[size++] = d2;
          std::push_heap(heap.begin(), heap.begin() + size);
        } else if (d2 < heap[0]) {
          std::pop_heap(heap.begin(), heap.end());
          heap[rank - 1] = d2;
          std::push_heap(heap.begin(), heap.end());
        } else {
          continue;
        }
        if (size == rank) reject = SlackedSquaredThreshold(heap[0]);
      }
      kth2[p] = heap[0];
    }
  });
  std::nth_element(kth2.begin(), kth2.begin() + kth2.size() / 2, kth2.end());
  return std::sqrt(kth2[kth2.size() / 2]);
}

}  // namespace

double Fdbscan::AtLeastProbability(std::span<const double> probs,
                                   int min_pts) {
  assert(min_pts >= 0);
  if (min_pts == 0) return 1.0;
  const int cap = min_pts;  // track counts 0..cap, cap = "min_pts or more"
  std::vector<double> state(static_cast<std::size_t>(cap) + 1, 0.0);
  state[0] = 1.0;
  for (double p : probs) {
    if (p <= 0.0) continue;
    for (int c = cap; c >= 1; --c) {
      const double from_prev = state[c - 1] * p;
      if (c == cap) {
        state[c] += from_prev;
      } else {
        state[c] = state[c] * (1.0 - p) + from_prev;
      }
    }
    state[0] *= (1.0 - p);
  }
  return state[cap];
}

Fdbscan::Sweep Fdbscan::ChooseSweep(const PairwiseBoundIndex& bounds,
                                    double eps) {
  const std::size_t n = bounds.size();
  const std::size_t grid = std::min(n, kProbeGrid);
  std::size_t tested = 0;
  std::size_t kept = 0;
  for (std::size_t a = 0; a < grid; ++a) {
    const std::size_t i = a * n / grid;
    for (std::size_t b = 0; b < grid; ++b) {
      const std::size_t j = b * n / grid;
      if (i == j) continue;
      ++tested;
      if (!bounds.ProvablyBeyond(i, j, eps)) ++kept;
    }
  }
  if (tested == 0) return Sweep::kAllPairs;  // fewer than 2 objects
  return static_cast<double>(kept) <
                 kIndexedMaxKeptFraction * static_cast<double>(tested)
             ? Sweep::kIndexed
             : Sweep::kAllPairs;
}

ClusteringResult Fdbscan::Cluster(const data::UncertainDataset& data,
                                  int /*k*/, uint64_t seed) const {
  return Run(data, seed, std::nullopt);
}

ClusteringResult Fdbscan::Cluster(const data::UncertainDataset& data,
                                  int /*k*/, uint64_t seed,
                                  Sweep sweep) const {
  return Run(data, seed, sweep);
}

ClusteringResult Fdbscan::Run(const data::UncertainDataset& data,
                              uint64_t seed,
                              std::optional<Sweep> forced) const {
  const std::size_t n = data.size();
  common::Rng rng(seed);
  const engine::Engine& eng = engine();

  ClusteringResult result;
  result.k_requested = 0;

  // Offline: sample store (the fuzzy-distance machinery's numeric basis;
  // resident or mapped, per the memory budget).
  common::Stopwatch offline;
  const uncertain::SampleStorePtr samples = io::MakeSampleStoreOrResident(
      data, params_.samples, params_.sample_seed, eng);
  const double offline_ms = offline.ElapsedMs();

  common::Stopwatch online;
  const double eps = params_.eps > 0.0
                         ? params_.eps
                         : AutoEps(data, params_.min_pts, &rng, eng);

  // Pairwise distance probabilities: one candidate-driven upper-triangle
  // sweep through the pairwise store (each kept pair evaluated once, in
  // parallel row blocks, only bounded scratch materialized). Pairs whose
  // regions are provably farther apart than eps are never candidates: every
  // realization pair is then beyond eps, so the distance probability is
  // exactly the 0 the kernel would have produced — labels stay
  // bit-identical, only the evaluation count drops. Row i's candidates are
  // the ascending columns j > i the bound keeps, from one of two sweeps
  // that keep the same set.
  const PairwiseBoundIndex bounds(data.objects());
  const Sweep chosen = forced ? *forced : ChooseSweep(bounds, eps);
  std::vector<std::vector<std::size_t>> cands(n);
  if (chosen == Sweep::kIndexed) {
    // Per row, the spatial index returns exactly the columns whose region
    // boxes lie within the slacked eps^2 threshold — the box bound
    // ProvablyBeyond falls back on, so a pair it would skip is never a
    // candidate and a candidate is never one it skips. Only the bound-test
    // count drops from n*(n-1)/2 to the index query cost.
    const SpatialIndex index(data.objects(), SpatialIndexKind::kRTree);
    const double threshold2 = SlackedSquaredThreshold(eps * eps);
    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      std::vector<std::size_t> hits;
      for (std::size_t i = r.begin; i < r.end; ++i) {
        index.QueryWithin(data.object(i).region(), threshold2, i, &hits);
        // Keep the upper-triangle columns j > i (hits are ascending).
        cands[i].assign(std::upper_bound(hits.begin(), hits.end(), i),
                        hits.end());
      }
    });
    for (const auto& c : cands) {
      result.index_candidates += static_cast<int64_t>(c.size());
    }
    result.pairs_pruned_by_index =
        static_cast<int64_t>(n) * (static_cast<int64_t>(n) - 1) / 2 -
        result.index_candidates;
    result.index_bound_tests = index.bound_tests();
  } else {
    // The flat bound pass: every pair tested, no index built.
    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      std::vector<std::size_t> kept(n);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        cands[i].assign(kept.begin(),
                        kept.begin() + bounds.KeptAbove(i, eps, kept));
      }
    });
  }
  // The sweep keeps each row's positive probabilities, with their columns,
  // compacted without branches into the row's slice of two flat arrays.
  std::vector<std::size_t> row_start(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_start[i + 1] = row_start[i] + cands[i].size();
  }
  std::vector<std::size_t> upper_col(row_start[n]);
  std::vector<double> upper_prob(row_start[n]);
  std::vector<std::size_t> upper_size(n, 0);
  PairwiseStore store(
      eng,
      kernels::PairwiseKernel::DistanceProbability(samples->view(), eps));
  store.VisitUpperTriangleCandidates(
      [&](std::size_t i, std::span<const double> tail) {
        std::size_t* col = upper_col.data() + row_start[i];
        double* prob = upper_prob.data() + row_start[i];
        std::size_t size = 0;
        for (const std::size_t j : cands[i]) {
          col[size] = j;
          prob[size] = tail[j - i - 1];
          size += prob[size] > 0.0;
        }
        upper_size[i] = size;
      },
      [&](std::size_t i) { return std::span<const std::size_t>(cands[i]); });
  store.ReportTo(&result);

  // Symmetric adjacency in CSR form: one pass counts each row's degree, a
  // second places each pair in both rows. Filling by ascending i lists every
  // row's neighbours in ascending column order, the order the core test
  // sums in and the expansion visits in.
  std::vector<std::size_t> adj_start(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    adj_start[i + 1] += upper_size[i];
    for (std::size_t t = row_start[i]; t < row_start[i] + upper_size[i];
         ++t) {
      ++adj_start[upper_col[t] + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) adj_start[i + 1] += adj_start[i];
  std::vector<std::size_t> adj_col(adj_start[n]);
  std::vector<double> adj_prob(adj_start[n]);
  std::vector<std::size_t> fill(adj_start.begin(), adj_start.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = row_start[i]; t < row_start[i] + upper_size[i];
         ++t) {
      const std::size_t j = upper_col[t];
      const double p = upper_prob[t];
      adj_col[fill[i]] = j;
      adj_prob[fill[i]++] = p;
      adj_col[fill[j]] = i;
      adj_prob[fill[j]++] = p;
    }
  }

  // Core-object probabilities via the Poisson-binomial tail, read from each
  // adjacency row in place.
  std::vector<char> core(n, 0);
  engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::span<const double> probs(adj_prob.data() + adj_start[i],
                                          adj_start[i + 1] - adj_start[i]);
      core[i] =
          AtLeastProbability(probs, params_.min_pts) >= params_.core_threshold;
    }
  });

  // Expansion: BFS over reachability edges seeded at unvisited core objects.
  result.labels.assign(n, -1);
  int next_cluster = 0;
  std::queue<std::size_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i] || result.labels[i] >= 0) continue;
    const int cluster = next_cluster++;
    result.labels[i] = cluster;
    frontier.push(i);
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (std::size_t t = adj_start[u]; t < adj_start[u + 1]; ++t) {
        const std::size_t v = adj_col[t];
        if (adj_prob[t] < params_.reach_threshold || result.labels[v] >= 0) {
          continue;
        }
        result.labels[v] = cluster;
        if (core[v]) frontier.push(v);
      }
    }
  }

  // Noise policy: all unreached objects share one extra cluster, keeping the
  // output a partition as the external validity criteria require.
  for (std::size_t i = 0; i < n; ++i) {
    if (result.labels[i] < 0) {
      result.labels[i] = next_cluster;
      ++result.noise_objects;
    }
  }
  result.clusters_found = CountClusters(result.labels);
  result.iterations = 1;
  result.objective = std::numeric_limits<double>::quiet_NaN();
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  return result;
}

}  // namespace uclust::clustering
