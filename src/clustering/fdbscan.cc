#include "clustering/fdbscan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

#include "clustering/pairwise_store.h"
#include "clustering/pruning.h"
#include "clustering/spatial_index.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"
#include "uncertain/expected_distance.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {

namespace {

// Side of ChooseSweep's strided probe grid: 64 x 64 pairs estimate the kept
// fraction to about 0.01 for well under a millisecond.
constexpr std::size_t kProbeGrid = 64;

// Median MinPts-nearest-neighbor distance over (a subsample of) the objects,
// using sqrt of the closed-form expected distance as the proximity proxy.
// The probes are drawn serially; each probe's scan is independent, so the
// sweep parallelizes over probe blocks without changing the outcome.
double AutoEps(const data::UncertainDataset& data, int min_pts,
               common::Rng* rng, const engine::Engine& eng) {
  const std::size_t n = data.size();
  if (n < 2) return 0.0;  // no neighbor distances to rank
  const std::size_t probe_count = std::min<std::size_t>(n, 256);
  std::vector<std::size_t> probes =
      rng->SampleWithoutReplacement(n, probe_count);
  std::vector<double> kth(probe_count, 0.0);
  engine::ParallelFor(eng, probe_count, [&](const engine::BlockedRange& r) {
    std::vector<double> dists;
    dists.reserve(n - 1);
    for (std::size_t p = r.begin; p < r.end; ++p) {
      const std::size_t i = probes[p];
      dists.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        dists.push_back(std::sqrt(uncertain::ExpectedSquaredDistance(
            data.object(i), data.object(j))));
      }
      // Clamp into [1, |dists|] so min_pts = 0 cannot wrap the rank.
      const std::size_t rank = std::min<std::size_t>(
          std::max<std::size_t>(static_cast<std::size_t>(min_pts), 1),
          dists.size());
      std::nth_element(dists.begin(), dists.begin() + (rank - 1),
                       dists.end());
      kth[p] = dists[rank - 1];
    }
  });
  std::nth_element(kth.begin(), kth.begin() + kth.size() / 2, kth.end());
  return kth[kth.size() / 2];
}

}  // namespace

double Fdbscan::AtLeastProbability(const std::vector<double>& probs,
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

  // Pairwise distance probabilities: one streaming upper-triangle sweep
  // through the pairwise store (each pair evaluated once, in parallel row
  // blocks, only bounded scratch materialized), then mirrored serially into
  // the sparse adjacency. Pairs whose regions are provably farther apart
  // than eps are skipped before any kernel evaluation: every realization
  // pair is then beyond eps, so the distance probability is exactly the 0
  // the kernel would have produced — labels stay bit-identical, only the
  // evaluation count drops.
  PairwiseStore store(
      eng,
      kernels::PairwiseKernel::DistanceProbability(samples->view(), eps));
  std::vector<std::vector<std::pair<std::size_t, double>>> upper(n);
  const auto sweep = [&](std::size_t i, std::span<const double> tail) {
    for (std::size_t t = 0; t < tail.size(); ++t) {
      if (tail[t] > 0.0) upper[i].emplace_back(i + 1 + t, tail[t]);
    }
  };
  const PairwiseBoundIndex bounds(data.objects());
  const Sweep chosen = forced ? *forced : ChooseSweep(bounds, eps);
  if (chosen == Sweep::kIndexed) {
    // Candidate-driven sweep: per row, the spatial index returns exactly the
    // columns whose region boxes lie within the slacked eps^2 threshold —
    // the box bound ProvablyBeyond falls back on, so a pair it would skip is
    // never a candidate and a candidate is never one it skips. The evaluated
    // set — and with it every value, label, and the pair_evaluations /
    // pairs_pruned counters — is the all-pairs sweep's; only the bound-test
    // count drops from n*(n-1)/2 to the index query cost.
    const SpatialIndex index(data.objects(), SpatialIndexKind::kRTree);
    const double threshold2 = SlackedSquaredThreshold(eps * eps);
    std::vector<std::vector<std::size_t>> cands(n);
    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      std::vector<std::size_t> hits;
      for (std::size_t i = r.begin; i < r.end; ++i) {
        index.QueryWithin(data.object(i).region(), threshold2, i, &hits);
        // Keep the upper-triangle columns j > i (hits are ascending).
        cands[i].assign(std::upper_bound(hits.begin(), hits.end(), i),
                        hits.end());
      }
    });
    store.VisitUpperTriangleCandidates(sweep, [&](std::size_t i) {
      return std::span<const std::size_t>(cands[i]);
    });
    for (const auto& c : cands) {
      result.index_candidates += static_cast<int64_t>(c.size());
    }
    result.pairs_pruned_by_index =
        static_cast<int64_t>(n) * (static_cast<int64_t>(n) - 1) / 2 -
        result.index_candidates;
    result.index_bound_tests = index.bound_tests();
  } else {
    store.VisitUpperTriangle(sweep, [&](std::size_t i, std::size_t j) {
      return bounds.ProvablyBeyond(i, j, eps);
    });
  }
  store.ReportTo(&result);
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [j, p] : upper[i]) {
      adj[i].emplace_back(j, p);
      adj[j].emplace_back(i, p);
    }
  }

  // Core-object probabilities via the Poisson-binomial tail.
  std::vector<char> core(n, 0);
  engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
    std::vector<double> probs;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      probs.clear();
      probs.reserve(adj[i].size());
      for (const auto& [j, p] : adj[i]) probs.push_back(p);
      core[i] = AtLeastProbability(probs, params_.min_pts) >=
                params_.core_threshold;
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
      for (const auto& [v, p] : adj[u]) {
        if (p < params_.reach_threshold || result.labels[v] >= 0) continue;
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
