#include "clustering/foptics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "clustering/pairwise_store.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {

namespace {
constexpr double kUndefined = std::numeric_limits<double>::infinity();
}  // namespace

std::vector<int> Foptics::ExtractAtThreshold(
    const std::vector<double>& reachability,
    const std::vector<double>& core_distance,
    const std::vector<std::size_t>& order, double threshold) {
  std::vector<int> labels(order.size(), -1);
  int current = -1;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    if (reachability[i] > threshold) {
      if (core_distance[i] <= threshold) {
        ++current;  // start of a new dense region
        labels[i] = current;
      }  // else noise
    } else if (current >= 0) {
      labels[i] = current;
    }
  }
  return labels;
}

ClusteringResult Foptics::Cluster(const data::UncertainDataset& data, int k,
                                  uint64_t /*seed*/) const {
  const std::size_t n = data.size();
  const engine::Engine& eng = engine();
  ClusteringResult result;
  result.k_requested = k;

  // Offline: sample store (resident or mapped, per the memory budget) + the
  // pairwise fuzzy-distance store (the dense backend builds the classic full
  // table here; budgeted backends recompute rows during the sweeps below).
  common::Stopwatch offline;
  const uncertain::SampleStorePtr samples = io::MakeSampleStoreOrResident(
      data, params_.samples, params_.sample_seed, eng);
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::SampleED(samples->view());
  PairwiseStore store(eng, kernel);
  store.Warm();
  const double offline_ms = offline.ElapsedMs();

  common::Stopwatch online;
  // Core distances: the MinPts-th smallest fuzzy distance to another object,
  // from one upper-triangle sweep (each unordered pair evaluated once on a
  // recomputing backend, read back from a warmed dense table). Each pair is
  // offered to both of its rows' bounded max-heaps of the `rank` smallest
  // values seen. The visitor runs concurrently for different rows, so the
  // heaps are per worker; row i's core distance is the rank-th smallest of
  // the union of its workers' heaps, which holds row i's rank smallest
  // values.
  //
  // PerWorker otherwise forbids reduction state. It is safe here because
  // selecting the rank-th smallest of a multiset does no arithmetic and does
  // not depend on the order values arrive in, and EvalRow scores each pair
  // in its canonical (lo, hi) order, so (i, j) and (j, i) are the same
  // double. Core distances are therefore bit-identical on every backend and
  // at every thread count.
  std::vector<double> core_dist(n, kUndefined);
  const std::size_t rank =
      n == 0 ? 0
             : std::min<std::size_t>(static_cast<std::size_t>(params_.min_pts),
                                     n - 1);
  if (rank > 0) {
    struct RankHeaps {
      std::vector<double> values;      // n x rank; row i's heap at i * rank
      std::vector<std::size_t> sizes;  // per-row heap size; empty = unused
    };
    engine::PerWorker<RankHeaps> heaps(eng);
    store.VisitUpperTriangle([&](std::size_t i, std::span<const double> tail) {
      RankHeaps& h = heaps.local();
      if (h.sizes.empty()) {
        h.values.resize(n * rank);
        h.sizes.assign(n, 0);
      }
      const auto offer = [&](std::size_t row, double v) {
        double* heap = h.values.data() + row * rank;
        std::size_t& size = h.sizes[row];
        if (size < rank) {
          heap[size++] = v;
          std::push_heap(heap, heap + size);
        } else if (v < heap[0]) {
          std::pop_heap(heap, heap + rank);
          heap[rank - 1] = v;
          std::push_heap(heap, heap + rank);
        }
      };
      for (std::size_t t = 0; t < tail.size(); ++t) {
        offer(i, tail[t]);
        offer(i + 1 + t, tail[t]);
      }
    });
    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      std::vector<double> merged;
      for (std::size_t i = r.begin; i < r.end; ++i) {
        merged.clear();
        for (const RankHeaps& h : heaps.slots()) {
          if (h.sizes.empty()) continue;
          const double* heap = h.values.data() + i * rank;
          merged.insert(merged.end(), heap, heap + h.sizes[i]);
        }
        assert(merged.size() >= rank);
        std::nth_element(merged.begin(), merged.begin() + (rank - 1),
                         merged.end());
        core_dist[i] = merged[rank - 1];
      }
    });
  }

  // OPTICS walk (eps = infinity: one complete ordering). Each step scores
  // `current` against the unprocessed objects, kept in ascending order,
  // then relaxes their reachability through `current` and picks the next
  // pivot (smallest reachability, lowest index on ties) in one pass over
  // the scores; a new component starts at the lowest unprocessed index. So
  // a recomputing store pays each unordered pair once — n*(n-1)/2
  // evaluations and no row gathers.
  std::vector<double> reach(n, kUndefined);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> rest(n);  // the unprocessed objects, ascending
  std::iota(rest.begin(), rest.end(), std::size_t{0});
  std::vector<double> dist(n);
  while (!rest.empty()) {
    std::size_t current = rest.front();
    for (;;) {
      rest.erase(std::lower_bound(rest.begin(), rest.end(), current));
      order.push_back(current);
      store.ScoreRow(current, rest, dist.data());
      std::size_t next = n;
      double best = kUndefined;
      for (std::size_t t = 0; t < rest.size(); ++t) {
        const std::size_t j = rest[t];
        reach[j] = std::min(reach[j], std::max(core_dist[current], dist[t]));
        if (reach[j] < best) {
          best = reach[j];
          next = j;
        }
      }
      if (next == n) break;  // all remaining are unreachable: new component
      current = next;
    }
  }

  // Flat extraction: choose the cut whose cluster count is closest to k,
  // preferring (at equal cluster-count gap) the cut leaving less noise.
  // Candidate thresholds are quantiles of the finite reachability and core
  // distances — the values at which the plot's structure changes. Each
  // probe is scored independently (parallel); the winner is selected in
  // probe order, so the cut is independent of the thread count.
  std::vector<double> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (core_dist[i] != kUndefined) candidates.push_back(core_dist[i]);
    if (reach[i] != kUndefined) candidates.push_back(reach[i]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const std::size_t probes = std::min<std::size_t>(candidates.size(), 128);
  struct ProbeScore {
    int found = 0;
    int noise = 0;
    double threshold = 0.0;
  };
  std::vector<ProbeScore> scores(probes);
  engine::ParallelForBlocked(
      eng, probes, 8, [&](const engine::BlockedRange& r) {
        for (std::size_t p = r.begin; p < r.end; ++p) {
          const std::size_t idx = p * (candidates.size() - 1) /
                                  std::max<std::size_t>(probes - 1, 1);
          scores[p].threshold = candidates[idx];
          const std::vector<int> labels =
              ExtractAtThreshold(reach, core_dist, order, scores[p].threshold);
          scores[p].found = CountClusters(labels);
          for (int l : labels) scores[p].noise += l < 0 ? 1 : 0;
        }
      });
  std::size_t best_probe = probes;
  int best_gap = std::numeric_limits<int>::max();
  int best_noise = std::numeric_limits<int>::max();
  for (std::size_t p = 0; p < probes; ++p) {
    if (scores[p].found == 0) continue;
    const int gap = std::abs(scores[p].found - k);
    if (gap < best_gap || (gap == best_gap && scores[p].noise < best_noise)) {
      best_gap = gap;
      best_noise = scores[p].noise;
      best_probe = p;
    }
  }
  std::vector<int> best_labels;
  if (best_probe < probes) {
    best_labels = ExtractAtThreshold(reach, core_dist, order,
                                     scores[best_probe].threshold);
  } else {
    best_labels.assign(n, 0);  // degenerate data: one cluster
  }

  // Noise policy: one shared extra cluster.
  int next_cluster = CountClusters(best_labels);
  for (int& l : best_labels) {
    if (l < 0) {
      l = next_cluster;
      ++result.noise_objects;
    }
  }
  result.labels = std::move(best_labels);
  result.clusters_found = CountClusters(result.labels);
  result.iterations = 1;
  result.objective = std::numeric_limits<double>::quiet_NaN();
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  store.ReportTo(&result);
  return result;
}

}  // namespace uclust::clustering
